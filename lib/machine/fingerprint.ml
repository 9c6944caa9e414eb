(** Canonical structural fingerprint of a machine configuration.

    A fingerprint covers everything that determines the machine's future
    behaviour: the persistent memory contents, the junk-generator state
    (which fixes the values future crashes scramble locals to), and for
    each process its status, completed results, remaining script length
    and full frame stack — object, operation, phase, pc, [LI],
    interrupted flag, argument values, local bindings and the
    environment's post-crash mode.  History bookkeeping (call ids, step
    counters, the recorded history itself) is deliberately excluded: two
    configurations with equal fingerprints generate identical future
    event sequences even when they were reached by different
    interleavings.

    Two representations share that definition.  The structural one
    ({!t}) builds no strings and hashes once at construction; it keys
    the impossibility analysis's tables and is what {!Symmetry}
    permutes.  The flat one ({!Key}) writes the same fields as bytes,
    straight from the machine into a reusable buffer, and is exact:
    equal bytes iff {!equal}.  {!Store}, the explorer's lock-free
    visited set shared by every domain, keeps one such key string per
    state — no pointers for the GC to trace — behind a per-segment
    screen of hashes. *)

type frame_fp = {
  ff_obj : int;  (** instance id *)
  ff_op : string;
  ff_recovery : bool;
  ff_pc : int;
  ff_li : int;
  ff_interrupted : bool;
  ff_env : (string * Nvm.Value.t) list;  (** sorted bindings *)
  ff_env_junk : int option;  (** post-crash mode + its stream state *)
  ff_args : Nvm.Value.t array;
}

type proc_fp = {
  pf_crashed : bool;
  pf_script : int;  (** remaining script length *)
  pf_results : (string * Nvm.Value.t) list;
  pf_stack : frame_fp list;  (** inner-most first *)
}

type t = {
  fp_hash : int;
  fp_mem : Nvm.Value.t array;
  fp_pmem : Nvm.Value.t array;
      (** persisted view of each cell under the explicit-persist model
          ([Nvm.Memory.psnapshot]); [[||]] in instant mode, where the
          volatile view is the persisted view — keeping instant-mode
          fingerprints (hash, equality, serialisation) byte-identical
          to the pre-persist-model ones *)
  fp_owner : int array;
      (** pending-writer pid per cell, [-1] = clean ([Nvm.Memory.owners]);
          [[||]] in instant mode.  Needed because a dirty cell's future
          differs by which process's [fence] would persist it *)
  fp_junk : int;
  fp_procs : proc_fp array;
  fp_extra : int;
      (** caller-supplied path context that must keep otherwise-equal
          configurations distinct — the explorer passes its consumed
          crash budget, without which deduplication would merge states
          whose remaining futures differ (see {!Explore}) *)
}

let hash t = t.fp_hash

(* FNV-style mixing; Value.hash does the per-value work *)
let mix h k = ((h * 0x01000193) lxor k) land max_int

(* [vh] hashes one value: [Nvm.Value.hash], or its pid-erased variant
   for {!erased_proc_hash} *)
let hash_value_list vh h l =
  List.fold_left (fun h (s, v) -> mix (mix h (Hashtbl.hash s)) (vh v)) h l

let frame_of (f : Sim.frame) =
  {
    ff_obj = f.Sim.f_obj.Objdef.id;
    ff_op = f.Sim.f_op.Objdef.op_name;
    ff_recovery = (match f.Sim.f_phase with Sim.Body -> false | Sim.Recovery -> true);
    ff_pc = f.Sim.f_pc;
    ff_li = f.Sim.f_li;
    ff_interrupted = f.Sim.f_interrupted;
    ff_env = Env.bindings f.Sim.f_env;
    ff_env_junk = Env.junk_state f.Sim.f_env;
    ff_args = f.Sim.f_args;
  }

let hash_frame vh h f =
  let h = mix h f.ff_obj in
  let h = mix h (Hashtbl.hash f.ff_op) in
  let h = mix h (Bool.to_int f.ff_recovery lor (Bool.to_int f.ff_interrupted lsl 1)) in
  let h = mix h f.ff_pc in
  let h = mix h f.ff_li in
  let h = mix h (match f.ff_env_junk with None -> 0x5851 | Some s -> s) in
  let h = hash_value_list vh h f.ff_env in
  Array.fold_left (fun h v -> mix h (vh v)) h f.ff_args

let proc_of (pr : Sim.proc) =
  {
    pf_crashed = (match pr.Sim.status with Sim.Ready -> false | Sim.Crashed -> true);
    pf_script = List.length pr.Sim.script;
    pf_results = pr.Sim.results;
    pf_stack = List.map frame_of pr.Sim.stack;
  }

let hash_proc vh h p =
  let h = mix h (Bool.to_int p.pf_crashed) in
  let h = mix h p.pf_script in
  let h = hash_value_list vh h p.pf_results in
  List.fold_left (hash_frame vh) h p.pf_stack

let hash_of ~mem ~pmem ~owner ~junk ~extra ~procs =
  let h = Array.fold_left (fun h v -> mix h (Nvm.Value.hash v)) 0x811c9dc5 mem in
  (* both folds are no-ops in instant mode (empty arrays), so instant
     hashes are unchanged from the pre-persist-model scheme *)
  let h = Array.fold_left (fun h v -> mix h (Nvm.Value.hash v)) h pmem in
  let h = Array.fold_left (fun h o -> mix h (o + 2)) h owner in
  let h = mix h junk in
  let h = mix h extra in
  Array.fold_left (hash_proc Nvm.Value.hash) h procs

(* A fingerprint before hashing: the structural copy of a configuration,
   which the symmetry reduction may still reorder before paying for the
   hash (see {!Symmetry.arrange}). *)
type draft = {
  d_mem : Nvm.Value.t array;
  d_pmem : Nvm.Value.t array;
  d_owner : int array;
  d_junk : int;
  d_procs : proc_fp array;
}

let draft sim =
  {
    d_mem = Nvm.Memory.snapshot (Sim.mem sim);
    d_pmem = Nvm.Memory.psnapshot (Sim.mem sim);
    d_owner = Nvm.Memory.owners (Sim.mem sim);
    d_junk = Sim.junk_state sim;
    d_procs = Array.init (Sim.nprocs sim) (fun p -> proc_of (Sim.proc sim p));
  }

let seal ?(extra = 0) d =
  {
    fp_hash =
      hash_of ~mem:d.d_mem ~pmem:d.d_pmem ~owner:d.d_owner ~junk:d.d_junk ~extra
        ~procs:d.d_procs;
    fp_mem = d.d_mem;
    fp_pmem = d.d_pmem;
    fp_owner = d.d_owner;
    fp_junk = d.d_junk;
    fp_procs = d.d_procs;
    fp_extra = extra;
  }

let of_sim ?extra sim = seal ?extra (draft sim)

let draft_of fp =
  {
    d_mem = fp.fp_mem;
    d_pmem = fp.fp_pmem;
    d_owner = fp.fp_owner;
    d_junk = fp.fp_junk;
    d_procs = fp.fp_procs;
  }

(* Components are immutable first-order data (ints, bools, strings,
   values), so structural polymorphic equality is exact; the precomputed
   hash screens out almost all mismatches first. *)
let equal a b =
  a.fp_hash = b.fp_hash && a.fp_junk = b.fp_junk && a.fp_extra = b.fp_extra
  && a.fp_mem = b.fp_mem && a.fp_pmem = b.fp_pmem && a.fp_owner = b.fp_owner
  && a.fp_procs = b.fp_procs

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(** Printable canonical serialisation, for diagnostics. *)
let to_string t =
  let b = Buffer.create 256 in
  Array.iter
    (fun v ->
      Buffer.add_string b (Nvm.Value.to_string v);
      Buffer.add_char b '|')
    t.fp_mem;
  (* persisted view, only under the explicit-persist model (empty arrays
     in instant mode keep that mode's serialisation unchanged) *)
  if Array.length t.fp_pmem > 0 then begin
    Buffer.add_string b "~P";
    Array.iteri
      (fun a v ->
        Buffer.add_string b (Nvm.Value.to_string v);
        if t.fp_owner.(a) >= 0 then Buffer.add_string b (Printf.sprintf "^%d" t.fp_owner.(a));
        Buffer.add_char b '|')
      t.fp_pmem
  end;
  Buffer.add_string b (Printf.sprintf "~j%d" t.fp_junk);
  if t.fp_extra <> 0 then Buffer.add_string b (Printf.sprintf "~x%d" t.fp_extra);
  Array.iter
    (fun p ->
      Buffer.add_string b (if p.pf_crashed then "C" else "R");
      Buffer.add_string b (string_of_int p.pf_script);
      Buffer.add_char b ':';
      List.iter
        (fun (op, v) ->
          Buffer.add_string b op;
          Buffer.add_string b (Nvm.Value.to_string v);
          Buffer.add_char b ',')
        p.pf_results;
      Buffer.add_char b '[';
      List.iter
        (fun f ->
          Buffer.add_string b (string_of_int f.ff_obj);
          Buffer.add_char b '.';
          Buffer.add_string b f.ff_op;
          Buffer.add_string b (if f.ff_recovery then "/r" else "/b");
          Buffer.add_string b (Printf.sprintf "@%d;li%d" f.ff_pc f.ff_li);
          if f.ff_interrupted then Buffer.add_char b '!';
          (match f.ff_env_junk with
          | None -> ()
          | Some s -> Buffer.add_string b (Printf.sprintf "~e%d" s));
          Buffer.add_char b '{';
          List.iter
            (fun (k, v) ->
              Buffer.add_string b k;
              Buffer.add_char b '=';
              Buffer.add_string b (Nvm.Value.to_string v);
              Buffer.add_char b ';')
            f.ff_env;
          Buffer.add_char b '}';
          Array.iter
            (fun a ->
              Buffer.add_string b (Nvm.Value.to_string a);
              Buffer.add_char b ',')
            f.ff_args;
          Buffer.add_char b '/')
        p.pf_stack;
      Buffer.add_string b "]#")
    t.fp_procs;
  Buffer.contents b

(* -------------------------------------------------------------------- *)
(* Flat byte keys                                                        *)

(** The visited store's key: the fields {!equal} compares, written into
    a byte string in a fixed, prefix-free layout —

    {v
    key   = junk extra mem pmem owner nprocs proc*
    mem   = count value*          (pmem likewise; owner = count int* )
    proc  = status script results stack
    stack = count frame*          (inner-most first)
    frame = obj op flags pc li env-junk env args
    env   = count (name value)*   (sorted by name; results likewise)
    args  = count value*
    v}

    An integer is a zigzag LEB128 varint (a junk-generator state, 8
    fixed bytes), a string is its length then its bytes, a value is a
    tag byte naming its constructor then its payload, and every
    variable-length part carries its count.  So the bytes parse back
    into the one structure they were written from: two keys are equal
    byte for byte exactly when the fingerprints are {!equal}, and the
    store compares keys with no false merges and no hash compaction.

    Encoding writes into a buffer owned by the calling domain, so a
    probe that finds a duplicate allocates nothing. *)
module Key = struct
  type enc = { mutable buf : Bytes.t; mutable len : int; mutable hash : int }

  let domain_buf = Domain.DLS.new_key (fun () -> { buf = Bytes.create 512; len = 0; hash = 0 })

  let grow e n =
    let b = Bytes.create (max (2 * Bytes.length e.buf) (e.len + n)) in
    Bytes.blit e.buf 0 b 0 e.len;
    e.buf <- b

  let[@inline] room e n = if e.len + n > Bytes.length e.buf then grow e n

  let[@inline] byte e c =
    room e 1;
    Bytes.unsafe_set e.buf e.len (Char.unsafe_chr c);
    e.len <- e.len + 1

  (* LEB128 of [z] read as unsigned 63 bits: at most 9 bytes *)
  let varint e z =
    room e 9;
    let b = e.buf in
    let n = ref z and i = ref e.len in
    while !n land -128 <> 0 do
      Bytes.unsafe_set b !i (Char.unsafe_chr (!n land 0x7f lor 0x80));
      incr i;
      n := !n lsr 7
    done;
    Bytes.unsafe_set b !i (Char.unsafe_chr !n);
    e.len <- !i + 1

  (* zigzag keeps small magnitudes of either sign to one byte *)
  let[@inline] int e n =
    let z = (n lsl 1) lxor (n asr 62) in
    if z >= 0 && z < 0x80 then byte e z else varint e z

  (* junk-generator states fill the whole word: fixed width beats a
     9-byte varint *)
  let word e n =
    room e 8;
    Bytes.set_int64_le e.buf e.len (Int64.of_int n);
    e.len <- e.len + 8

  let str e s =
    let n = String.length s in
    int e n;
    room e n;
    Bytes.unsafe_blit_string s 0 e.buf e.len n;
    e.len <- e.len + n

  (* one tag byte per constructor; small non-negative [Int]s and [Pid]s
     fold into their tag *)
  let rec value e (v : Nvm.Value.t) =
    match v with
    | Null -> byte e 0
    | Bool b -> byte e (if b then 2 else 1)
    | Int i ->
      if i >= 0 && i < 0x40 then byte e (0x40 lor i)
      else begin
        byte e 3;
        int e i
      end
    | Pid p ->
      if p >= 0 && p < 0x40 then byte e (0x80 lor p)
      else begin
        byte e 4;
        int e p
      end
    | Str s ->
      byte e 5;
      str e s
    | Pair (a, b) ->
      byte e 6;
      value e a;
      value e b

  let values e a =
    int e (Array.length a);
    Array.iter (value e) a

  let bindings e l =
    int e (List.length l);
    List.iter
      (fun (k, v) ->
        str e k;
        value e v)
      l

  let env_junk e = function
    | None -> byte e 0
    | Some s ->
      byte e 1;
      word e s

  let flags ~recovery ~interrupted = Bool.to_int recovery lor (Bool.to_int interrupted lsl 1)

  (* Two encoders of one layout: from the structural copy, and straight
     from the machine without building it.  They must agree byte for
     byte (a test checks it on every configuration of a search). *)

  let frame_fp e f =
    int e f.ff_obj;
    str e f.ff_op;
    byte e (flags ~recovery:f.ff_recovery ~interrupted:f.ff_interrupted);
    int e f.ff_pc;
    int e f.ff_li;
    env_junk e f.ff_env_junk;
    bindings e f.ff_env;
    values e f.ff_args

  let proc_fp e p =
    byte e (Bool.to_int p.pf_crashed);
    int e p.pf_script;
    bindings e p.pf_results;
    int e (List.length p.pf_stack);
    List.iter (frame_fp e) p.pf_stack

  let frame_sim e (f : Sim.frame) =
    int e f.Sim.f_obj.Objdef.id;
    str e f.Sim.f_op.Objdef.op_name;
    byte e
      (flags
         ~recovery:(match f.Sim.f_phase with Sim.Body -> false | Sim.Recovery -> true)
         ~interrupted:f.Sim.f_interrupted);
    int e f.Sim.f_pc;
    int e f.Sim.f_li;
    env_junk e (Env.junk_state f.Sim.f_env);
    bindings e (Env.bindings f.Sim.f_env);
    values e f.Sim.f_args

  let proc_sim e (pr : Sim.proc) =
    byte e (match pr.Sim.status with Sim.Ready -> 0 | Sim.Crashed -> 1);
    int e (List.length pr.Sim.script);
    bindings e pr.Sim.results;
    int e (List.length pr.Sim.stack);
    List.iter (frame_sim e) pr.Sim.stack

  (* Multiply-xorshift over 8-byte words (the high half folded in, as an
     [int] drops the word's top bit), then a final avalanche: the store
     takes its shard from the low bits and its slot from the rest. *)
  let finish e =
    let b = e.buf and len = e.len in
    let h = ref (len * 0x1f58476d1ce4e5b9) and i = ref 0 in
    while !i + 8 <= len do
      let w = Bytes.get_int64_le b !i in
      let w = Int64.to_int w lxor Int64.to_int (Int64.shift_right_logical w 32) in
      h := (!h lxor w) * 0x14057b7ef767814f;
      h := !h lxor (!h lsr 29);
      i := !i + 8
    done;
    while !i < len do
      h := (!h lxor Char.code (Bytes.unsafe_get b !i)) * 0x100000001b3;
      incr i
    done;
    let h = (!h lxor (!h lsr 31)) * 0x14057b7ef767814f in
    e.hash <- (h lxor (h lsr 30)) land max_int;
    e

  let start ~junk ~extra =
    let e = Domain.DLS.get domain_buf in
    e.len <- 0;
    word e junk;
    int e extra;
    e

  let encode_draft ?(extra = 0) d =
    let e = start ~junk:d.d_junk ~extra in
    values e d.d_mem;
    values e d.d_pmem;
    int e (Array.length d.d_owner);
    Array.iter (int e) d.d_owner;
    int e (Array.length d.d_procs);
    Array.iter (proc_fp e) d.d_procs;
    finish e

  let encode fp = encode_draft ~extra:fp.fp_extra (draft_of fp)

  (* The persisted view and the owners are empty in instant mode, as in
     [Nvm.Memory.psnapshot] and [Nvm.Memory.owners]. *)
  let encode_sim ?(extra = 0) sim =
    let e = start ~junk:(Sim.junk_state sim) ~extra in
    let mem = Sim.mem sim in
    let n = Nvm.Memory.size mem in
    int e n;
    for a = 0 to n - 1 do
      value e (Nvm.Memory.peek mem a)
    done;
    (match Nvm.Memory.mode mem with
    | Nvm.Memory.Instant ->
      int e 0;
      int e 0
    | Nvm.Memory.Explicit ->
      int e n;
      for a = 0 to n - 1 do
        value e (Nvm.Memory.peek_persisted mem a)
      done;
      int e n;
      for a = 0 to n - 1 do
        int e (Nvm.Memory.owner mem a)
      done);
    int e (Sim.nprocs sim);
    for p = 0 to Sim.nprocs sim - 1 do
      proc_sim e (Sim.proc sim p)
    done;
    finish e

  let to_string e = Bytes.sub_string e.buf 0 e.len

  (* [s] holds the bytes of [e] *)
  let matches e s =
    String.length s = e.len
    &&
    let b = e.buf and len = e.len in
    let rec words i =
      if i + 8 <= len then
        Int64.equal (String.get_int64_ne s i) (Bytes.get_int64_ne b i) && words (i + 8)
      else bytes i
    and bytes i = i >= len || (String.unsafe_get s i = Bytes.unsafe_get b i && bytes (i + 1)) in
    words 0

  let of_sim ?extra sim = to_string (encode_sim ?extra sim)
  let of_fp fp = to_string (encode fp)
end

(** Lock-free sharded visited-set of {!Key}s, safe to share across
    domains.

    Each shard is an ordered chain of open-addressing segments.  A
    segment holds [string Atomic.t] slots, [vacant] until claimed, and a
    parallel [screen] of key hashes.  Insertion probes the segments in
    one fixed global order — oldest segment first, and within each
    segment a bounded window of slots starting at a position derived
    from the key hash — and claims the first vacant slot with a CAS.
    Because slots are monotone ([vacant] → key, never changed again) and
    two equal keys share the exact same probe sequence, they serialise
    on the first CAS-able slot of that sequence: whichever CAS wins
    inserts, and the loser re-reads the very slot it lost and observes
    the duplicate.  So [add] returns [true] exactly once per distinct
    key with no locks on the fast path.

    The screen holds [hash + 1] of a slot's key, written by the CAS
    winner after its CAS, so [0] means "not known yet".  A probe skips a
    slot whose screen holds another non-zero value — that slot is taken,
    by a key with another hash — and reads the slot itself otherwise.
    The screen therefore only saves work (a window is two cache lines of
    [int]s) and never decides membership.  The key string is allocated
    only when a probe is about to CAS, so a duplicate costs no
    allocation.

    When every window in the chain is full, the shard grows by
    appending a segment of twice the last size — the only step taken
    under a (per-shard) mutex, and re-checked against concurrent
    growth before appending.  Earlier segments are never rehashed, so
    probes started before a growth still agree with probes after it. *)
module Store = struct
  type fp = t

  type segment = {
    slots : string Atomic.t array;  (** power-of-two length *)
    screen : int array;  (** [hash + 1] of the slot's key; [0] = unknown *)
  }

  type shard = {
    mutable segs : segment array;
        (** oldest first; written only under [lock], read without it —
            the probe re-reads via [Atomic] slot operations only *)
    lock : Mutex.t;
    count : int Atomic.t;
  }

  type t = {
    shards : shard array;
    shard_bits : int;
    contention : int Atomic.t;  (** CAS insertions lost to a racing domain *)
  }

  let probe_window = 16
  let initial_segment = 1 lsl 10

  (* a fresh block: no key, always a fresh [Bytes.sub_string], is
     physically equal to it *)
  let vacant = Bytes.unsafe_to_string (Bytes.create 0)

  let segment m =
    { slots = Array.init m (fun _ -> Atomic.make vacant); screen = Array.make m 0 }

  let create ?(shards = 64) () =
    let bits =
      let rec go b = if 1 lsl b >= max 1 (min shards 4096) then b else go (b + 1) in
      go 0
    in
    {
      shards =
        Array.init (1 lsl bits) (fun _ ->
            {
              segs = [| segment initial_segment |];
              lock = Mutex.create ();
              count = Atomic.make 0;
            });
      shard_bits = bits;
      contention = Atomic.make 0;
    }

  type verdict = Fresh | Dup | Full

  let probe t segs (k : Key.enc) =
    let tag = k.Key.hash + 1 in
    let pos = k.Key.hash lsr t.shard_bits in
    let nsegs = Array.length segs in
    let verdict = ref Full and copy = ref vacant in
    let s = ref 0 in
    while !verdict = Full && !s < nsegs do
      let seg = segs.(!s) in
      let mask = Array.length seg.slots - 1 in
      let window = min probe_window (mask + 1) in
      let i = ref 0 in
      while !verdict = Full && !i < window do
        let j = (pos + !i) land mask in
        let sc = seg.screen.(j) in
        if sc = 0 || sc = tag then begin
          let slot = seg.slots.(j) in
          let v = Atomic.get slot in
          if v != vacant then (if Key.matches k v then verdict := Dup)
          else begin
            if !copy == vacant then copy := Key.to_string k;
            if Atomic.compare_and_set slot vacant !copy then begin
              seg.screen.(j) <- tag;
              verdict := Fresh
            end
            else begin
              Atomic.incr t.contention;
              (* the slot is monotone: re-read what beat us *)
              if Key.matches k (Atomic.get slot) then verdict := Dup
            end
          end
        end;
        incr i
      done;
      incr s
    done;
    !verdict

  (** [add_key s k] is [true] iff [k] was not in the store (and is now). *)
  let rec add_key t (k : Key.enc) =
    let sh = t.shards.(k.Key.hash land ((1 lsl t.shard_bits) - 1)) in
    let segs = sh.segs in
    match probe t segs k with
    | Fresh ->
      Atomic.incr sh.count;
      true
    | Dup -> false
    | Full ->
      Mutex.lock sh.lock;
      (if sh.segs == segs then
         let last = segs.(Array.length segs - 1) in
         sh.segs <- Array.append segs [| segment (2 * Array.length last.slots) |]);
      Mutex.unlock sh.lock;
      add_key t k

  let add t (fp : fp) = add_key t (Key.encode fp)

  let cardinal t = Array.fold_left (fun acc sh -> acc + Atomic.get sh.count) 0 t.shards

  let contention t = Atomic.get t.contention
  let shards t = Array.length t.shards

  let shard_sizes t = Array.map (fun sh -> Atomic.get sh.count) t.shards
end

(* -------------------------------------------------------------------- *)
(* Process-id symmetry reduction                                         *)

(* Deterministic total order on fingerprints: hash first (cheap screen),
   then structural comparison of the immutable first-order components.
   Picks the exhaustive orbit minimum, the test oracle. *)
let order a b =
  let c = Int.compare a.fp_hash b.fp_hash in
  if c <> 0 then c
  else
    Stdlib.compare
      (a.fp_junk, a.fp_extra, a.fp_mem, a.fp_pmem, a.fp_owner, a.fp_procs)
      (b.fp_junk, b.fp_extra, b.fp_mem, b.fp_pmem, b.fp_owner, b.fp_procs)

(* renaming shares every pid-free subvalue *)
let rec rename_value pi v =
  match v with
  | Nvm.Value.Pid q -> if q >= 0 && q < Array.length pi then Nvm.Value.Pid pi.(q) else v
  | Nvm.Value.Pair (a, b) ->
    let a' = rename_value pi a and b' = rename_value pi b in
    if a' == a && b' == b then v else Nvm.Value.Pair (a', b')
  | v -> v

let map_frame_values f fr =
  {
    fr with
    ff_env = List.map (fun (k, v) -> (k, f v)) fr.ff_env;
    ff_args = Array.map f fr.ff_args;
  }

let map_proc_values f p =
  {
    p with
    pf_results = List.map (fun (op, v) -> (op, f v)) p.pf_results;
    pf_stack = List.map (map_frame_values f) p.pf_stack;
  }

(* The own/other erasure from process [p]'s point of view: every [Pid]
   becomes a token that only says whether it names [p].  Renaming the
   processes by [pi] and then erasing from [pi p]'s point of view gives
   what erasing from [p]'s gave, so the key below is equivariant. *)
let own_tok = Nvm.Value.Str "\001own"
let other_tok = Nvm.Value.Str "\001other"

let own_hash = Nvm.Value.hash own_tok
let other_hash = Nvm.Value.hash other_tok

(* [Nvm.Value.hash] of the erased value without building it: mirrors
   that hash's [Pair] rule (the pinned erased hashes check the match) *)
let rec erased_hash p v =
  match v with
  | Nvm.Value.Pid q -> if q = p then own_hash else other_hash
  | Nvm.Value.Pair (a, b) -> (erased_hash p a * 65599) + erased_hash p b
  | v -> Nvm.Value.hash v

(* Hash of process [p]'s control state so erased: the rank key of
   canonicalisation and the explorer's POR tie-break alike. *)
let erased_key p pf = hash_proc (erased_hash p) 0x9e3779b9 pf

let erased_proc_hash sim p = erased_key p (proc_of (Sim.proc sim p))

module Symmetry = struct
  type group = {
    g_n : int;
    g_classes : int array list;
        (** crash-enabled and crash-disabled processes, each ascending
            (empty classes left out): the group is the product of the
            symmetric groups on these classes *)
    g_perms : int array list;  (** non-identity members of the group *)
    g_arrays : int list;
    g_matrices : int list;
  }

  let degree g = 1 + List.length g.g_perms
  let max_group = 5040 (* 7! — beyond this canonicalisation costs more than it prunes *)

  let is_identity pi =
    let rec go i = i >= Array.length pi || (pi.(i) = i && go (i + 1)) in
    go 0

  (* All permutations [pi] of 0..n-1 with [label.(pi.(i)) = label.(i)],
     i.e. the product of the symmetric groups on the label classes; the
     identity comes first. *)
  let perms_of n label =
    let acc = ref [] in
    let pi = Array.make n (-1) in
    let used = Array.make n false in
    let rec go i =
      if i = n then acc := Array.copy pi :: !acc
      else
        for j = 0 to n - 1 do
          if (not used.(j)) && label.(i) = label.(j) then begin
            used.(j) <- true;
            pi.(i) <- j;
            go (i + 1);
            used.(j) <- false
          end
        done
    in
    go 0;
    List.rev !acc

  (* Pid-free control fields of a process: equivariant because it holds
     no values, and far cheaper than [erased_key], which only breaks
     the ties it leaves. *)
  let shape pf =
    List.fold_left
      (fun h f ->
        let h = mix (mix (mix h f.ff_obj) f.ff_pc) f.ff_li in
        mix h (Bool.to_int f.ff_recovery lor (Bool.to_int f.ff_interrupted lsl 1)))
      (mix (mix 0x2545 (Bool.to_int pf.pf_crashed)) pf.pf_script)
      pf.pf_stack

  (* The group elements that sort the processes by rank — [shape], then
     [erased_key] — within each class: a process of smaller rank moves to
     a smaller slot.  The sort fixes one such element, [pi]; where ranks
     tie, every rearrangement of the tied processes sorts too, so the set
     is [pi] after each permutation of the tie runs. *)
  let candidates g procs =
    let n = g.g_n in
    let shapes = Array.map shape procs in
    let keys = Array.make n 0 and known = Array.make n false in
    let key p =
      if not known.(p) then begin
        keys.(p) <- erased_key p procs.(p);
        known.(p) <- true
      end;
      keys.(p)
    in
    let rank a b =
      let c = Int.compare shapes.(a) shapes.(b) in
      if c <> 0 then c else Int.compare (key a) (key b)
    in
    let pi = Array.make n 0 in
    let run = Array.init n Fun.id in
    let ties = ref false in
    List.iter
      (fun cls ->
        let ps = Array.copy cls in
        Array.stable_sort rank ps;
        Array.iteri
          (fun i p ->
            pi.(p) <- cls.(i);
            if i > 0 && rank ps.(i - 1) p = 0 then begin
              ties := true;
              run.(p) <- run.(ps.(i - 1))
            end)
          ps)
      g.g_classes;
    if not !ties then [ pi ]
    else List.map (fun tau -> Array.map (fun q -> pi.(q)) tau) (perms_of n run)

  (* A script is symmetric when, after renaming the process's own pid to
     a neutral token, every process runs the same program.  Arguments
     mentioning a *foreign* pid, or computed at invocation time, make
     the scenario asymmetric (or unanalysable) — detection bails out. *)
  let erased_script own (pr : Sim.proc) =
    let rec erase v =
      match v with
      | Nvm.Value.Pid q -> if q = own then Some own_tok else None
      | Nvm.Value.Pair (a, b) -> (
        match (erase a, erase b) with
        | Some a, Some b -> Some (Nvm.Value.Pair (a, b))
        | _ -> None)
      | v -> Some v
    in
    let entry (inst, op, spec) =
      match spec with
      | Sim.Compute _ -> None
      | Sim.Args a ->
        let ea = Array.map erase a in
        if Array.exists Option.is_none ea then None
        else Some (inst.Objdef.id, op, Array.map Option.get ea)
    in
    let rec all = function
      | [] -> Some []
      | e :: tl -> (
        match (entry e, all tl) with Some k, Some ks -> Some (k :: ks) | _ -> None)
    in
    all pr.Sim.script

  let junk_pid_free sim =
    match Sim.junk_strategy sim with
    | Junk.Scramble | Junk.Zeros | Junk.Ones | Junk.MaxInt -> true
    | Junk.Lure pool ->
      let rec pid_free = function
        | Nvm.Value.Pid _ -> false
        | Nvm.Value.Pair (a, b) -> pid_free a && pid_free b
        | _ -> true
      in
      Array.for_all pid_free pool

  let fact n =
    let r = ref 1 in
    for i = 2 to n do
      r := !r * i
    done;
    !r

  let detect ?(crashes_possible = true) ~crash_procs sim =
    let n = Sim.nprocs sim in
    let insts = Objdef.instances (Sim.registry sim) in
    let objects_ok =
      insts <> []
      && List.for_all
           (fun (i : Objdef.instance) ->
             match i.Objdef.sym with
             | None -> false
             | Some s ->
               s.Objdef.body_oblivious && ((not crashes_possible) || s.Objdef.recover_oblivious))
           insts
    in
    let root_ok =
      let ok = ref true in
      for p = 0 to n - 1 do
        let pr = Sim.proc sim p in
        if pr.Sim.status <> Sim.Ready || pr.Sim.stack <> [] || pr.Sim.results <> [] then
          ok := false
      done;
      !ok
    in
    let scripts_ok =
      match erased_script 0 (Sim.proc sim 0) with
      | None -> false
      | Some k0 ->
        let rec same p =
          p >= n
          || (match erased_script p (Sim.proc sim p) with
             | Some kp when kp = k0 -> same (p + 1)
             | _ -> false)
        in
        same 1
    in
    if n < 2 || fact n > max_group || (not objects_ok) || (not root_ok) || (not scripts_ok)
       || not (junk_pid_free sim)
    then None
    else
      (* crash-enabled processes must stay crash-enabled *)
      let keep = Array.init n (fun p -> Bool.to_int (List.mem p crash_procs)) in
      match List.filter (fun pi -> not (is_identity pi)) (perms_of n keep) with
      | [] -> None
      | perms ->
        let arrays, matrices =
          List.fold_left
            (fun (ars, mats) (i : Objdef.instance) ->
              match i.Objdef.sym with
              | None -> (ars, mats)
              | Some s -> (s.Objdef.pid_arrays @ ars, s.Objdef.pid_matrices @ mats))
            ([], []) insts
        in
        let cls k =
          Array.of_list (List.filter (fun p -> keep.(p) = k) (List.init n Fun.id))
        in
        Some
          {
            g_n = n;
            g_classes = List.filter (fun c -> Array.length c > 0) [ cls 0; cls 1 ];
            g_perms = perms;
            g_arrays = arrays;
            g_matrices = matrices;
          }

  (* Apply a permutation to a draft: rename every Pid value, move
     per-process array cells to the slot of the renamed owner, move
     matrix cells likewise in both coordinates, and relocate each
     process's control state.  The junk stream is pid-free by
     construction, so it passes through. *)
  let permute g pi d =
    let n = g.g_n in
    let renamed = Array.map (rename_value pi) d.d_mem in
    let mem = Array.copy renamed in
    List.iter
      (fun base ->
        if base >= 0 && base + n <= Array.length mem then
          for p = 0 to n - 1 do
            mem.(base + pi.(p)) <- renamed.(base + p)
          done)
      g.g_arrays;
    List.iter
      (fun base ->
        if base >= 0 && base + (n * n) <= Array.length mem then
          for q = 0 to n - 1 do
            for p = 0 to n - 1 do
              mem.(base + (pi.(q) * n) + pi.(p)) <- renamed.(base + (q * n) + p)
            done
          done)
      g.g_matrices;
    let procs = Array.make n d.d_procs.(0) in
    for p = 0 to n - 1 do
      procs.(pi.(p)) <- map_proc_values (rename_value pi) d.d_procs.(p)
    done;
    (* symmetry reduction is disabled under the explicit-persist model
       (see Explore.symmetry_group), so the persisted-view arrays are
       always empty here and pass through unchanged *)
    { d with d_mem = mem; d_procs = procs }

  (* Structural order on drafts of one configuration: junk, persisted
     view and owners are common to all its arrangements. *)
  let compare_drafts a b =
    let c = Stdlib.compare a.d_mem b.d_mem in
    if c <> 0 then c else Stdlib.compare a.d_procs b.d_procs

  (* The least candidate arrangement, compared before hashing or
     encoding so only the winner is; [d] itself (physically) when no
     permutation beats it. *)
  let arrange g d =
    if Array.length d.d_procs <> g.g_n then d
    else
      let arrange pi = if is_identity pi then d else permute g pi d in
      match candidates g d.d_procs with
      | [] -> d
      | pi :: rest ->
        List.fold_left
          (fun best pi ->
            let c = arrange pi in
            if compare_drafts c best < 0 then c else best)
          (arrange pi) rest

  let canonical g fp =
    let d = draft_of fp in
    let best = arrange g d in
    if best == d then fp else seal ~extra:fp.fp_extra best

  let orbit g fp =
    if Array.length fp.fp_procs <> g.g_n then [ fp ]
    else
      fp
      :: List.map (fun pi -> seal ~extra:fp.fp_extra (permute g pi (draft_of fp))) g.g_perms

  let orbit_min g fp =
    List.fold_left (fun best c -> if order c best < 0 then c else best) fp (orbit g fp)
end
