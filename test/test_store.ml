(* The shared visited store and the process-symmetry quotient: the two
   halves of the deduplication layer the work-stealing engine hangs off
   Fingerprint.  The store must be linearizable under concurrent
   insertion (a lost or doubled "fresh" answer corrupts node counts and
   can prune unexplored states); the quotient must never change a
   verdict — pinned here against unquotiented ground truth on every
   bug-zoo mutant, the scenarios explicitly built to be caught. *)

module F = Machine.Fingerprint
module Sim = Machine.Sim
module Explore = Machine.Explore

(* Distinct fingerprints on demand: one configuration, distinct opaque
   path context (the [extra] the explorer uses for the crash budget). *)
let make_fps n =
  let sim = Sim.create ~nprocs:2 () in
  Array.init n (fun i -> F.of_sim ~extra:i sim)

(* {1 The store} *)

let test_fresh_exactly_once () =
  let store = F.Store.create () in
  let fps = make_fps 500 in
  Array.iter (fun fp -> Alcotest.(check bool) "first insert fresh" true (F.Store.add store fp)) fps;
  Array.iter
    (fun fp -> Alcotest.(check bool) "re-insert not fresh" false (F.Store.add store fp))
    fps;
  Alcotest.(check int) "cardinal" 500 (F.Store.cardinal store)

let test_shard_rounding () =
  Alcotest.(check int) "shard count rounds up to a power of two" 8
    (F.Store.shards (F.Store.create ~shards:5 ()))

(* Concurrent insertion is linearizable: across racing domains every
   distinct fingerprint is reported fresh exactly once, none is lost.
   Domains insert overlapping random samples so the CAS paths race on
   purpose; the per-domain fresh counts must sum to the union size. *)
let prop_concurrent_inserts =
  QCheck2.Test.make ~name:"store: concurrent inserts lose and double nothing" ~count:8
    (QCheck2.Gen.int_range 1 1_000_000) (fun seed ->
      let n = 2_000 and domains = 4 in
      let fps = make_fps n in
      let rng = Random.State.make [| seed |] in
      (* sample before spawning: Random.State is not domain-safe *)
      let picks =
        Array.init domains (fun _ ->
            Array.of_list
              (List.filter
                 (fun _ -> Random.State.float rng 1.0 < 0.6)
                 (List.init n Fun.id)))
      in
      let union = Array.make n false in
      Array.iter (Array.iter (fun i -> union.(i) <- true)) picks;
      let distinct = Array.fold_left (fun a b -> if b then a + 1 else a) 0 union in
      (* few shards on purpose: more CAS collisions per slot *)
      let store = F.Store.create ~shards:4 () in
      let workers =
        Array.map
          (fun pick ->
            Domain.spawn (fun () ->
                Array.fold_left
                  (fun fresh i -> if F.Store.add store fps.(i) then fresh + 1 else fresh)
                  0 pick))
          picks
      in
      let fresh_total = Array.fold_left (fun a d -> a + Domain.join d) 0 workers in
      fresh_total = distinct && F.Store.cardinal store = distinct)

let test_shard_distribution () =
  let store = F.Store.create ~shards:64 () in
  let n = 4_096 in
  Array.iter (fun fp -> ignore (F.Store.add store fp)) (make_fps n);
  let sizes = F.Store.shard_sizes store in
  Alcotest.(check int) "shard sizes sum to cardinal" n (Array.fold_left ( + ) 0 sizes);
  let mean = n / Array.length sizes in
  Array.iteri
    (fun i sz ->
      if sz > 4 * mean then
        Alcotest.failf "shard %d holds %d inserts (mean %d): hash is not spreading" i sz mean)
    sizes

(* Growth under contention: one shard, so every insert lands in the
   same chain and the racing domains must append segments past
   [initial_segment] (1024) while others probe — the CAS, the screen's
   write-after-CAS window and the fall-back to reading a slot whose
   screen entry is still 0 all race. *)
let test_concurrent_growth () =
  let n = 6_000 and domains = 4 in
  let fps = make_fps n in
  (* every domain inserts a contiguous 3/4 of the range, from its own
     offset, so each fingerprint is raced by three domains *)
  let store = F.Store.create ~shards:1 () in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let fresh = ref 0 in
            for k = 0 to (3 * n / 4) - 1 do
              if F.Store.add store fps.((k + (d * n / 4)) mod n) then incr fresh
            done;
            !fresh))
  in
  let fresh_total = List.fold_left (fun a d -> a + Domain.join d) 0 workers in
  Alcotest.(check int) "fresh answers sum to the union" n fresh_total;
  Alcotest.(check int) "cardinal is the union" n (F.Store.cardinal store);
  Array.iter
    (fun fp -> Alcotest.(check bool) "every insert is remembered" false (F.Store.add store fp))
    fps

(* {1 Flat keys are exact} *)

(* Byte equality of keys must be exactly [Fingerprint.equal]: a merge of
   unequal configurations would prune an unexplored state.  Each pair
   below differs in one place that a careless layout would lose — a
   value's constructor, a string boundary, the opaque path context, the
   persisted view, the pending-writer owner. *)
let check_pair name a b =
  let fa = F.of_sim ~extra:0 a and fb = F.of_sim ~extra:0 b in
  let ka = F.Key.of_sim a and kb = F.Key.of_sim b in
  Alcotest.(check bool) (name ^ ": structurally distinct") false (F.equal fa fb);
  Alcotest.(check bool) (name ^ ": keys distinct") false (String.equal ka kb);
  Alcotest.(check string) (name ^ ": key from the machine = key of the fingerprint") ka
    (F.Key.of_fp fa);
  let store = F.Store.create ~shards:1 () in
  Alcotest.(check (pair bool bool)) (name ^ ": both fresh in one store") (true, true)
    (F.Store.add store fa, F.Store.add store fb)

let one_cell ?persist v =
  let sim = Sim.create ?persist ~nprocs:1 () in
  ignore (Nvm.Memory.alloc (Sim.mem sim) v);
  sim

(* one process mid-READ, so its frame's environment can be planted *)
let with_binding name v =
  let sim = Sim.create ~nprocs:1 () in
  let inst = Objects.Rw_obj.make sim ~name:"R" in
  Sim.set_script sim 0 [ (inst, "READ", Sim.Args [||]) ];
  Sim.step sim 0;
  (match (Sim.proc sim 0).Sim.stack with
  | f :: _ -> Machine.Env.set f.Sim.f_env name v
  | [] -> Alcotest.fail "invocation pushed no frame");
  sim

(* explicit mode: cell initialised to [init], then [Int 1] written by
   [pid] and left unflushed *)
let dirty ~init ~pid =
  let sim = one_cell ~persist:Nvm.Memory.Explicit (Nvm.Value.Int init) in
  let mem = Sim.mem sim in
  Nvm.Memory.set_current_pid mem pid;
  Nvm.Memory.write mem 0 (Nvm.Value.Int 1);
  sim

let test_key_adversarial_pairs () =
  let open Nvm.Value in
  check_pair "Int 1 vs Pid 1" (one_cell (Int 1)) (one_cell (Pid 1));
  check_pair "Str ab vs Pair (Str a, Str b)" (one_cell (Str "ab"))
    (one_cell (Pair (Str "a", Str "b")));
  check_pair "env a=bc vs ab=c" (with_binding "a" (Str "bc")) (with_binding "ab" (Str "c"));
  (* names may hold any byte: without length prefixes these two would
     write the same bytes, the value's tag standing in for a name byte *)
  check_pair "env a\\005b=null vs a=b\\000" (with_binding "a\005b" Null)
    (with_binding "a" (Str "b\000"));
  check_pair "pmem only" (dirty ~init:0 ~pid:0) (dirty ~init:2 ~pid:0);
  check_pair "owner only" (dirty ~init:0 ~pid:0) (dirty ~init:0 ~pid:1);
  (* the path context alone *)
  let sim = one_cell (Int 1) in
  Alcotest.(check bool) "extra only: keys distinct" false
    (String.equal (F.Key.of_sim ~extra:0 sim) (F.Key.of_sim ~extra:1 sim));
  Alcotest.(check bool) "extra only: structurally distinct" false
    (F.equal (F.of_sim ~extra:0 sim) (F.of_sim ~extra:1 sim));
  (* and equal configurations built apart share one key *)
  Alcotest.(check string) "equal configurations, equal keys"
    (F.Key.of_sim (with_binding "a" (Str "bc")))
    (F.Key.of_sim (with_binding "a" (Str "bc")))

(* Every configuration a dedup search probes, in both persist models:
   the key encoded straight from the machine is byte for byte the key of
   its fingerprint (and of its draft), and across all of them key
   equality coincides with [Fingerprint.equal] in both directions. *)
let probed persist =
  let sim0 = Sim.create ~persist ~nprocs:2 () in
  (Workload.Scenarios.register ~nprocs:2 ~ops:2 ()).Workload.Trial.build sim0;
  let cfg =
    { Explore.default_config with max_steps = 200; max_crashes = 1; crash_procs = [ 0; 1 ] }
  in
  let out = ref [] and mismatches = ref 0 in
  let on_step sim =
    let extra = List.length !out mod 3 in
    let fp = F.of_sim ~extra sim in
    let k = F.Key.of_sim ~extra sim in
    if
      not
        (String.equal k (F.Key.of_fp fp)
        && String.equal k (F.Key.to_string (F.Key.encode_draft ~extra (F.draft sim))))
    then incr mismatches;
    out := (fp, k) :: !out
  in
  ignore (Explore.dfs ~cfg ~dedup:true ~symmetry:false ~on_step ~on_terminal:(fun _ -> ()) sim0);
  if !mismatches > 0 then
    Alcotest.failf "direct key differs from the fingerprint's on %d configurations" !mismatches;
  Array.of_list !out

let test_key_exact persist () =
  let cs = probed persist in
  let by_key = Hashtbl.create 1024 and by_fp = F.Table.create 1024 in
  let merged = ref 0 in
  Array.iter
    (fun (fp, k) ->
      (match Hashtbl.find_opt by_key k with
      | Some fp' ->
        incr merged;
        if not (F.equal fp fp') then Alcotest.fail "equal keys for unequal fingerprints"
      | None -> Hashtbl.add by_key k fp);
      match F.Table.find_opt by_fp fp with
      | Some k' ->
        if not (String.equal k k') then Alcotest.fail "distinct keys for equal fingerprints"
      | None -> F.Table.add by_fp fp k)
    cs;
  Alcotest.(check int) "as many distinct keys as distinct fingerprints" (F.Table.length by_fp)
    (Hashtbl.length by_key);
  (* the check has teeth only if the search revisits configurations *)
  Alcotest.(check bool) "some configurations recur" true (!merged > 0)

(* {1 Symmetry soundness on the bug zoo} *)

(* Symmetric workloads per base algorithm: every process runs the same
   script up to own-pid renaming ([Opgen.tagged p] carries [Pid p], which
   the detector erases), so the quotient is active wherever the object's
   declaration allows it. *)
let symmetric_script algo (inst : Machine.Objdef.instance) p =
  match algo with
  | "register" ->
    [
      (inst, "WRITE", Sim.Args [| Workload.Opgen.tagged p 0 |]);
      (inst, "READ", Sim.Args [||]);
    ]
  | "cas" ->
    [ (inst, "CAS", Sim.Args [| Nvm.Value.Null; Workload.Opgen.tagged p 0 |]) ]
  | "tas" -> [ (inst, "T&S", Sim.Args [||]) ]
  | "counter" -> [ (inst, "INC", Sim.Args [||]); (inst, "READ", Sim.Args [||]) ]
  | "mutex" ->
    [
      (inst, "ACQUIRE", Sim.Args [| Nvm.Value.Int 1 |]);
      (inst, "RELEASE", Sim.Args [| Nvm.Value.Int 2 |]);
    ]
  | "consensus" -> [ (inst, "DECIDE", Sim.Args [| Nvm.Value.Int 1; Workload.Opgen.tagged p 0 |]) ]
  | "pcall" -> [ (inst, "RUN", Sim.Args [| Nvm.Value.Int 1 |]) ]
  | _ -> assert false

let build_mutant m ~nprocs =
  let sim = Sim.create ~nprocs () in
  let inst, _ = Objects.Zoo.make m sim ~name:"Z" in
  for p = 0 to nprocs - 1 do
    Sim.set_script sim p (symmetric_script m.Objects.Zoo.m_algo inst p)
  done;
  sim

let verdict ~cfg ~symmetry sim =
  let viol, stats =
    Explore.find_violation ~cfg ~dedup:true ~symmetry
      ~check_mode:(`Incremental (Workload.Check.nrl_incremental ()))
      ~check:Workload.Check.nrl_violation sim
  in
  (Option.is_some viol, stats)

(* Every mutant, crashes enabled: the canonical and uncanonical searches
   must agree on whether a violation exists.  The quotient is active for
   the Algorithm 1 mutants (recovery pid-oblivious); for the TAS/CAS
   mutants the detector must refuse (their recoveries scan pids in fixed
   order), which is itself part of the soundness contract. *)
let test_zoo_verdicts_pinned () =
  let nprocs = 2 in
  let cfg =
    {
      Explore.default_config with
      max_steps = 120;
      max_crashes = 1;
      crash_procs = List.init nprocs Fun.id;
    }
  in
  let caught = ref 0 in
  List.iter
    (fun m ->
      let name = m.Objects.Zoo.m_name in
      let active = Explore.symmetry_group cfg (build_mutant m ~nprocs) <> None in
      (match m.Objects.Zoo.m_algo with
      | "register" ->
        Alcotest.(check bool) (name ^ ": quotient active under crashes") true active
      | "tas" | "cas" ->
        Alcotest.(check bool)
          (name ^ ": detector refuses pid-ordered recovery under crashes")
          false active
      | _ -> ());
      let found_q, _ = verdict ~cfg ~symmetry:true (build_mutant m ~nprocs) in
      let found_g, _ = verdict ~cfg ~symmetry:false (build_mutant m ~nprocs) in
      if found_g then incr caught;
      Alcotest.(check bool) (name ^ ": quotiented verdict = ground truth") found_g found_q)
    Objects.Zoo.all;
  (* the pinning is only evidence if the exhaustive bound actually
     exposes bugs at this instance size *)
  Alcotest.(check bool) "some mutants are caught" true (!caught > 0)

(* Crash-free axis: recovery obliviousness is moot, so the quotient is
   active for every mutant whose object declares a symmetry (the
   counter's nested registers and the pcall's nested call frames do
   not); the state-space shrinks and the clean verdict must survive. *)
let test_zoo_verdicts_pinned_crash_free () =
  let nprocs = 2 in
  let cfg = { Explore.default_config with max_steps = 120; max_crashes = 0 } in
  let no_sym = [ "counter"; "pcall" ] in
  List.iter
    (fun m ->
      let name = m.Objects.Zoo.m_name in
      if not (List.mem m.Objects.Zoo.m_algo no_sym) then
        Alcotest.(check bool)
          (name ^ ": quotient active crash-free")
          true
          (Explore.symmetry_group cfg (build_mutant m ~nprocs) <> None);
      let found_q, stats_q = verdict ~cfg ~symmetry:true (build_mutant m ~nprocs) in
      let found_g, stats_g = verdict ~cfg ~symmetry:false (build_mutant m ~nprocs) in
      Alcotest.(check bool) (name ^ ": crash-free verdicts agree") found_g found_q;
      if (not found_g) && not (List.mem m.Objects.Zoo.m_algo no_sym) then
        Alcotest.(check bool)
          (name ^ ": quotient explored no more than ground truth")
          true
          (stats_q.Explore.nodes <= stats_g.Explore.nodes))
    Objects.Zoo.all

(* The canonical map itself: idempotent on the root of a sound
   symmetric scenario. *)
let test_canonical_idempotent () =
  let nprocs = 3 in
  let sim = Sim.create ~nprocs () in
  let inst = Objects.Tas_obj.make sim ~name:"T" in
  for p = 0 to nprocs - 1 do
    Sim.set_script sim p (Workload.Opgen.tas_ops inst)
  done;
  let cfg = { Explore.default_config with max_crashes = 0 } in
  match Explore.symmetry_group cfg sim with
  | None -> Alcotest.fail "symmetric tas scenario not detected"
  | Some g ->
    Alcotest.(check int) "full symmetric group on 3 processes" 6 (F.Symmetry.degree g);
    let fp = F.of_sim sim in
    let c = F.Symmetry.canonical g fp in
    Alcotest.(check bool) "canonical is idempotent" true
      (F.equal c (F.Symmetry.canonical g c))

(* {1 The canonical map against the exhaustive orbit minimum} *)

(* Processes on one recoverable register, each writing its own tagged
   value and reading it back: the scenario T8 quotients. *)
let rw_symmetric sim =
  let inst = Objects.Rw_obj.make sim ~name:"R" in
  for p = 0 to Sim.nprocs sim - 1 do
    Sim.set_script sim p
      [
        (inst, "WRITE", Sim.Args [| Workload.Opgen.tagged p 0 |]);
        (inst, "READ", Sim.Args [||]);
      ]
  done;
  sim

(* Every configuration an unquotiented dedup search applies a decision
   to, fingerprinted, together with the group its crash set induces.
   Building each canonical form straight from the machine must give what
   canonicalising the finished fingerprint gives. *)
let collect ~crash_procs =
  let cfg = { Explore.default_config with max_steps = 200; max_crashes = 1; crash_procs } in
  let sim0 = rw_symmetric (Sim.create ~nprocs:3 ()) in
  let g =
    match Explore.symmetry_group cfg sim0 with
    | Some g -> g
    | None -> Alcotest.fail "symmetric rw scenario not detected"
  in
  let fps = ref [] and mismatches = ref 0 in
  let on_step sim =
    let fp = F.of_sim sim in
    if not (F.equal (F.seal (F.Symmetry.arrange g (F.draft sim))) (F.Symmetry.canonical g fp))
    then incr mismatches;
    fps := fp :: !fps
  in
  ignore
    (Explore.dfs ~cfg ~dedup:true ~symmetry:false ~on_step ~on_terminal:(fun _ -> ()) sim0);
  if !mismatches > 0 then
    Alcotest.failf "arranging the draft differs from canonical on %d configurations" !mismatches;
  (g, Array.of_list (List.rev !fps))

(* For a sample of collected configurations: the canonical form is the
   same from every member of the orbit and lies in the orbit, and two
   stores fed every orbit member — one keyed by the canonical form, one
   by the exhaustive orbit minimum — answer fresh/duplicate alike, i.e.
   they partition the configurations identically. *)
let prop_canonical_vs_oracle ~name ~crash_procs ~degree =
  let data = lazy (collect ~crash_procs) in
  QCheck2.Test.make ~name ~count:30
    QCheck2.Gen.(list_size (int_range 1 40) (int_bound 1_000_000))
    (fun picks ->
      let g, fps = Lazy.force data in
      if F.Symmetry.degree g <> degree then
        QCheck2.Test.fail_reportf "group order %d, expected %d" (F.Symmetry.degree g) degree;
      let by_canonical = F.Store.create () and by_oracle = F.Store.create () in
      List.for_all
        (fun i ->
          let fp = fps.(i mod Array.length fps) in
          let c = F.Symmetry.canonical g fp in
          let orbit = F.Symmetry.orbit g fp in
          List.length orbit = degree
          && F.equal (F.Symmetry.orbit_min g c) (F.Symmetry.orbit_min g fp)
          && List.for_all
               (fun x ->
                 F.equal (F.Symmetry.canonical g x) c
                 && F.Store.add by_canonical (F.Symmetry.canonical g x)
                    = F.Store.add by_oracle (F.Symmetry.orbit_min g x))
               orbit)
        picks)

(* The fingerprint hash of a fixed mid-search configuration, pinned:
   fuzz corpora record these hashes as coverage, so a rework of the
   fingerprint must not shift them.  Same for the pid-erased process
   hashes, which steer the explorer's equivariant POR choices. *)
let mid_search ?annotate persist =
  let sim = rw_symmetric (Sim.create ~seed:5 ~persist ?annotate ~nprocs:2 ()) in
  List.iter
    (fun (act, p) ->
      match act with
      | `Step -> if Sim.enabled sim p then Sim.step sim p
      | `Crash -> if Sim.can_crash sim p then Sim.crash sim p
      | `Recover -> if Sim.can_recover sim p then Sim.recover sim p)
    [
      (`Step, 0); (`Step, 0); (`Step, 1); (`Step, 0); (`Step, 1); (`Crash, 0); (`Step, 1);
      (`Recover, 0); (`Step, 0); (`Step, 1); (`Step, 1);
    ];
  sim

let test_hash_pinned () =
  let check name sim ~hash ~erased =
    Alcotest.(check int) (name ^ ": Fingerprint.hash") hash (F.hash (F.of_sim sim));
    Alcotest.(check int) (name ^ ": draft then seal") hash (F.hash (F.seal (F.draft sim)));
    Alcotest.(check (list int))
      (name ^ ": erased process hashes") erased
      [ F.erased_proc_hash sim 0; F.erased_proc_hash sim 1 ]
  in
  let erased = [ 3525800409206143825; 3918423398384199814 ] in
  check "instant" (mid_search Nvm.Memory.Instant) ~hash:1574192757221091610 ~erased;
  (* the bare transcription leaves dirty cells, so the persisted view and
     the pending-writer owners are hashed too *)
  let explicit = mid_search ~annotate:false Nvm.Memory.Explicit in
  Alcotest.(check bool) "explicit: some cell is dirty" true
    (Array.exists (fun o -> o >= 0) (Nvm.Memory.owners (Sim.mem explicit)));
  check "explicit" explicit ~hash:380891632284991523 ~erased

let suite =
  [
    Alcotest.test_case "fresh exactly once, cardinal exact" `Quick test_fresh_exactly_once;
    Alcotest.test_case "shard count rounds to a power of two" `Quick test_shard_rounding;
    QCheck_alcotest.to_alcotest prop_concurrent_inserts;
    Alcotest.test_case "shard distribution is sane" `Quick test_shard_distribution;
    Alcotest.test_case "one shard grows under 4 racing domains" `Quick test_concurrent_growth;
    Alcotest.test_case "keys separate adversarial near-equal pairs" `Quick
      test_key_adversarial_pairs;
    Alcotest.test_case "key exact on every probed configuration, instant" `Quick
      (test_key_exact Nvm.Memory.Instant);
    Alcotest.test_case "key exact on every probed configuration, explicit" `Quick
      (test_key_exact Nvm.Memory.Explicit);
    Alcotest.test_case "zoo verdicts pinned, crashes enabled" `Slow test_zoo_verdicts_pinned;
    Alcotest.test_case "zoo verdicts pinned, crash-free" `Slow
      test_zoo_verdicts_pinned_crash_free;
    Alcotest.test_case "canonical map idempotent, full group" `Quick
      test_canonical_idempotent;
    QCheck_alcotest.to_alcotest
      (prop_canonical_vs_oracle ~name:"canonical = orbit-min partition, full S3"
         ~crash_procs:[ 0; 1; 2 ] ~degree:6);
    QCheck_alcotest.to_alcotest
      (prop_canonical_vs_oracle ~name:"canonical = orbit-min partition, crash subgroup"
         ~crash_procs:[ 0; 1 ] ~degree:2);
    Alcotest.test_case "fingerprint and erased hashes pinned" `Quick test_hash_pinned;
  ]
