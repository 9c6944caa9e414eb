(* The benchmark program: runs one workload against the library's public
   entry points and prints its metrics.  README.md in this directory
   explains the workloads, the metrics and which layer each per-layer
   metric belongs to; run.py builds this program and calls it.

   Untraced runs ([--trace 0]) report the end-to-end metrics and attach
   no registry and no callbacks.  Traced runs ([--trace 1]) make one
   untraced pass as the overhead base, then passes with a metrics
   registry and timed wrappers around the calls into each layer, and
   report the per-layer metrics.  Every run checks the program's
   outputs: pinned counts and a clean verdict for exploration, the
   conservation audit and the crash ledger for the service. *)

module Explore = Machine.Explore
module Sim = Machine.Sim
module Fp = Machine.Fingerprint
module Engine = Service.Engine
module Shard = Service.Shard
module Client = Service.Client
module Robjects = Service.Robjects
module Latency = Service.Latency
module Zipf = Service.Zipf
module Torture = Runtime.Torture
module Crash = Runtime.Crash
module Names = Obs.Names

let now_ns = Obs.Clock.now_ns
let secs ns = float_of_int ns /. 1e9
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Metrics catalogue.  BENCHMARK.json lists the same names: the
   end-to-end ones in [end_to_end], the others in [per_layer].  Every
   run prints all names of its group; a per-layer metric of a layer the
   workload does not use reads 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_us", "us");
    ("latency_tail_us", "us");
    ("throughput_ok_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    (* Explore engine *)
    ("explore.nodes", "count");
    ("explore.terminals", "count");
    ("explore.dup", "count");
    ("explore.nodes_per_s", "1/s");
    ("explore.ws.steals", "count");
    ("explore.time.idle_s", "s");
    ("engine.other_s", "s");
    (* Fingerprint *)
    ("fingerprint.build_ns", "ns");
    ("fingerprint.canonical_ns", "ns");
    ("store.add_ns", "ns");
    ("fingerprint.share", "ratio");
    ("dedup.share", "ratio");
    ("dedup.hit_ratio", "ratio");
    ("store.states", "count");
    ("store.bytes_per_state", "B");
    (* Sim + Trail *)
    ("sim.steps", "count");
    ("sim.step_ns", "ns");
    ("step.share", "ratio");
    ("trail.undos", "count");
    ("trail.undo_depth_mean", "count");
    (* Memory (explicit persist) *)
    ("sim.flushes", "count");
    ("sim.fences", "count");
    ("flushes_per_node", "ratio");
    (* Nrl checker *)
    ("check.step_ns", "ns");
    ("check.terminal_ns", "ns");
    ("check.share", "ratio");
    ("nrl.inc.memo_hit_ratio", "ratio");
    (* Shard / Client *)
    ("shard.submit_ns", "ns");
    ("shard.turnaround_us", "us");
    ("shard.queue_len_mean", "count");
    ("service.retries", "count");
    ("service.unavailable", "count");
    ("service.rejected", "count");
    ("service.timeouts", "count");
    ("service.shed", "count");
    (* Robjects over the native runtime *)
    ("robjects.exec_ns", "ns");
    ("robjects.recover_ns", "ns");
    ("robjects.share_of_p50", "ratio");
    (* Recovery *)
    ("service.crashes", "count");
    ("service.recovery_p50_us", "us");
    ("service.recovery_p99_us", "us");
    ("service.recovery_retries", "count");
    (* GC *)
    ("gc.minor_per_kop", "count");
    ("gc.minor_words_per_op", "words");
    (* the traced pass against the untraced one *)
    ("trace.slowdown", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Output *)

let values : (string, float) Hashtbl.t = Hashtbl.create 64

(* the registry the traced passes count into; written out with the spans *)
let traced_reg = Obs.Metrics.create ()
let set name v = Hashtbl.replace values name v
let errors = ref []
let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

let json_string s = "\"" ^ Machine.Checkpoint.json_escape s ^ "\""

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. fi n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [Latency.quantile] reports the upper edge of the bucket holding the
   quantile (16 buckets per octave).  Interpolating linearly between the
   bucket's first and last rank makes the estimate move with the data
   instead of in ~6% steps. *)
let lat_quantile h q =
  let n = Latency.count h in
  if n = 0 then 0.0
  else begin
    let at r = Latency.quantile h ((fi r -. 0.5) /. fi n) in
    let r = max 1 (min n (int_of_float (Float.ceil (q *. fi n)))) in
    let u = at r in
    (* smallest rank in [lo, hi] whose bucket edge is [u]; [at] is monotone *)
    let rec first lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if at mid >= u then first lo mid else first (mid + 1) hi
    in
    let rec last lo hi = if lo >= hi then lo else
        let mid = (lo + hi + 1) / 2 in
        if at mid <= u then last mid hi else last lo (mid - 1)
    in
    let r_lo = first 1 r and r_hi = last r n in
    if r_lo = 1 then fi u
    else
      let l = fi (at (r_lo - 1)) in
      l +. ((fi u -. l) *. (fi (r - r_lo) +. 0.5) /. fi (r_hi - r_lo + 1))
  end

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> fi kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  let v = scan () in
  close_in ic;
  v

(* Set-up is short, so it is timed in batches long enough for the
   clock.  Batches are spread over the whole run, between the measured
   passes, so the reported median sees the same host conditions as the
   other metrics; [sample ()] times three batches. *)
type setup_sampler = { sample : unit -> unit; result : unit -> float }

let setup_sampler f =
  let rec calibrate k =
    let t0 = now_ns () in
    for _ = 1 to k do f () done;
    if now_ns () - t0 >= 2_000_000 || k >= 1 lsl 20 then k else calibrate (2 * k)
  in
  let k = calibrate 1 in
  let samples = ref [] in
  let sample () =
    for _ = 1 to 3 do
      let t0 = now_ns () in
      for _ = 1 to k do f () done;
      samples := (secs (now_ns () - t0) /. fi k) :: !samples
    done
  in
  { sample; result = (fun () -> median !samples) }

(* ------------------------------------------------------------------ *)
(* Spans, kept in memory and written out at the end.  Each domain
   records into its own buffer (so traced callbacks running on several
   domains share nothing); every call is counted and timed, and one call
   in [keep_every] per layer is kept as a span record. *)

module Spans = struct
  let names =
    [| "search"; "check.step"; "check.terminal"; "probe"; "fingerprint.build";
       "fingerprint.canonical"; "store.add"; "sim.step"; "window"; "session";
       "shard.submit"; "shard.turnaround"; "robjects.exec"; "robjects.recover"; "request" |]

  let search = 0 and check_step = 1 and check_terminal = 2 and probe = 3
  and fp_build = 4 and fp_canonical = 5 and store_add = 6 and sim_step = 7
  and window = 8 and session = 9 and submit = 10 and turnaround = 11
  and exec = 12 and recover = 13 and request = 14

  let keep_every = 64
  let cap = 2_048 (* kept spans per layer and domain *)
  let fields = 6 (* id, layer, parent, domain, start, end *)

  type buf = {
    counts : int array;
    totals : int array;
    kept : int array array;  (** per layer, [cap * fields] ints *)
    nkept : int array;
    dom : int;
  }

  let all = ref []
  let all_mutex = Mutex.create ()
  let next_id = Atomic.make 1

  let key =
    Domain.DLS.new_key (fun () ->
        let layers = Array.length names in
        let b =
          {
            counts = Array.make layers 0;
            totals = Array.make layers 0;
            kept = Array.init layers (fun _ -> Array.make (cap * fields) 0);
            nkept = Array.make layers 0;
            dom = (Domain.self () :> int);
          }
        in
        Mutex.protect all_mutex (fun () -> all := b :: !all);
        b)

  (* a fresh span id, for a parent whose children are recorded first *)
  let reserve () = Atomic.fetch_and_add next_id 1

  (* Count and time one call; keep it as a span record when [keep] says
     so (default: one call in [keep_every]).  [id] names the span when
     the caller reserved one for its children. *)
  let record ?id ?keep layer ~parent t0 t1 =
    let b = Domain.DLS.get key in
    let c = b.counts.(layer) in
    b.counts.(layer) <- c + 1;
    b.totals.(layer) <- b.totals.(layer) + (t1 - t0);
    let keep = match keep with Some k -> k | None -> c mod keep_every = 0 in
    let k = b.nkept.(layer) in
    if keep && k < cap then begin
      let row = b.kept.(layer) and o = k * fields in
      row.(o) <- (match id with Some id -> id | None -> reserve ());
      row.(o + 1) <- layer;
      row.(o + 2) <- parent;
      row.(o + 3) <- b.dom;
      row.(o + 4) <- t0;
      row.(o + 5) <- t1;
      b.nkept.(layer) <- k + 1
    end

  let sum f = List.fold_left (fun acc b -> acc + f b) 0 !all
  let count layer = sum (fun b -> b.counts.(layer))
  let total layer = sum (fun b -> b.totals.(layer))

  (* mean duration, less the cost of the two clock reads *)
  let mean_ns ~clock layer =
    let n = count layer in
    if n = 0 then 0.0 else Float.max 0.0 ((fi (total layer) /. fi n) -. clock)

  (* the kept spans, oldest first, as an nrl-trace/1 stream (the format
     of [nrlsim --trace]), followed by the traced registry's metrics *)
  let write path reg =
    let rows = ref [] in
    List.iter
      (fun b ->
        Array.iteri
          (fun layer row ->
            for i = 0 to b.nkept.(layer) - 1 do
              rows := Array.sub row (i * fields) fields :: !rows
            done)
          b.kept)
      !all;
    let rows = List.sort (fun a b -> compare (a.(4), a.(0)) (b.(4), b.(0))) !rows in
    let tr = Obs.Trace.create ~path in
    List.iter
      (fun r ->
        Obs.Trace.span tr ~name:names.(r.(1)) ~start_ns:r.(4) ~dur_ns:(r.(5) - r.(4))
          [ ("id", Obs.Trace.Int r.(0)); ("parent", Obs.Trace.Int r.(2));
            ("domain", Obs.Trace.Int r.(3)) ])
      rows;
    Obs.Trace.metrics tr reg;
    Obs.Trace.close tr;
    List.length rows
end

(* cost of an empty span: two back-to-back clock reads *)
let clock_cost () =
  median
    (List.init 2001 (fun _ ->
         let t0 = now_ns () in
         let t1 = now_ns () in
         fi (t1 - t0)))

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, g1.Gc.minor_collections - g0.Gc.minor_collections, g1.Gc.minor_words -. g0.Gc.minor_words)

let set_gc ~ops (minors, words) =
  set "gc.minor_per_kop" (ratio (fi minors) (fi ops /. 1000.0));
  set "gc.minor_words_per_op" (ratio words (fi ops))

(* ------------------------------------------------------------------ *)
(* Exploration workloads *)

type pin = { p_nodes : int; p_terminals : int; p_dup : int }

type ex = {
  build : unit -> Sim.t;
  cfg : Explore.config;
  jobs : int;
  dedup : bool;
  pin : pin;
}

(* T8's symmetric read/write scenario: every process runs the same
   script on one recoverable register *)
let rw_symmetric ~nprocs () =
  let sim = Sim.create ~nprocs () in
  let inst = Objects.Rw_obj.make sim ~name:"R" in
  for p = 0 to nprocs - 1 do
    Sim.set_script sim p
      [
        (inst, "WRITE", Sim.Args [| Workload.Opgen.tagged p 0 |]);
        (inst, "READ", Sim.Args [||]);
      ]
  done;
  sim

let scenario ?persist (s : Workload.Trial.scenario) () =
  let sim = Sim.create ?persist ~nprocs:s.Workload.Trial.nprocs () in
  s.Workload.Trial.build sim;
  sim

let explore_spec ~smoke name =
  let base = Explore.default_config in
  match name with
  | "explore-sym" ->
    let nprocs = if smoke then 2 else 3 in
    Some
      {
        build = rw_symmetric ~nprocs;
        cfg =
          {
            base with
            max_steps = 400;
            max_crashes = (if smoke then 1 else 2);
            crash_procs = List.init nprocs Fun.id;
          };
        jobs = 1;
        dedup = true;
        pin =
          (if smoke then { p_nodes = 1_038; p_terminals = 26; p_dup = 441 }
           else { p_nodes = 145_552; p_terminals = 1_348; p_dup = 113_488 });
      }
  | "explore-persist" ->
    let nprocs = if smoke then 2 else 3 in
    Some
      {
        build =
          scenario ~persist:Nvm.Memory.Explicit (Workload.Scenarios.register ~nprocs ~ops:1 ());
        cfg = { base with max_steps = 100; max_crashes = 1; crash_procs = [ 0 ] };
        jobs = 1;
        dedup = true;
        pin =
          (if smoke then { p_nodes = 19_244; p_terminals = 329; p_dup = 9_983 }
           else { p_nodes = 314_035; p_terminals = 2_729; p_dup = 256_373 });
      }
  | "explore-exact" ->
    let nprocs = if smoke then 2 else 3 in
    Some
      {
        build = scenario (Workload.Scenarios.cas ~nprocs ~ops:1 ());
        cfg =
          { base with max_steps = 100; max_crashes = (if smoke then 1 else 2); crash_procs = [ 0 ] };
        jobs = 2;
        dedup = false;
        pin =
          (if smoke then { p_nodes = 2_877; p_terminals = 255; p_dup = 0 }
           else { p_nodes = 3_541_064; p_terminals = 266_838; p_dup = 0 });
      }
  | _ -> None

(* scenario build plus, under dedup, symmetry detection *)
let setup ex =
  let sim = ex.build () in
  if ex.dedup then ignore (Explore.symmetry_group ex.cfg sim);
  sim

let search ?obs ?(wrap = Fun.id) ex sim =
  Explore.find_violation ~cfg:ex.cfg ~jobs:ex.jobs ~dedup:ex.dedup ?obs
    ~check_mode:(`Incremental (wrap (Workload.Check.nrl_incremental ())))
    ~check:Workload.Check.nrl_violation sim

(* returns whether the search met every check *)
let check_search ex ~what (viol, (st : Explore.stats)) =
  let before = List.length !errors in
  (match viol with
  | Some (_, reason) -> fail "%s: violation reported: %s" what reason
  | None -> ());
  if st.Explore.truncated <> 0 then fail "%s: %d truncated branches" what st.Explore.truncated;
  let pinned name got want =
    if got <> want then fail "%s: %s = %d, pinned %d" what name got want
  in
  pinned "nodes" st.Explore.nodes ex.pin.p_nodes;
  pinned "terminals" st.Explore.terminals ex.pin.p_terminals;
  pinned "dup" st.Explore.dup ex.pin.p_dup;
  List.length !errors = before

let timed_search ?obs ?wrap ex =
  let sim = setup ex in
  Gc.full_major ();
  let t0 = now_ns () in
  let r = search ?obs ?wrap ex sim in
  (r, now_ns () - t0)

(* Searches repeat until the next one would end after [seconds]; the
   first search pays the heap's growth like a fresh process would, and
   the median keeps it from dominating. *)
let explore_untraced ex ~seconds =
  let setup_s = setup_sampler (fun () -> ignore (setup ex)) in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let times = ref [] and ok = ref 0 and bad = ref 0 in
  while !times = [] || now_ns () + int_of_float (median !times *. 1e9) <= deadline do
    setup_s.sample ();
    let r, dt = timed_search ex in
    if check_search ex ~what:"search" r then incr ok else incr bad;
    times := secs dt :: !times
  done;
  let n = List.length !times in
  let v50 = median !times and tail = percentile !times 0.75 in
  Printf.printf "  verdict_s %.6f s (median of %d searches; upper quartile %.6f s)\n" v50 n tail;
  Printf.printf "  searches (s): %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !times));
  set "setup_s" (setup_s.result ());
  set "latency_p50_us" (v50 *. 1e6);
  set "latency_tail_us" (tail *. 1e6);
  set "throughput_ok_s" (fi !ok /. List.fold_left ( +. ) 0.0 !times);
  (n, !bad)

(* time [step] and [terminal] of the path checker the search runs *)
let wrap_checker ~parent (Explore.Path { init; step; terminal }) =
  Explore.Path
    {
      init;
      step =
        (fun st sim ->
          let t0 = now_ns () in
          let st = step st sim in
          Spans.record Spans.check_step ~parent t0 (now_ns ());
          st);
      terminal =
        (fun st sim ->
          let t0 = now_ns () in
          let v = terminal st sim in
          Spans.record Spans.check_terminal ~parent t0 (now_ns ());
          v);
    }

let first_enabled sim =
  let n = Sim.nprocs sim in
  let rec go p = if p >= n then None else if Sim.enabled sim p then Some p else go (p + 1) in
  go 0

(* The probe pass: a second search with the same settings whose
   [on_step] hook times the fingerprint pipeline (build, canonicalise,
   insert into a private store) on every configuration the engine
   probes, and one machine step (mark, step, undo) on every 16th. *)
let probe_pass ex ~parent =
  let sim0 = setup ex in
  let group = if ex.dedup then Explore.symmetry_group ex.cfg sim0 else None in
  let store = Fp.Store.create () in
  let calls = Atomic.make 0 in
  let on_step sim =
    let c = Atomic.fetch_and_add calls 1 in
    if ex.dedup then begin
      let crashes = ref 0 in
      for p = 0 to Sim.nprocs sim - 1 do crashes := !crashes + Sim.crash_count sim p done;
      let t0 = now_ns () in
      let fp = Fp.of_sim ~extra:!crashes sim in
      let t1 = now_ns () in
      Spans.record Spans.fp_build ~parent t0 t1;
      let fp =
        match group with
        | Some g ->
          let fp = Fp.Symmetry.canonical g fp in
          Spans.record Spans.fp_canonical ~parent t1 (now_ns ());
          fp
        | None -> fp
      in
      let t2 = now_ns () in
      ignore (Fp.Store.add store fp);
      Spans.record Spans.store_add ~parent t2 (now_ns ())
    end;
    if c land 15 = 0 then
      match first_enabled sim with
      | Some p ->
        let t0 = now_ns () in
        let m = Sim.mark sim in
        Sim.step sim p;
        Sim.undo_to sim m;
        Spans.record Spans.sim_step ~parent t0 (now_ns ())
      | None -> ()
  in
  let st =
    Explore.dfs ~cfg:ex.cfg ~jobs:ex.jobs ~dedup:ex.dedup ~on_step
      ~on_terminal:(fun _ -> ())
      sim0
  in
  let ok = check_search ex ~what:"probe pass" (None, st) in
  let bytes_per_state =
    let n = Fp.Store.cardinal store in
    if n = 0 then 0.0 else fi (Obj.reachable_words (Obj.repr store) * (Sys.word_size / 8)) /. fi n
  in
  (ok, Fp.Store.cardinal store, bytes_per_state)

let explore_traced ex =
  let clock = clock_cost () in
  (* the untraced base, after a warm-up search that grows the heap, so
     base and traced search start from the same state *)
  let ok_warm = check_search ex ~what:"warm-up" (fst (timed_search ex)) in
  let (r, base_ns), minors, words = gc_delta (fun () -> timed_search ex) in
  let ok_base = check_search ex ~what:"untraced base" r in
  (* the traced search *)
  let reg = traced_reg in
  let root = Spans.reserve () in
  let t_start = now_ns () in
  let r, traced_ns = timed_search ~obs:reg ~wrap:(wrap_checker ~parent:root) ex in
  Spans.record ~id:root ~keep:true Spans.search ~parent:0 t_start (now_ns ());
  let ok_traced = check_search ex ~what:"traced search" r in
  (* the probe pass *)
  let proot = Spans.reserve () in
  let p0 = now_ns () in
  let ok_probe, states, bytes_per_state = probe_pass ex ~parent:proot in
  Spans.record ~id:proot ~keep:true Spans.probe ~parent:0 p0 (now_ns ());
  let _, (st : Explore.stats) = r in
  let c name = match Obs.Metrics.view reg name with Some (Obs.Metrics.Counter n) -> n | _ -> 0 in
  let t name =
    match Obs.Metrics.view reg name with Some (Obs.Metrics.Timer { ns; _ }) -> ns | _ -> 0
  in
  let traced = fi traced_ns in
  let worker_time = fi ex.jobs *. traced in
  let nodes = st.Explore.nodes and dup = st.Explore.dup in
  set "explore.nodes" (fi nodes);
  set "explore.terminals" (fi st.Explore.terminals);
  set "explore.dup" (fi dup);
  set "explore.nodes_per_s" (fi nodes /. secs base_ns);
  set "explore.ws.steals" (fi (c Names.explore_ws_steals));
  (* the phase timers sum over workers and the total is wall time, so
     shares are taken of the workers' time: jobs x total *)
  let total = ex.jobs * t Names.explore_time_total in
  let step_t = t Names.explore_time_step
  and check_t = t Names.explore_time_check
  and dedup_t = t Names.explore_time_dedup
  and idle_t = t Names.explore_time_idle in
  set "engine.other_s" (secs (total - step_t - check_t - dedup_t - idle_t));
  set "explore.time.idle_s" (secs idle_t);
  let build_ns = Spans.mean_ns ~clock Spans.fp_build
  and canon_ns = Spans.mean_ns ~clock Spans.fp_canonical
  and add_ns = Spans.mean_ns ~clock Spans.store_add in
  set "fingerprint.build_ns" build_ns;
  set "fingerprint.canonical_ns" canon_ns;
  set "store.add_ns" add_ns;
  (* the engine probes every node it reaches, pruned or not *)
  let probes = if ex.dedup then nodes + dup else 0 in
  set "fingerprint.share" (fi probes *. (build_ns +. canon_ns +. add_ns) /. worker_time);
  set "dedup.share" (ratio (fi dedup_t) (fi total));
  set "dedup.hit_ratio" (ratio (fi dup) (fi probes));
  set "store.states" (fi states);
  set "store.bytes_per_state" bytes_per_state;
  set "sim.steps" (fi (c Names.sim_steps));
  set "sim.step_ns" (Spans.mean_ns ~clock Spans.sim_step);
  set "step.share" (ratio (fi step_t) (fi total));
  set "trail.undos" (fi (c Names.trail_undos));
  (match Obs.Metrics.view reg Names.trail_undo_depth with
  | Some (Obs.Metrics.Histogram { count; sum; _ }) -> set "trail.undo_depth_mean" (ratio (fi sum) (fi count))
  | _ -> ());
  set "sim.flushes" (fi (c Names.sim_flushes));
  set "sim.fences" (fi (c Names.sim_fences));
  set "flushes_per_node" (ratio (fi (c Names.sim_flushes)) (fi nodes));
  set "check.step_ns" (Spans.mean_ns ~clock Spans.check_step);
  set "check.terminal_ns" (Spans.mean_ns ~clock Spans.check_terminal);
  set "check.share"
    (fi (Spans.total Spans.check_step + Spans.total Spans.check_terminal) /. worker_time);
  let hits = c Names.nrl_inc_memo_hits and misses = c Names.nrl_inc_memo_misses in
  set "nrl.inc.memo_hit_ratio" (ratio (fi hits) (fi (hits + misses)));
  set_gc ~ops:nodes (minors, words);
  set "trace.slowdown" (traced /. fi base_ns);
  Printf.printf "  trace overhead: traced verdict_s %.6f s over untraced verdict_s %.6f s = %.3fx\n"
    (secs traced_ns) (secs base_ns) (traced /. fi base_ns);
  Printf.printf
    "  fingerprint probes: %d x (%.0f + %.0f + %.0f) ns = %.1f%% of traced search time \
     (engine dedup timer: %.1f%% of explore.time.total)\n"
    probes build_ns canon_ns add_ns
    (100.0 *. fi probes *. (build_ns +. canon_ns +. add_ns) /. worker_time)
    (100.0 *. ratio (fi dedup_t) (fi total));
  let checks = [ ok_warm; ok_base; ok_traced; ok_probe ] in
  (List.length checks, List.length (List.filter not checks))

(* ------------------------------------------------------------------ *)
(* The service workload *)

let sessions = 16

let service_cfg ~seed ~duration =
  {
    Engine.default with
    shards = 1;
    sessions;
    client_domains = 1;
    keys = 250;
    skew = 0.99;
    duration;
    mode = Service.Adversary.Poisson;
    crash_interval = 0.1;
    deadline_ms = 50.0;
    recrash_prob = 0.25;
    seed;
  }

(* one seed per traffic window, all drawn from the workload seed *)
let window_seed seed w = Hashtbl.hash (seed, w, "service-poisson") + 1

let shard_config (cfg : Engine.config) =
  {
    Shard.queue_bound = cfg.Engine.queue_bound;
    shed_fraction = cfg.Engine.shed_fraction;
    watchdog = Torture.default_watchdog;
    recrash_prob = cfg.Engine.recrash_prob;
  }

(* what [Engine.run] builds before traffic starts: the shard with its
   namespace and the client sessions' Zipf table *)
let service_setup cfg () =
  let shard_cfg = shard_config cfg in
  let shards = [| Shard.create ~sid:0 ~keys:cfg.Engine.keys ~seed:cfg.Engine.seed shard_cfg |] in
  ignore
    (Client.create
       {
         Client.sessions = cfg.Engine.sessions;
         session0 = 0;
         total_keys = cfg.Engine.keys;
         skew = cfg.Engine.skew;
         deadline_ns = int_of_float (cfg.Engine.deadline_ms *. 1e6);
         read_permille = Client.default_read_permille;
         backoff_base_ns = Client.default_backoff_base_ns;
         backoff_cap_ns = Client.default_backoff_cap_ns;
         seed = cfg.Engine.seed;
       }
       ~shards ~stop:(Atomic.make false))

(* Logical requests not ended by the window: each closed-loop session
   has at most one outstanding when the clients stop. *)
let unanswered (r : Engine.result) =
  r.Engine.r_requests - r.Engine.r_ok - r.Engine.r_shed - r.Engine.r_failures

let check_window ~what (r : Engine.result) =
  if r.Engine.r_violations <> [] then
    fail "%s: %d conservation violations" what (List.length r.Engine.r_violations);
  if r.Engine.r_crashes <> r.Engine.r_schedule_len || r.Engine.r_recoveries <> r.Engine.r_schedule_len
  then
    fail "%s: crashes %d, recoveries %d, schedule %d" what r.Engine.r_crashes r.Engine.r_recoveries
      r.Engine.r_schedule_len;
  if r.Engine.r_ok = 0 then fail "%s: no ok responses" what;
  let u = unanswered r in
  if u < 0 || u > sessions then fail "%s: %d requests unanswered at teardown" what u

(* logical requests that ended (ok or not), and those that ended not ok *)
let ended (r : Engine.result) = r.Engine.r_ok + r.Engine.r_shed + r.Engine.r_failures
let ended_bad (r : Engine.result) = r.Engine.r_shed + r.Engine.r_failures

(* traffic windows: long enough for ~10 kills each, short enough that a
   run holds many and reports their median *)
let window_len = 1.25

let service_untraced ~smoke ~seed ~seconds =
  let setup_s = setup_sampler (service_setup (service_cfg ~seed ~duration:1.0)) in
  let nwin = if smoke then 1 else max 1 (int_of_float (seconds /. window_len)) in
  let duration = if smoke then 0.3 else seconds /. fi nwin in
  let thr = ref [] and p50 = ref [] and p99 = ref [] in
  let attempted = ref 0 and failed = ref 0 and samples = ref 0 in
  for w = 1 to nwin do
    setup_s.sample ();
    let r = Engine.run (service_cfg ~seed:(window_seed seed w) ~duration) in
    check_window ~what:(Printf.sprintf "window %d" w) r;
    attempted := !attempted + ended r;
    failed := !failed + ended_bad r;
    samples := !samples + Latency.count r.Engine.r_lat;
    thr := r.Engine.r_throughput :: !thr;
    p50 := (lat_quantile r.Engine.r_lat 0.50 /. 1e3) :: !p50;
    p99 := (lat_quantile r.Engine.r_lat 0.99 /. 1e3) :: !p99
  done;
  Printf.printf
    "  %d windows of %.2f s, %d latency samples; p50 %.3f us and p99 %.3f us are medians \
     over windows; failed_frac %.6g (%d of %d ended requests)\n"
    nwin duration !samples (median !p50) (median !p99)
    (ratio (fi !failed) (fi !attempted)) !failed !attempted;
  Printf.printf "  windows (ok/s): %s\n" (String.concat " " (List.rev_map (Printf.sprintf "%.0f") !thr));
  set "setup_s" (setup_s.result ());
  set "throughput_ok_s" (median !thr);
  set "latency_p50_us" (median !p50);
  set "latency_tail_us" (median !p99);
  (!attempted, !failed)

(* the op mix of [Client]: a read with [read_permille], else the key's
   kind of update *)
let draw_op objs rng key =
  if Torture.rng_int rng 1_000 < Client.default_read_permille then Robjects.Read
  else
    match Robjects.kind_of_key objs key with
    | Robjects.Counter | Robjects.Cas -> Robjects.Update 0
    | Robjects.Faa -> Robjects.Update (1 + Torture.rng_int rng 8)
    | Robjects.Max -> Robjects.Update (1 + Torture.rng_int rng 1_000_000)
    | Robjects.Hist -> Robjects.Update (Torture.rng_int rng 1_024)

(* Robjects on a private namespace: [exec] without crashes, then
   [recover] after a crash at a drawn crash point, as the shard does;
   the namespace must end equal to its conservation ledger *)
let robjects_micro ~smoke ~seed ~parent =
  let keys = 250 in
  let objs = Robjects.create ~keys in
  let pending = Robjects.pending_create () in
  let expected = Array.make keys 0 in
  let cp = Crash.create () in
  let rng = Torture.rng_create (seed lxor 0x5eed) in
  let zipf = Zipf.create ~n:keys ~skew:0.99 in
  let n = if smoke then 2_000 else 200_000 in
  for _ = 1 to n do
    let key = Zipf.draw zipf rng in
    Robjects.begin_op pending ~key (draw_op objs rng key);
    let t0 = now_ns () in
    ignore (Robjects.exec objs ~cp pending);
    Spans.record Spans.exec ~parent t0 (now_ns ());
    Robjects.apply_expected expected pending;
    Robjects.end_op pending
  done;
  for _ = 1 to n / 4 do
    let key = Zipf.draw zipf rng in
    Robjects.begin_op pending ~key (draw_op objs rng key);
    Crash.arm cp (Torture.rng_int rng 4);
    (match Robjects.exec objs ~cp pending with
    | _ -> Crash.disarm cp
    | exception Crash.Crashed ->
      Crash.disarm cp;
      let t0 = now_ns () in
      ignore (Robjects.recover objs ~cp pending);
      Spans.record Spans.recover ~parent t0 (now_ns ()));
    Robjects.apply_expected expected pending;
    Robjects.end_op pending
  done;
  for k = 0 to keys - 1 do
    if Robjects.final_value objs k <> expected.(k) then
      fail "robjects: key %d holds %d, ledger %d" k (Robjects.final_value objs k) expected.(k)
  done

(* The benchmark-side session: the client domain is replaced by a loop
   on the main domain that keeps [sessions] requests outstanding against
   one shard with the client's op mix and key skew, timing each
   [Shard.try_push] (submit) and each accepted push until its answer is
   seen (turnaround).  Busy domains stay at two: this loop and the
   worker.  One request in [Spans.keep_every] is kept as a [request]
   span whose id is the parent of its submit and turnaround spans. *)
let session_probe (cfg : Engine.config) ~parent =
  let sh = Shard.create ~sid:0 ~keys:cfg.Engine.keys ~seed:cfg.Engine.seed (shard_config cfg) in
  let worker = Domain.spawn (fun () -> Shard.run sh) in
  let rng = Torture.rng_create (cfg.Engine.seed lxor 0x7ace) in
  let zipf = Zipf.create ~n:cfg.Engine.keys ~skew:cfg.Engine.skew in
  let inflight = Array.make sessions None in
  let started = Array.make sessions 0 and accepted = Array.make sessions 0 in
  let rid = Array.make sessions 0 (* kept request's span id, or 0 *) in
  let issued = ref 0 in
  let deadline = now_ns () + int_of_float (cfg.Engine.duration *. 1e9) in
  while now_ns () < deadline do
    for s = 0 to sessions - 1 do
      match inflight.(s) with
      | None ->
        let key = Zipf.draw zipf rng in
        let rq = Shard.request ~key (draw_op sh.Shard.objs rng key) in
        let id = if !issued mod Spans.keep_every = 0 then Spans.reserve () else 0 in
        incr issued;
        let t0 = now_ns () in
        let res = Shard.try_push sh rq in
        let t1 = now_ns () in
        Spans.record ~keep:(id <> 0) Spans.submit ~parent:id t0 t1;
        if res = `Ok then begin
          inflight.(s) <- Some rq;
          started.(s) <- t0;
          accepted.(s) <- t1;
          rid.(s) <- id
        end
        else if id <> 0 then Spans.record ~id ~keep:true Spans.request ~parent t0 t1
      | Some rq ->
        if Atomic.get rq.Shard.rq_status <> Shard.st_pending then begin
          let t2 = now_ns () and id = rid.(s) in
          Spans.record ~keep:(id <> 0) Spans.turnaround ~parent:id accepted.(s) t2;
          if id <> 0 then Spans.record ~id ~keep:true Spans.request ~parent started.(s) t2;
          inflight.(s) <- None
        end
    done;
    Domain.cpu_relax ()
  done;
  Atomic.set sh.Shard.stop true;
  Domain.join worker;
  for k = 0 to Robjects.keys sh.Shard.objs - 1 do
    if Robjects.final_value sh.Shard.objs k <> sh.Shard.expected.(k) then
      fail "session probe: key %d holds %d, ledger %d" k (Robjects.final_value sh.Shard.objs k)
        sh.Shard.expected.(k)
  done

(* Untraced and traced windows alternate, four pairs, so one disturbed
   window cannot make the overhead figure *)
let service_traced ~smoke ~seed =
  let clock = clock_cost () in
  let duration = if smoke then 0.3 else window_len in
  let pairs = if smoke then 1 else 4 in
  let q_sum = ref 0 and q_n = ref 0 in
  let on_tick _ shards =
    Array.iter
      (fun sh ->
        q_sum := !q_sum + Shard.queue_length sh;
        incr q_n)
      shards
  in
  let base = ref [] and traced = ref [] and minors = ref 0 and words = ref 0.0 in
  let recovery = Latency.create () in
  for w = 1 to pairs do
    let cfg = service_cfg ~seed:(window_seed seed w) ~duration in
    (* the untraced base *)
    let r, m, wd = gc_delta (fun () -> Engine.run cfg) in
    check_window ~what:"untraced base" r;
    base := r :: !base;
    minors := !minors + m;
    words := !words +. wd;
    (* the traced window: a registry, and queue-length samples at every
       engine tick *)
    let root = Spans.reserve () in
    let t0 = now_ns () in
    let r = Engine.run ~obs:traced_reg ~on_tick cfg in
    Spans.record ~id:root ~keep:true Spans.window ~parent:0 t0 (now_ns ());
    check_window ~what:"traced window" r;
    Latency.merge ~into:recovery r.Engine.r_recovery;
    traced := r :: !traced
  done;
  let cfg = service_cfg ~seed:(window_seed seed 0) ~duration:(2.0 *. duration) in
  let sroot = Spans.reserve () in
  let t0 = now_ns () in
  session_probe cfg ~parent:sroot;
  Spans.record ~id:sroot ~keep:true Spans.session ~parent:0 t0 (now_ns ());
  let mroot = Spans.reserve () in
  let t0 = now_ns () in
  robjects_micro ~smoke ~seed ~parent:mroot;
  Spans.record ~id:mroot ~keep:true Spans.probe ~parent:0 t0 (now_ns ());
  let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let traced_sum f = fi (sum f !traced) in
  let med f rs = median (List.map f rs) in
  let base_thr = med (fun r -> r.Engine.r_throughput) !base
  and traced_thr = med (fun r -> r.Engine.r_throughput) !traced in
  let base_p50_ns = med (fun r -> lat_quantile r.Engine.r_lat 0.50) !base in
  set "shard.submit_ns" (Spans.mean_ns ~clock Spans.submit);
  set "shard.turnaround_us" (Spans.mean_ns ~clock Spans.turnaround /. 1e3);
  set "shard.queue_len_mean" (ratio (fi !q_sum) (fi !q_n));
  set "service.retries" (traced_sum (fun r -> r.Engine.r_retries));
  set "service.unavailable" (traced_sum (fun r -> r.Engine.r_unavailable));
  set "service.rejected" (traced_sum (fun r -> r.Engine.r_rejected));
  set "service.timeouts" (traced_sum (fun r -> r.Engine.r_timeouts));
  set "service.shed" (traced_sum (fun r -> r.Engine.r_shed));
  let exec_ns = Spans.mean_ns ~clock Spans.exec in
  set "robjects.exec_ns" exec_ns;
  set "robjects.recover_ns" (Spans.mean_ns ~clock Spans.recover);
  set "robjects.share_of_p50" (ratio exec_ns base_p50_ns);
  set "service.crashes" (traced_sum (fun r -> r.Engine.r_crashes));
  set "service.recovery_p50_us" (lat_quantile recovery 0.50 /. 1e3);
  set "service.recovery_p99_us" (lat_quantile recovery 0.99 /. 1e3);
  set "service.recovery_retries" (traced_sum (fun r -> r.Engine.r_recovery_retries));
  set_gc ~ops:(sum (fun r -> r.Engine.r_ok) !base) (!minors, !words);
  set "trace.slowdown" (ratio base_thr traced_thr);
  Printf.printf
    "  trace overhead: untraced throughput_ok_s %.1f over traced throughput_ok_s %.1f = %.3fx \
     (medians of %d windows each)\n"
    base_thr traced_thr (ratio base_thr traced_thr) pairs;
  Printf.printf
    "  robjects.exec_ns %.1f ns is %.4f%% of the untraced latency p50 (%.0f ns): a faster \
     native op cannot move this workload's end-to-end latency\n"
    exec_ns (100.0 *. ratio exec_ns base_p50_ns) base_p50_ns;
  let all = !base @ !traced in
  (sum ended all, sum ended_bad all)

(* ------------------------------------------------------------------ *)
(* Command line and output *)

let workloads = [ "explore-sym"; "explore-persist"; "explore-exact"; "service-poisson" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false and out = ref "" in
  let commit = ref "unknown" and nproc = ref 0 and profile = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--smoke", Arg.Set smoke, " tiny instances and a sub-second service window");
      ("--out", Arg.Set_string out, "DIR where a traced run writes its spans");
      ("--commit", Arg.Set_string commit, "SHA provenance: the source commit");
      ("--nproc", Arg.Set_int nproc, "N provenance: processors available");
      ("--profile", Arg.Set_string profile, "NAME provenance: dune build profile");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench [options]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: unknown workload " ^ json_string !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "bench: --trace takes 0 or 1";
    exit 2
  end;
  if not (!seconds > 0.0) then begin
    prerr_endline "bench: --seconds must be positive";
    exit 2
  end;
  Printf.printf
    "provenance {\"commit\":%s,\"ocaml\":%s,\"recommended_domain_count\":%d,\"nproc\":%d,\
     \"argv\":[%s],\"workload\":%s,\"seed\":%d,\"profile\":%s}\n%!"
    (json_string !commit) (json_string Sys.ocaml_version)
    (Domain.recommended_domain_count ()) !nproc
    (String.concat "," (List.map json_string (Array.to_list Sys.argv)))
    (json_string !workload) !seed (json_string !profile);
  Printf.printf "workload %s (%s run, %g s)\n%!" !workload
    (if !trace = 1 then "traced" else "untraced") !seconds;
  let attempted, failed =
    match explore_spec ~smoke:!smoke !workload with
    | Some ex ->
      if !trace = 1 then explore_traced ex
      else explore_untraced ex ~seconds:!seconds
    | None ->
      if !trace = 1 then service_traced ~smoke:!smoke ~seed:!seed
      else service_untraced ~smoke:!smoke ~seed:!seed ~seconds:!seconds
  in
  if !trace = 0 then set "peak_rss_mb" (peak_rss_mb ());
  if !trace = 1 && !out <> "" then begin
    let path = Filename.concat !out (!workload ^ "-trace.ndjson") in
    let n = Spans.write path traced_reg in
    Printf.printf "  %d spans written to %s\n" n path
  end;
  let group = if !trace = 1 then per_layer else end_to_end in
  List.iter
    (fun (name, unit_) ->
      Printf.printf "  %-28s %20.9g %s\n" name
        (Option.value ~default:0.0 (Hashtbl.find_opt values name))
        unit_)
    group;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) (List.sort_uniq compare !errors);
  let correct = !errors = [] in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed
    (String.concat ","
       (List.map
          (fun (name, unit_) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name)
              (json_float (Option.value ~default:0.0 (Hashtbl.find_opt values name)))
              (json_string unit_))
          group));
  exit (if correct then 0 else 1)
