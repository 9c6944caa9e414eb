(** Exhaustive bounded exploration of schedules.

    For small instances (a few processes, a few operations each, a
    bounded crash budget) the decision tree is small enough to enumerate
    completely — this is what lets the checkers examine {e every} history
    of a bounded instance, turning the paper's universally quantified
    correctness lemmas into machine-checked facts for those bounds.

    Two branching disciplines share one traversal core:

    - {e trail-based in-place backtracking} (the default): the search
      mutates a single machine, taking a {!Sim.mark} before each decision
      and {!Sim.undo_to}-ing it afterwards, so the per-branch cost is the
      few mutations of one step instead of a whole-machine deep copy; and
    - {e clone-per-branch} ([trail = false]): the historical engine,
      copying the machine at every branch point.  Kept as the baseline
      the benchmarks compare against, and because a clone-mode traversal
      hands [on_terminal] a machine that stays valid after the callback
      returns.

    Both visit the same nodes in the same order, so every statistic is
    identical across the two.

    The engine is also domain-parallel: with [jobs > 1] the shallowest
    part of the tree is first expanded breadth-first (in clone mode, so
    each pending subtree root owns an independent machine) until it holds
    enough tasks, which are then fanned out across OCaml 5 domains, each
    running the sequential search — trailed on its own machine — over its
    subtrees.  Statistics are summed at the join; a shared atomic flag
    stops every worker as soon as one finds a violation.  Every node is
    processed exactly once by the same code either way, so
    [terminals]/[truncated]/[nodes] are identical for every [jobs] value.

    Orthogonally, {e state deduplication} ([dedup]) prunes a branch when
    the machine configuration's {!Fingerprint} — extended with the crash
    budget already consumed on the current path, which determines how
    many crash decisions the future still offers — has been visited
    before: converging schedule prefixes are explored once.  Fingerprint
    equality (budget included) implies identical future subtrees, so the
    pruned subtree's behaviours are exactly the representative's — but
    the {e prefix} histories differ, so checks that depend on the full
    history (NRL does) are verified against one representative prefix
    per state.  Deduplicated search is therefore a fast
    under-approximation: any violation it reports is real, while a clean
    sweep certifies one representative history per reachable
    configuration rather than all of them.  See docs/model.md for the
    full soundness discussion. *)

type config = {
  max_steps : int;  (** depth bound per branch (guards busy-wait loops) *)
  max_crashes : int;  (** total crash budget across all processes *)
  crash_procs : int list;  (** processes allowed to crash *)
  crash_mid_op_only : bool;
      (** restrict crash steps to processes with a pending operation *)
  immediate_recovery : bool;
      (** if set, the only decision after a crash of [p] is [Drecover p]
          (smaller trees); otherwise recovery interleaves adversarially *)
  reduce_local : bool;
      (** partial-order reduction: fire local (non-shared-access)
          transitions eagerly, responses first.  Sound and complete for
          violation search — see {!Sim.next_is_local} *)
}

let default_config =
  {
    max_steps = 200;
    max_crashes = 1;
    crash_procs = [];
    crash_mid_op_only = true;
    immediate_recovery = false;
    reduce_local = true;
  }

type stats = {
  mutable terminals : int;  (** complete executions reached *)
  mutable truncated : int;  (** branches cut by the depth bound *)
  mutable nodes : int;
  mutable dup : int;  (** branches pruned by state deduplication *)
}

let zero_stats () = { terminals = 0; truncated = 0; nodes = 0; dup = 0 }

let add_stats into s =
  into.terminals <- into.terminals + s.terminals;
  into.truncated <- into.truncated + s.truncated;
  into.nodes <- into.nodes + s.nodes;
  into.dup <- into.dup + s.dup

let auto_jobs () = max 1 (Domain.recommended_domain_count ())

let decisions cfg ~sym ~crashes sim =
  let n = Sim.nprocs sim in
  let all = List.init n Fun.id in
  let crashed = List.filter (fun p -> Sim.can_recover sim p) all in
  if cfg.immediate_recovery && crashed <> [] then
    List.map (fun p -> Schedule.Drecover p) crashed
  else begin
    let crashes_d =
      if crashes >= cfg.max_crashes then []
      else if Sim.persist_mode sim = Nvm.Memory.Explicit then
        (* Explicit-persist mode: crashes are full-system (power failure).
           An individual process crash cannot lose cache contents — the
           shared volatile cache is hardware — so only the simultaneous
           failure of every process exercises persistence nondeterminism.
           One decision per subset of the currently-dirty cells (bit i =
           the i-th dirty cell in address order reaches the medium); mask
           0 — lose every unflushed write — comes first, so violation
           searches hit the adversarial case early. *)
        if
          cfg.crash_procs <> []
          && List.exists
               (fun p -> Sim.can_crash ~mid_op_only:cfg.crash_mid_op_only sim p)
               cfg.crash_procs
        then
          let k = List.length (Nvm.Memory.pending (Sim.mem sim)) in
          List.init (1 lsl k) (fun m -> Schedule.Dcrash_sys m)
        else []
      else
        List.filter_map
          (fun p ->
            if Sim.can_crash ~mid_op_only:cfg.crash_mid_op_only sim p then
              Some (Schedule.Dcrash p)
            else None)
          cfg.crash_procs
    in
    let locals =
      if cfg.reduce_local then
        List.filter (fun p -> Sim.enabled sim p && Sim.next_is_local sim p) all
      else []
    in
    match locals with
    | _ :: _ ->
      (* fire one local transition deterministically (responses first);
         crash decisions are still offered so every crash position is
         reachable *)
      let cands =
        match List.filter (fun p -> Sim.next_is_ret sim p) locals with
        | _ :: _ as rets -> rets
        | [] -> locals
      in
      if not sym then Schedule.Dstep (List.hd cands) :: crashes_d
      else begin
        (* under symmetry reduction the choice must be equivariant:
           picking the lowest pid does not commute with pid
           permutations, so two isomorphic configurations could explore
           non-isomorphic subtrees and the quotient would miss states.
           Instead rank candidates by a pid-erased hash of their local
           state — invariant under every permutation — and branch on
           {e all} ties (a sound superset of any single equivariant
           pick). *)
        let scored = List.map (fun p -> (Fingerprint.erased_proc_hash sim p, p)) cands in
        let best = List.fold_left (fun a (h, _) -> min a h) max_int scored in
        List.filter_map
          (fun (h, p) -> if h = best then Some (Schedule.Dstep p) else None)
          scored
        @ crashes_d
      end
    | [] ->
      let steps =
        List.filter_map
          (fun p -> if Sim.enabled sim p then Some (Schedule.Dstep p) else None)
          all
      in
      let recoveries = List.map (fun p -> Schedule.Drecover p) crashed in
      steps @ recoveries @ crashes_d
  end

(* terminal: every process either completed its script or is down for
   good (a crash may be a process's last step, per Definition 3) *)
let terminal sim =
  Sim.all_done sim
  || (let n = Sim.nprocs sim in
      let rec ok p =
        p >= n
        || ((Sim.status sim p = Sim.Crashed || not (Sim.enabled sim p)) && ok (p + 1))
      in
      ok 0)

exception Found of Sim.t * string

exception Stopped
(* raised inside a worker when another worker has flipped the stop flag *)

(** A path checker: per-path state threaded down the DFS, updated after
    every applied decision and asked for a verdict at each terminal.  The
    state type is existential — the explorer only moves values of it
    around — which lets {!Checker}-level state live above this library in
    the dependency order (see [Workload.Check.nrl_incremental]). *)
type path_checker =
  | Path : {
      init : Sim.t -> 'st;
          (** state for the root configuration (folds any history the
              machine recorded during setup) *)
      step : 'st -> Sim.t -> 'st;
          (** consume the history suffix the last decision appended; must
              be pure in ['st] (the same state value is reused across
              sibling branches) and must not retain [Sim.t] *)
      terminal : 'st -> Sim.t -> string option;
          (** verdict for a complete execution, [Some reason] = violation *)
    }
      -> path_checker

type check_mode = [ `Terminal | `Incremental of path_checker ]

(** {1 Budgets}

    Resource bounds on a search.  Budgets make long-running verification
    degrade instead of dying: exceeding the visited-store cap drops the
    dedup store (a degradation — the search keeps going, unpruned) while
    exceeding the deadline or the node budget aborts with a structured
    partial verdict rather than an exception or an unbounded run. *)
type budget = {
  deadline_s : float option;  (** wall-clock bound, seconds from the start of the call *)
  max_nodes : int option;  (** bound on nodes processed (across all domains) *)
  max_visited : int option;
      (** cap on the dedup visited store, in fingerprints; past it, the
          store is dropped (degradation, not abort) *)
}

let no_budget = { deadline_s = None; max_nodes = None; max_visited = None }

type exhaust_reason = [ `Deadline | `Nodes | `Interrupted ]

let exhaust_reason_name = function
  | `Deadline -> "deadline"
  | `Nodes -> "max-nodes"
  | `Interrupted -> "interrupted"

(** A budget-exhausted partial verdict.  The coverage achieved is the
    [stats] value returned alongside: everything counted there was really
    explored and judged. *)
type exhausted = {
  ex_reason : exhaust_reason;
  ex_frontier : int;
      (** independent subtree tasks not yet completed (0 when the search
          was not partitioned) *)
  ex_degraded : string list;
      (** degradation steps taken before giving up, oldest first *)
}

(** Verdict of a budgeted, resumable search ({!sweep}). *)
type outcome =
  | Clean  (** every schedule within the bounds explored, no violation *)
  | Violation of Sim.t * string
  | Exhausted of exhausted

exception Out_of_budget of exhaust_reason
(* internal: unwinds workers when a budget trips; never escapes the
   public entry points *)

(* Budget enforcement state shared by every traversal of one search.
   The node count is a single atomic across domains, so [max_nodes] cuts
   at the same global count wherever the work landed; the deadline and
   the stop callback are polled every [poll_mask + 1] nodes. *)
type limits = {
  l_deadline_ns : int;  (** absolute Clock reading; [max_int] = none *)
  l_max_nodes : int;  (** [max_int] = none *)
  l_nodes : int Atomic.t;
  l_max_visited : int;  (** [max_int] = none *)
  l_dedup_on : bool Atomic.t;
  l_degraded : string list Atomic.t;
  l_should_stop : unit -> bool;
}

let poll_mask = 63

let limits_of ~budget ~should_stop =
  match (budget, should_stop) with
  | { deadline_s = None; max_nodes = None; max_visited = None }, None -> None
  | _ ->
    Some
      {
        l_deadline_ns =
          (match budget.deadline_s with
          | None -> max_int
          | Some s -> Obs.Clock.now_ns () + int_of_float (s *. 1e9));
        l_max_nodes = Option.value budget.max_nodes ~default:max_int;
        l_nodes = Atomic.make 0;
        l_max_visited = Option.value budget.max_visited ~default:max_int;
        l_dedup_on = Atomic.make true;
        l_degraded = Atomic.make [];
        l_should_stop = Option.value should_stop ~default:(fun () -> false);
      }

(* Per-processed-node budget check.  With dedup on, the visited store
   holds exactly one fingerprint per processed node, so the global node
   counter doubles as the store-size reading — no locked cardinality
   scans on the hot path. *)
let check_limits l =
  let n = Atomic.fetch_and_add l.l_nodes 1 + 1 in
  if n > l.l_max_nodes then raise (Out_of_budget `Nodes);
  if
    n > l.l_max_visited
    && Atomic.get l.l_dedup_on
    && Atomic.compare_and_set l.l_dedup_on true false
  then
    Atomic.set l.l_degraded
      (Atomic.get l.l_degraded @ [ "dedup-store-dropped:visited-cap" ]);
  if n land poll_mask = 0 then begin
    if Obs.Clock.now_ns () > l.l_deadline_ns then raise (Out_of_budget `Deadline);
    if l.l_should_stop () then raise (Out_of_budget `Interrupted)
  end

(* Pre-resolved handles for the explorer's per-phase timers.  Each
   traversal context owns its meters — the parallel engine gives every
   worker a private registry (merged at the join, in worker order), so
   timing the hot loop never touches cross-domain state. *)
type meters = {
  m_reg : Obs.Metrics.t;
  m_step : Obs.Metrics.timer;
  m_check : Obs.Metrics.timer;
  m_dedup : Obs.Metrics.timer;
  m_dedup_build : Obs.Metrics.timer;
  m_dedup_canonical : Obs.Metrics.timer;
  m_dedup_store : Obs.Metrics.timer;
}

let meters_of reg =
  {
    m_reg = reg;
    m_step = Obs.Metrics.timer reg Obs.Names.explore_time_step;
    m_check = Obs.Metrics.timer reg Obs.Names.explore_time_check;
    m_dedup = Obs.Metrics.timer reg Obs.Names.explore_time_dedup;
    m_dedup_build = Obs.Metrics.timer reg Obs.Names.explore_time_dedup_build;
    m_dedup_canonical = Obs.Metrics.timer reg Obs.Names.explore_time_dedup_canonical;
    m_dedup_store = Obs.Metrics.timer reg Obs.Names.explore_time_dedup_store;
  }

(* Timing helpers that vanish when unobserved: [now_if] reads the clock
   only when meters are attached, [lap] charges the elapsed time to the
   selected timer. *)
let now_if om = match om with Some _ -> Obs.Clock.now_ns () | None -> 0

let lap om sel t0 =
  match om with Some m -> Obs.Metrics.Timer.add (sel m) (Obs.Clock.now_ns () - t0) | None -> ()

(* Progress ticks are batched: each traversal bumps the shared atomic
   once per [tick_batch] of its own nodes, keeping the per-node cost at
   one private increment. *)
let tick_batch = 8192

(** A pending subtree: a machine owned by the task plus the depth, crash
    count and path-checker state at its root.  [t_path] is the decision
    path from the search root (newest first); it is threaded only by the
    frontier expansion of checkpointing searches and stays [[]]
    otherwise. *)
type 'st task = {
  t_sim : Sim.t;
  t_depth : int;
  t_crashes : int;
  t_state : 'st;
  t_path : Schedule.decision list;
}

(** Everything one traversal needs.  [frontier = Some (d, emit)] turns
    recursion at depth [>= d] into task emission — the frontier-expansion
    phase of the parallel engine processes nodes one BFS level at a time
    through the very same code path the workers later run, so every node
    is visited exactly once regardless of where the tree is split. *)
type 'st ctx = {
  cfg : config;
  stats : stats;
  stop : unit -> bool;
  seen : Fingerprint.Store.t option;
  trail : bool;  (** branch by mark/undo on one machine vs clone-per-branch *)
  step_state : 'st -> Sim.t -> 'st;
  on_terminal : 'st -> Sim.t -> unit;
  frontier : (int * ('st task -> unit)) option;
  om : meters option;  (** this traversal's private phase timers *)
  prog : Obs.Progress.t option;  (** shared across workers; tick-batched *)
  limits : limits option;  (** budget enforcement; [None] costs nothing *)
  sym : Fingerprint.Symmetry.group option;
      (** process-symmetry group: fingerprints are canonicalised under it
          before the visited-store probe, and local-step picks switch to
          the equivariant rule (see [decisions]) *)
  cur_dec : Schedule.decision option ref;
      (** the decision [branch] is currently under — written only while a
          frontier is active (the expanding worker is the only writer),
          read by the emit hook to reconstruct task paths *)
}

let rec go : 'st. 'st ctx -> Sim.t -> int -> int -> 'st -> unit =
 fun ctx sim depth crashes st ->
  if ctx.stop () then raise Stopped;
  match ctx.frontier with
  | Some (fd, emit) when depth >= fd ->
    emit { t_sim = sim; t_depth = depth; t_crashes = crashes; t_state = st; t_path = [] }
  | _ ->
    let fresh =
      match ctx.seen with
      | None -> true
      | Some store
        when match ctx.limits with
             | Some l -> Atomic.get l.l_dedup_on
             | None -> true ->
        (* without a group the key is encoded straight from the machine;
           under symmetry only the canonical arrangement of the draft is *)
        let t0 = now_if ctx.om in
        let key, t1, t2 =
          match ctx.sym with
          | Some g ->
            let d = Fingerprint.draft sim in
            let t1 = now_if ctx.om in
            let key =
              Fingerprint.Key.encode_draft ~extra:crashes (Fingerprint.Symmetry.arrange g d)
            in
            (key, t1, now_if ctx.om)
          | None ->
            let key = Fingerprint.Key.encode_sim ~extra:crashes sim in
            let t1 = now_if ctx.om in
            (key, t1, t1)
        in
        let r = Fingerprint.Store.add_key store key in
        (match ctx.om with
        | Some m ->
          let t3 = Obs.Clock.now_ns () in
          Obs.Metrics.Timer.add m.m_dedup_build (t1 - t0);
          Obs.Metrics.Timer.add m.m_dedup_canonical (t2 - t1);
          Obs.Metrics.Timer.add m.m_dedup_store (t3 - t2);
          Obs.Metrics.Timer.add m.m_dedup (t3 - t0)
        | None -> ());
        r
      | Some _ -> (* dedup store dropped by budget degradation *) true
    in
    if not fresh then
      (* an equivalent configuration (same remaining crash budget) was
         reached by another prefix: its futures have already been (or are
         being) explored *)
      ctx.stats.dup <- ctx.stats.dup + 1
    else begin
      let stats = ctx.stats in
      stats.nodes <- stats.nodes + 1;
      (match ctx.limits with Some l -> check_limits l | None -> ());
      (match ctx.prog with
      | Some p when stats.nodes land (tick_batch - 1) = 0 -> Obs.Progress.tick p ~nodes:tick_batch
      | _ -> ());
      if Sim.all_done sim then begin
        stats.terminals <- stats.terminals + 1;
        let t0 = now_if ctx.om in
        ctx.on_terminal st sim;
        lap ctx.om (fun m -> m.m_check) t0
      end
      else if terminal sim then begin
        (* some process is down with no one else runnable: this is a
           complete execution (check it), but recovery may still extend it *)
        stats.terminals <- stats.terminals + 1;
        let t0 = now_if ctx.om in
        ctx.on_terminal st sim;
        lap ctx.om (fun m -> m.m_check) t0;
        if depth < ctx.cfg.max_steps then
          List.iter
            (fun d -> branch ctx sim depth crashes st d)
            (decisions ctx.cfg ~sym:(ctx.sym <> None) ~crashes sim)
      end
      else if depth >= ctx.cfg.max_steps then stats.truncated <- stats.truncated + 1
      else begin
        let ds = decisions ctx.cfg ~sym:(ctx.sym <> None) ~crashes sim in
        match ds with
        | [] ->
          (* deadlock: crashed processes that may not recover, or empty
             scripts; count as truncated so callers notice *)
          stats.truncated <- stats.truncated + 1
        | _ ->
          List.iter
            (fun d ->
              let crashes' =
                match d with
                | Schedule.Dcrash _ | Schedule.Dcrash_sys _ -> crashes + 1
                | _ -> crashes
              in
              branch ctx sim depth crashes' st d)
            ds
      end
    end

(* One child edge: apply the decision, advance the path-checker state on
   the appended history suffix, recurse.  Trail mode reverts the shared
   machine afterwards; clone mode gives the child its own machine and
   leaves the parent untouched.  [crashes] is the child's crash count:
   callers charge crash decisions at ordinary interior nodes, while the
   terminal-but-extendable path deliberately passes its own count through
   unchanged (see [go]) to keep node accounting identical with the
   historical engine. *)
and branch : 'st. 'st ctx -> Sim.t -> int -> int -> 'st -> Schedule.decision -> unit =
 fun ctx sim depth crashes st d ->
  (* the [now_if]/[lap] pairs compile to nothing when unobserved; the
     recursive [go] call is never inside a timed interval *)
  (match ctx.frontier with
  | Some _ -> ctx.cur_dec := Some d (* expansion is single-domain; see [expand_frontier] *)
  | None -> ());
  if ctx.trail then begin
    let t0 = now_if ctx.om in
    let m = Sim.mark sim in
    Schedule.apply sim d;
    lap ctx.om (fun mt -> mt.m_step) t0;
    let t1 = now_if ctx.om in
    let st' = ctx.step_state st sim in
    lap ctx.om (fun mt -> mt.m_check) t1;
    go ctx sim (depth + 1) crashes st';
    let t2 = now_if ctx.om in
    Sim.undo_to sim m;
    lap ctx.om (fun mt -> mt.m_step) t2
  end
  else begin
    let t0 = now_if ctx.om in
    let s = Sim.clone sim in
    Schedule.apply s d;
    lap ctx.om (fun mt -> mt.m_step) t0;
    let t1 = now_if ctx.om in
    let st' = ctx.step_state st s in
    lap ctx.om (fun mt -> mt.m_check) t1;
    go ctx s (depth + 1) crashes st'
  end

let never_stop () = false

(* {1 The work-stealing parallel engine} *)

(** A pending subtree in the work-stealing pool, identified purely by
    its decision path from the search root (application order) and the
    crash budget consumed along it.  Carrying paths instead of machines
    is what lets a thief reconstitute the subtree root on its {e own}
    trailed machine — undo to the longest common prefix with its current
    position, replay the rest — and what lets checkpoints persist the
    exact pool contents (a path is exactly a {!Checkpoint.task}). *)
type ptask = { p_path : Schedule.decision list; p_crashes : int }

(* Growable circular deque.  Every operation runs under the owning
   worker's lock (steals are rare and the critical sections are a few
   loads), so the structure itself needs no atomics.  The owner pushes
   and pops at the back — LIFO, so it descends depth-first and its trail
   prefix stays hot — while thieves take from the front: the oldest
   entry, rooted shallowest, hence the biggest subtree to amortise the
   replay. *)
module Dq = struct
  type t = {
    mutable buf : ptask array;
    mutable head : int;  (* index of the oldest element *)
    mutable len : int;
  }

  let dummy = { p_path = []; p_crashes = 0 }
  let create () = { buf = Array.make 64 dummy; head = 0; len = 0 }

  let grow d =
    let buf = Array.make (2 * Array.length d.buf) dummy in
    for i = 0 to d.len - 1 do
      buf.(i) <- d.buf.((d.head + i) mod Array.length d.buf)
    done;
    d.buf <- buf;
    d.head <- 0

  let push_back d t =
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- t;
    d.len <- d.len + 1

  let pop_back d =
    if d.len = 0 then None
    else begin
      d.len <- d.len - 1;
      let i = (d.head + d.len) mod Array.length d.buf in
      let t = d.buf.(i) in
      d.buf.(i) <- dummy;
      Some t
    end

  let pop_front d =
    if d.len = 0 then None
    else begin
      let t = d.buf.(d.head) in
      d.buf.(d.head) <- dummy;
      d.head <- (d.head + 1) mod Array.length d.buf;
      d.len <- d.len - 1;
      Some t
    end

  let to_list d = List.init d.len (fun i -> d.buf.((d.head + i) mod Array.length d.buf))
end

(* One worker's share of the pool.  [in_progress] is the task the worker
   is currently running; it is only ever written by its owner thread,
   and always under {e some} slot's lock (the victim's at steal time,
   its own at pop and completion), so a snapshot holding every lock sees
   a consistent pool: each live task is in exactly one deque or one
   in-progress slot. *)
type wslot = {
  ws_lock : Mutex.t;
  ws_dq : Dq.t;
  mutable ws_in_progress : ptask option;
}

type ws_result = {
  wsr_failure : exn option;
  wsr_pending : ptask list;  (** tasks left unfinished (empty on a clean drain) *)
  wsr_created : int;  (** tasks ever created, seeds included *)
}

(** Drain [seeds] (and every task dynamically split off them) on [jobs]
    domains with per-worker deques and work stealing.

    Each worker owns a machine cloned from the pristine root.  To start
    a task it {e repositions}: trail-undo to the longest common prefix
    of its current position and the task's path, then silent replay
    (observation suspended) of the rest — replayed edges were already
    counted when the task was split off, so every tree edge lands in the
    engine-invariant counters exactly once, whatever the partition.

    A worker splits a task instead of searching it in place when the
    pool is young ([created < 32·jobs], seeding initial parallelism) or
    starving ([queued < 2·jobs]): the task's root node is then processed
    normally — counted, deduplicated, checked — through {!go} with a
    one-level frontier, and each child edge becomes a new task.  The
    children are buffered during the traversal and only published in the
    completion critical section (accumulator mutex, then the worker's
    own deque lock), together with the task's statistics fold and the
    in-progress slot clear — so any snapshot taken under all the locks
    sees either the parent task pending or its statistics folded and its
    children pending, never half of either.  That atomicity is what
    makes mid-steal checkpoints resume byte-identically.

    [per_task_reg] selects the metric granularity: [true] gives every
    task a fresh registry folded into [acc_reg] at completion (the
    checkpointing engine — persisted metrics cover exactly the completed
    tasks); [false] gives every worker one registry, merged into
    [ctx.om] at the join in worker-id order (deterministic, whatever
    order workers finished in).  Steal counts and idle time always
    accumulate per worker and merge at the join.

    On {!Found}, {!Out_of_budget} or any other escape the first
    exception is published, every worker stops, and the in-flight tasks
    stay in their slots — [wsr_pending] reports them (plus everything
    still queued) so callers can checkpoint or report the remaining
    frontier. *)
let ws_run : type st.
    ctx:st ctx ->
    jobs:int ->
    trace:Obs.Trace.t option ->
    sim0:Sim.t ->
    root_state:st ->
    seeds:ptask list ->
    per_task_reg:bool ->
    obs_on:bool ->
    acc_mutex:Mutex.t ->
    acc_reg:Obs.Metrics.t option ->
    on_fold:(snapshot:(unit -> ptask list) -> unit) ->
    ws_result =
 fun ~ctx ~jobs ~trace ~sim0 ~root_state ~seeds ~per_task_reg ~obs_on ~acc_mutex ~acc_reg
     ~on_fold ->
  let jobs = max 1 jobs in
  let slots =
    Array.init jobs (fun _ ->
        { ws_lock = Mutex.create (); ws_dq = Dq.create (); ws_in_progress = None })
  in
  let live = Atomic.make 0 in  (* tasks created but not yet completed *)
  let queued = Atomic.make 0 in  (* tasks sitting in deques, stealable *)
  let created = Atomic.make 0 in
  let stop_flag = Atomic.make false in
  let failure : exn option Atomic.t = Atomic.make None in
  let publish e =
    ignore (Atomic.compare_and_set failure None (Some e));
    Atomic.set stop_flag true
  in
  (* distribute seeds round-robin so a resumed multi-domain run starts
     balanced instead of making jobs-1 workers steal everything *)
  List.iteri
    (fun i t ->
      Atomic.incr live;
      Atomic.incr queued;
      Atomic.incr created;
      Dq.push_back slots.(i mod jobs).ws_dq t)
    seeds;
  (* call only while holding [acc_mutex] and no slot lock *)
  let snapshot () =
    Array.iter (fun s -> Mutex.lock s.ws_lock) slots;
    let pending =
      Array.fold_left
        (fun acc s ->
          let q = Dq.to_list s.ws_dq in
          match s.ws_in_progress with Some t -> acc @ (t :: q) | None -> acc @ q)
        [] slots
    in
    Array.iter (fun s -> Mutex.unlock s.ws_lock) slots;
    pending
  in
  let expand_initial = 32 * jobs in
  let low_water = 2 * jobs in
  let worker_regs = Array.make jobs None in
  let worker_steals = Array.make jobs 0 in
  let worker_span = Array.make jobs (0, 0) in
  let worker w () =
    let t0 = Obs.Clock.now_ns () in
    let my = slots.(w) in
    let wreg = if obs_on then Some (Obs.Metrics.create ()) else None in
    worker_regs.(w) <- wreg;
    let msteal = Option.map (fun r -> Obs.Metrics.counter r Obs.Names.explore_ws_steals) wreg in
    let midle = Option.map (fun r -> Obs.Metrics.timer r Obs.Names.explore_time_idle) wreg in
    (* the worker's machine, repositioned between tasks *)
    let wsim = ref (Sim.clone sim0) in
    Sim.set_obs !wsim None;
    if ctx.trail then Sim.enable_trail !wsim;
    let cap = ctx.cfg.max_steps + 2 in
    let applied = ref [||] in
    (* [Sim.mark] requires the trail; clone mode never touches [marks] *)
    let marks = if ctx.trail then Array.make cap (Sim.mark !wsim) else [||] in
    (* states.(i): path-checker state after the first [i] decisions of
       [applied]; step functions are pure, so prefixes shared between
       consecutive tasks are reused, not recomputed *)
    let states = Array.make cap root_state in
    let reposition (t : ptask) =
      let target = Array.of_list t.p_path in
      let m = Array.length target in
      if ctx.trail then begin
        let n = Array.length !applied in
        let lcp = ref 0 in
        while !lcp < n && !lcp < m && !applied.(!lcp) = target.(!lcp) do
          incr lcp
        done;
        let lcp = !lcp in
        if lcp < n then Sim.undo_to !wsim marks.(lcp);
        Sim.set_obs !wsim None;
        for i = lcp to m - 1 do
          marks.(i) <- Sim.mark !wsim;
          Schedule.apply !wsim target.(i);
          states.(i + 1) <- ctx.step_state states.(i) !wsim
        done
      end
      else begin
        (* clone discipline: no trail to rewind, so reconstitute from a
           fresh clone of the root *)
        let sim = Sim.clone sim0 in
        Sim.set_obs sim None;
        Array.iteri
          (fun i d ->
            Schedule.apply sim d;
            states.(i + 1) <- ctx.step_state states.(i) sim)
          target;
        wsim := sim
      end;
      applied := target;
      (m, states.(m))
    in
    (* the stats of the task being run, salvaged on abnormal exit in
       join-merge mode (budget aborts report everything explored) *)
    let inflight : stats option ref = ref None in
    let run_task (t : ptask) =
      let depth, st0 = reposition t in
      let treg =
        if per_task_reg then (if obs_on then Some (Obs.Metrics.create ()) else None)
        else wreg
      in
      Sim.set_obs !wsim treg;
      let wstats = zero_stats () in
      inflight := Some wstats;
      let buf = ref [] in
      let split = Atomic.get created < expand_initial || Atomic.get queued < low_water in
      let cur = ref None in
      let emit (tk : st task) =
        (* the frontier is one level below the task root, so [cur] holds
           exactly the decision that leads to this child *)
        let d = match !cur with Some d -> d | None -> assert false in
        buf := { p_path = t.p_path @ [ d ]; p_crashes = tk.t_crashes } :: !buf
      in
      let wctx =
        {
          ctx with
          stats = wstats;
          stop = (fun () -> Atomic.get stop_flag);
          om = Option.map meters_of treg;
          frontier = (if split then Some (depth + 1, emit) else None);
          cur_dec = cur;
        }
      in
      go wctx !wsim depth t.p_crashes st0;
      (* ---- completion: fold + publish children + clear slot ---- *)
      Mutex.lock acc_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock acc_mutex)
        (fun () ->
          Mutex.lock my.ws_lock;
          (* [buf] is in reverse decision order; pushing it back-to-front
             makes the owner's LIFO pops follow decision order while
             thieves steal from the other end *)
          List.iter
            (fun c ->
              Atomic.incr live;
              Atomic.incr queued;
              Atomic.incr created;
              Dq.push_back my.ws_dq c)
            !buf;
          my.ws_in_progress <- None;
          Mutex.unlock my.ws_lock;
          Atomic.decr live;
          add_stats ctx.stats wstats;
          inflight := None;
          (if per_task_reg then
             match (acc_reg, treg) with
             | Some a, Some r -> Obs.Metrics.merge ~into:a r
             | _ -> ());
          on_fold ~snapshot);
      match ctx.prog with
      | Some p ->
        Obs.Progress.task_done p;
        Obs.Progress.set_tasks p (Atomic.get created)
      | None -> ()
    in
    let try_pop_own () =
      Mutex.lock my.ws_lock;
      let r = Dq.pop_back my.ws_dq in
      (match r with
      | Some t ->
        my.ws_in_progress <- Some t;
        Atomic.decr queued
      | None -> ());
      Mutex.unlock my.ws_lock;
      r
    in
    let try_steal () =
      let r = ref None in
      let v = ref 1 in
      while !r = None && !v < jobs do
        let s = slots.((w + !v) mod jobs) in
        Mutex.lock s.ws_lock;
        (match Dq.pop_front s.ws_dq with
        | Some t ->
          (* claiming into [my] slot under the victim's lock keeps the
             move atomic for snapshots, which hold every lock *)
          my.ws_in_progress <- Some t;
          Atomic.decr queued;
          r := Some t
        | None -> ());
        Mutex.unlock s.ws_lock;
        incr v
      done;
      !r
    in
    let idle_since = ref 0 in
    let end_idle () =
      if !idle_since <> 0 then begin
        (match midle with
        | Some tm -> Obs.Metrics.Timer.add tm (Obs.Clock.now_ns () - !idle_since)
        | None -> ());
        idle_since := 0
      end
    in
    (* salvage: in join-merge mode a budget abort must still report the
       partial work of the in-flight task (the checkpointing engine
       instead discards it, keeping persisted accumulations exact) *)
    let salvage () =
      end_idle ();
      if not per_task_reg then begin
        match !inflight with
        | Some ws ->
          Mutex.lock acc_mutex;
          add_stats ctx.stats ws;
          Mutex.unlock acc_mutex;
          inflight := None
        | None -> ()
      end
    in
    (* spin briefly, then sleep with exponential backoff (capped at 1ms):
       pure spinning starves the working domains when the host has fewer
       cores than workers, and a capped sleep bounds steal latency when it
       doesn't *)
    let misses = ref 0 in
    let back_off () =
      incr misses;
      if !misses <= 64 then Domain.cpu_relax ()
      else
        Unix.sleepf (Float.min 0.001 (1e-6 *. float_of_int (1 lsl Int.min 10 (!misses - 64))))
    in
    (try
       let running = ref true in
       while !running do
         if Atomic.get stop_flag then running := false
         else
           match try_pop_own () with
           | Some t ->
             end_idle ();
             misses := 0;
             run_task t
           | None -> (
             match try_steal () with
             | Some t ->
               end_idle ();
               misses := 0;
               worker_steals.(w) <- worker_steals.(w) + 1;
               (match msteal with Some c -> Obs.Metrics.Counter.incr c | None -> ());
               run_task t
             | None ->
               if Atomic.get live = 0 then running := false
               else begin
                 if !idle_since = 0 && midle <> None then
                   idle_since := Obs.Clock.now_ns ();
                 back_off ()
               end)
       done;
       end_idle ()
     with
    | Stopped -> salvage ()
    | e ->
      salvage ();
      publish e);
    worker_span.(w) <- (t0, Obs.Clock.now_ns ())
  in
  let domains = List.init (jobs - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  (* deterministic join: registries merge sorted by worker id, not in
     whatever order the domains finished *)
  (if not per_task_reg then
     match ctx.om with
     | Some m ->
       Array.iter
         (function Some r -> Obs.Metrics.merge ~into:m.m_reg r | None -> ())
         worker_regs
     | None -> ());
  (if per_task_reg then
     (* per-task registries were folded under the lock; the per-worker
        registries only carry steal/idle engine metrics — merge them in
        worker-id order too *)
     match acc_reg with
     | Some a ->
       Array.iter (function Some r -> Obs.Metrics.merge ~into:a r | None -> ()) worker_regs
     | None -> ());
  (match trace with
  | Some tr ->
    Array.iteri
      (fun w (s0, s1) ->
        Obs.Trace.span tr ~name:"explore.worker" ~start_ns:s0 ~dur_ns:(s1 - s0)
          [
            ("worker", Obs.Trace.Int w);
            ("steals", Obs.Trace.Int worker_steals.(w));
          ])
      worker_span
  | None -> ());
  {
    wsr_failure = Atomic.get failure;
    wsr_pending = snapshot ();
    wsr_created = Atomic.get created;
  }

(** The soundness-checked process-symmetry group of [sim]'s root
    configuration under [cfg], if any: recovery obliviousness is only
    required when [cfg] can actually schedule a crash.  Exposed so the
    CLI can report whether a scenario is being quotiented. *)
let symmetry_group cfg sim =
  if Sim.persist_mode sim = Nvm.Memory.Explicit then None
    (* pid-symmetry quotienting is disabled under the explicit-persist
       model: dirty-cell ownership is pid-attributed state the canonical
       form does not permute, so the quotient would conflate
       configurations with different persistence futures *)
  else
  let crashes_possible = cfg.max_crashes > 0 && cfg.crash_procs <> [] in
  (* when no crash can be scheduled the crash set is inert: don't let it
     constrain the permutations *)
  Fingerprint.Symmetry.detect ~crashes_possible
    ~crash_procs:(if crashes_possible then cfg.crash_procs else [])
    sim

let trace_symmetry ~trace sym =
  match (sym, trace) with
  | Some g, Some tr ->
    Obs.Trace.event tr ~name:"explore.symmetry"
      [ ("degree", Obs.Trace.Int (Fingerprint.Symmetry.degree g)) ]
  | _ -> ()

(** The generic engine all public entry points share: a DFS threading
    ['st] down the path. *)
let run_gen ~cfg ~jobs ~dedup ~trail ~symmetry ~obs ~progress ~trace ~limits ~init
    ~step_state ~on_terminal sim0 =
  let jobs = max 1 jobs in
  let ctx =
    {
      cfg;
      stats = zero_stats ();
      stop = never_stop;
      seen = (if dedup then Some (Fingerprint.Store.create ()) else None);
      trail;
      step_state;
      on_terminal;
      frontier = None;
      om = Option.map meters_of obs;
      prog = progress;
      limits;
      (* the quotient only matters where fingerprints are compared *)
      sym = (if dedup && symmetry then symmetry_group cfg sim0 else None);
      cur_dec = ref None;
    }
  in
  trace_symmetry ~trace ctx.sym;
  let frontier_pending = ref 0 in
  let exhaust = ref None in
  let t_start = if obs <> None || trace <> None then Obs.Clock.now_ns () else 0 in
  (* the finally block runs on clean completion AND on abort-by-exception
     (Found), so the stats mirror, the total timer, the trace span and
     the final progress line reflect whatever was actually explored *)
  let finish () =
    (match obs with
    | Some reg ->
      let c name v = Obs.Metrics.Counter.add (Obs.Metrics.counter reg name) v in
      c Obs.Names.explore_nodes ctx.stats.nodes;
      c Obs.Names.explore_terminals ctx.stats.terminals;
      c Obs.Names.explore_truncated ctx.stats.truncated;
      c Obs.Names.explore_dedup_pruned ctx.stats.dup;
      (match ctx.seen with
      | Some store ->
        c Obs.Names.explore_store_contention (Fingerprint.Store.contention store)
      | None -> ());
      Obs.Metrics.Timer.add
        (Obs.Metrics.timer reg Obs.Names.explore_time_total)
        (Obs.Clock.now_ns () - t_start)
    | None -> ());
    (match trace with
    | Some tr ->
      Obs.Trace.span tr ~name:"explore.search" ~start_ns:t_start
        ~dur_ns:(Obs.Clock.now_ns () - t_start)
        [
          ("jobs", Obs.Trace.Int jobs);
          ("nodes", Obs.Trace.Int ctx.stats.nodes);
          ("terminals", Obs.Trace.Int ctx.stats.terminals);
          ("truncated", Obs.Trace.Int ctx.stats.truncated);
          ("dup", Obs.Trace.Int ctx.stats.dup);
        ]
    | None -> ());
    match progress with Some p -> Obs.Progress.finish p ~nodes:ctx.stats.nodes | None -> ()
  in
  Fun.protect ~finally:finish (fun () ->
      try
        if jobs = 1 then
          if trail || obs <> None then begin
            (* one private clone for the whole search: an abort-by-exception
               from [on_terminal] skips the pending undos, which must not
               corrupt the caller's machine — and counters attach to the
               clone, never to the caller's machine *)
            let sim = Sim.clone sim0 in
            if trail then Sim.enable_trail sim;
            Sim.set_obs sim obs;
            go ctx sim 0 0 (init sim)
          end
          else go ctx sim0 0 0 (init sim0)
        else begin
          (* the shared root: one obs-attached clone whose [init] runs
             exactly once, so init-time counters land once however many
             workers later clone it (the clones re-point their
             observation before running anything) *)
          let root = Sim.clone sim0 in
          Sim.set_obs root obs;
          let root_state = init root in
          let r =
            ws_run ~ctx ~jobs ~trace ~sim0:root ~root_state
              ~seeds:[ { p_path = []; p_crashes = 0 } ]
              ~per_task_reg:false ~obs_on:(obs <> None)
              ~acc_mutex:(Mutex.create ()) ~acc_reg:None
              ~on_fold:(fun ~snapshot:_ -> ())
          in
          frontier_pending := List.length r.wsr_pending;
          (match obs with
          | Some reg ->
            Obs.Metrics.Counter.add
              (Obs.Metrics.counter reg Obs.Names.explore_tasks)
              r.wsr_created
          | None -> ());
          match r.wsr_failure with Some e -> raise e | None -> ()
        end
      with Out_of_budget reason ->
        (* budget aborts are verdicts, not failures: the stats accumulated
           so far (partial worker stats included, merged by [run_tasks])
           describe real coverage *)
        exhaust :=
          Some
            {
              ex_reason = reason;
              ex_frontier = !frontier_pending;
              ex_degraded =
                (match limits with Some l -> Atomic.get l.l_degraded | None -> []);
            };
        (match trace with
        | Some tr ->
          Obs.Trace.event tr ~name:"explore.exhausted"
            [
              ("reason", Obs.Trace.Str (exhaust_reason_name reason));
              ("frontier", Obs.Trace.Int !frontier_pending);
            ]
        | None -> ()));
  (ctx.stats, !exhaust)

(** Depth-first enumeration of all schedules of [sim0] under [cfg],
    calling [on_terminal] on every completed execution.  Returns the
    statistics.  [on_terminal] may raise to abort the search (e.g. on
    the first counterexample).

    [trail] (default true) selects in-place backtracking; the machine
    passed to [on_terminal] and [on_step] is then the search's working
    machine, valid only for the duration of the callback — {!Sim.clone}
    it to keep it.  With [trail = false] every callback receives an
    independent machine.  Statistics are identical either way.

    [on_step] is invoked after every applied decision with the resulting
    configuration — the hook incremental path analyses attach to.

    With [jobs > 1] the tree is split at an adaptive frontier and
    subtrees run concurrently on that many domains; [on_terminal] must
    then be safe to call from several domains at once (checks that only
    touch their own [Sim.t] argument, like the NRL checkers, are).  Use
    {!auto_jobs} to pick a fan-out matching the host.  With [dedup]
    branches reaching a configuration whose fingerprint (including the
    crash budget spent) was already visited are pruned and counted in
    [stats.dup]. *)
let dfs ?(cfg = default_config) ?(jobs = 1) ?(dedup = false) ?(trail = true)
    ?(symmetry = true) ?obs ?progress ?trace ?(budget = no_budget) ?should_stop
    ?on_exhausted ?on_step ~on_terminal sim0 =
  let step_state =
    match on_step with
    | None -> fun () _ -> ()
    | Some f ->
      fun () sim ->
        f sim;
        ()
  in
  let limits = limits_of ~budget ~should_stop in
  let stats, exhaust =
    run_gen ~cfg ~jobs ~dedup ~trail ~symmetry ~obs ~progress ~trace ~limits
      ~init:(fun _ -> ())
      ~step_state
      ~on_terminal:(fun () sim -> on_terminal sim)
      sim0
  in
  (match (exhaust, on_exhausted) with Some e, Some f -> f e | _ -> ());
  stats

(** Search for the first terminal execution that fails the check.
    Returns the violating machine (with its full history) if one exists,
    plus the statistics.

    [check_mode] selects how the verdict is computed: [`Terminal] (the
    default) calls [check] on each complete execution from scratch;
    [`Incremental pc] threads [pc]'s state down the path so work done on
    a shared schedule prefix is shared by all terminals below it, and
    [check] is unused.  Both modes return the same verdict for sound
    checkers (cross-checked in the test suite).

    [jobs], [dedup] and [trail] as in {!dfs}; with [jobs > 1] {e which}
    counterexample is returned may vary between runs, but whether one
    exists does not (and without [dedup], neither do the statistics).
    The returned machine is always an independent snapshot, whatever the
    branching discipline. *)
let find_violation ?(cfg = default_config) ?(jobs = 1) ?(dedup = false) ?(trail = true)
    ?(symmetry = true) ?obs ?progress ?trace ?(budget = no_budget) ?should_stop
    ?on_exhausted ?(check_mode = `Terminal) ~check sim0 =
  (* in trail mode the machine at a terminal is the search's working
     machine, about to be rewound: capture an independent snapshot *)
  let capture sim = if trail then Sim.clone sim else sim in
  let limits = limits_of ~budget ~should_stop in
  try
    let stats, exhaust =
      match (check_mode : check_mode) with
      | `Terminal ->
        run_gen ~cfg ~jobs ~dedup ~trail ~symmetry ~obs ~progress ~trace ~limits
          ~init:(fun _ -> ())
          ~step_state:(fun () _ -> ())
          ~on_terminal:(fun () sim ->
            match check sim with
            | Some reason -> raise (Found (capture sim, reason))
            | None -> ())
          sim0
      | `Incremental (Path p) ->
        run_gen ~cfg ~jobs ~dedup ~trail ~symmetry ~obs ~progress ~trace ~limits
          ~init:p.init ~step_state:p.step
          ~on_terminal:(fun st sim ->
            match p.terminal st sim with
            | Some reason -> raise (Found (capture sim, reason))
            | None -> ())
          sim0
    in
    (match (exhaust, on_exhausted) with Some e, Some f -> f e | _ -> ());
    (None, stats)
  with Found (sim, reason) ->
    (match trace with
    | Some tr -> Obs.Trace.event tr ~name:"explore.violation" [ ("reason", Obs.Trace.Str reason) ]
    | None -> ());
    (Some (sim, reason), zero_stats ())

(* {1 The resilient engine: task-partitioned, budgeted, checkpointable} *)

(** Where and how often to checkpoint; see {!sweep}. *)
type checkpoint_spec = {
  cp_path : string;
  cp_interval_s : float;  (** minimum seconds between periodic saves *)
  cp_scenario : (string * string) list;
      (** stamp persisted into the checkpoint; a resume must present an
          equal stamp (the CLI enforces this) *)
}

(** The resilient search: always partitions the tree into frontier tasks
    (even at [jobs = 1] — by the engine-invariance property the
    statistics do not depend on the partition), processes them on a
    worker pool that folds each {e completed} task's statistics and
    metrics into an accumulator, and (with [checkpoint]) persists the
    accumulator plus per-task completion flags atomically — periodically
    and at every outcome.  In-flight tasks are discarded by a kill and
    re-run from their recorded decision paths on [resume], which is what
    makes a resumed run's verdict and counters exactly equal to an
    uninterrupted run's (the one exception is [dedup]: the visited store
    is rebuilt from scratch on resume, so dup/node counts can shift —
    verdicts remain sound either way).

    Returns the outcome and the coverage achieved.  Unlike
    {!find_violation}, the statistics are returned for every outcome,
    including [Violation] (they describe the work done up to the
    abort). *)
let sweep ?(cfg = default_config) ?(jobs = 1) ?(dedup = false) ?(trail = true)
    ?(symmetry = true) ?obs ?progress ?trace ?(budget = no_budget) ?should_stop
    ?checkpoint ?resume ?(check_mode = `Terminal) ~check sim0 =
  let jobs = max 1 jobs in
  (match resume with
  | Some ck when ck.Checkpoint.result <> None ->
    invalid_arg "Explore.sweep: checkpoint is already finalized (it carries a verdict)"
  | _ -> ());
  let run (type st) (init : Sim.t -> st) (step : st -> Sim.t -> st)
      (term : st -> Sim.t -> string option) =
    let t_start = Obs.Clock.now_ns () in
    let limits = limits_of ~budget ~should_stop in
    (* the accumulator registry exists whenever anyone will read metrics —
       the caller ([obs]) or a checkpoint file *)
    let obs_on = obs <> None || checkpoint <> None || resume <> None in
    let acc = zero_stats () in
    let acc_reg = if obs_on then Some (Obs.Metrics.create ()) else None in
    let acc_mutex = Mutex.create () in
    let capture sim = if trail then Sim.clone sim else sim in
    let ctx0 =
      {
        cfg;
        stats = acc;
        stop = never_stop;
        seen = (if dedup then Some (Fingerprint.Store.create ()) else None);
        trail;
        step_state = step;
        on_terminal =
          (fun st sim ->
            match term st sim with
            | Some reason -> raise (Found (capture sim, reason))
            | None -> ());
        frontier = None;
        om = Option.map meters_of acc_reg;
        prog = progress;
        limits;
        sym = (if dedup && symmetry then symmetry_group cfg sim0 else None);
        cur_dec = ref None;
      }
    in
    trace_symmetry ~trace ctx0.sym;
    (* ---- seeds: the root task, or the checkpointed pending set ---- *)
    let seeds =
      match resume with
      | Some ck ->
        (* adopt the persisted accumulations: totals and metrics cover
           exactly the tasks already completed *)
        acc.nodes <- ck.Checkpoint.totals.Checkpoint.ck_nodes;
        acc.terminals <- ck.Checkpoint.totals.Checkpoint.ck_terminals;
        acc.truncated <- ck.Checkpoint.totals.Checkpoint.ck_truncated;
        acc.dup <- ck.Checkpoint.totals.Checkpoint.ck_dup;
        (match acc_reg with
        | Some reg ->
          List.iter (fun (n, v) -> Obs.Metrics.absorb ~into:reg n v) ck.Checkpoint.metrics
        | None -> ());
        let pending =
          Array.to_list ck.Checkpoint.tasks
          |> List.filter_map (fun t ->
                 if t.Checkpoint.ck_done then None
                 else
                   Some
                     { p_path = t.Checkpoint.ck_path; p_crashes = t.Checkpoint.ck_crashes })
        in
        (match trace with
        | Some tr ->
          Obs.Trace.event tr ~name:"explore.resume"
            [
              ("tasks", Obs.Trace.Int (Array.length ck.Checkpoint.tasks));
              ("pending", Obs.Trace.Int (List.length pending));
            ]
        | None -> ());
        pending
      | None -> [ { p_path = []; p_crashes = 0 } ]
    in
    let finish_obs () =
      (match obs with
      | Some reg ->
        (match acc_reg with Some a -> Obs.Metrics.merge ~into:reg a | None -> ());
        let c name v = Obs.Metrics.Counter.add (Obs.Metrics.counter reg name) v in
        c Obs.Names.explore_nodes acc.nodes;
        c Obs.Names.explore_terminals acc.terminals;
        c Obs.Names.explore_truncated acc.truncated;
        c Obs.Names.explore_dedup_pruned acc.dup;
        Obs.Metrics.Timer.add
          (Obs.Metrics.timer reg Obs.Names.explore_time_total)
          (Obs.Clock.now_ns () - t_start)
      | None -> ());
      (match trace with
      | Some tr ->
        Obs.Trace.span tr ~name:"explore.search" ~start_ns:t_start
          ~dur_ns:(Obs.Clock.now_ns () - t_start)
          [
            ("jobs", Obs.Trace.Int jobs);
            ("nodes", Obs.Trace.Int acc.nodes);
            ("terminals", Obs.Trace.Int acc.terminals);
            ("truncated", Obs.Trace.Int acc.truncated);
            ("dup", Obs.Trace.Int acc.dup);
          ]
      | None -> ());
      match progress with Some p -> Obs.Progress.finish p ~nodes:acc.nodes | None -> ()
    in
    (* persist the {e pending} task set: a resume re-seeds the pool with
       exactly these paths, and the adopted totals/metrics cover exactly
       the completed tasks — nothing is counted twice, nothing is lost *)
    let save_ck ~pending ~result () =
      match checkpoint with
      | None -> ()
      | Some spec ->
        let tasks =
          Array.of_list
            (List.map
               (fun t ->
                 { Checkpoint.ck_path = t.p_path; ck_crashes = t.p_crashes; ck_done = false })
               pending)
        in
        Checkpoint.save ~path:spec.cp_path
          {
            Checkpoint.scenario = spec.cp_scenario;
            tasks;
            totals =
              {
                Checkpoint.ck_nodes = acc.nodes;
                ck_terminals = acc.terminals;
                ck_truncated = acc.truncated;
                ck_dup = acc.dup;
              };
            metrics = (match acc_reg with Some r -> Obs.Metrics.to_list r | None -> []);
            result;
          };
        (match trace with
        | Some tr ->
          Obs.Trace.event tr ~name:"explore.checkpoint.save"
            [
              ("pending", Obs.Trace.Int (Array.length tasks));
              ("final", Obs.Trace.Bool (result <> None));
            ]
        | None -> ())
    in
    (* an initial save right away: a kill during early processing can
       already resume *)
    save_ck ~pending:seeds ~result:None ();
    (match progress with
    | Some p -> Obs.Progress.set_tasks p (List.length seeds)
    | None -> ());
    let last_save = ref (Obs.Clock.now_ns ()) in
    (* runs under [acc_mutex] at every task completion; [snapshot] walks
       every deque and in-progress slot under their locks, so the saved
       pending set is exactly the live pool at a fold boundary *)
    let on_fold ~snapshot =
      match checkpoint with
      | Some spec ->
        let now = Obs.Clock.now_ns () in
        if float_of_int (now - !last_save) >= spec.cp_interval_s *. 1e9 then begin
          last_save := now;
          save_ck ~pending:(snapshot ()) ~result:None ()
        end
      | None -> ()
    in
    (* the root: [init] runs once, its counters (if any) landing on the
       accumulator on a fresh run; on resume they were absorbed from the
       checkpoint already, so the replayed init must count nothing *)
    let root = Sim.clone sim0 in
    (match resume with
    | None -> Sim.set_obs root acc_reg
    | Some _ -> Sim.set_obs root None);
    let root_state = init root in
    let r =
      ws_run ~ctx:ctx0 ~jobs ~trace ~sim0:root ~root_state ~seeds ~per_task_reg:true
        ~obs_on ~acc_mutex ~acc_reg ~on_fold
    in
    (match acc_reg with
    | Some reg ->
      Obs.Metrics.Counter.add
        (Obs.Metrics.counter reg Obs.Names.explore_tasks)
        r.wsr_created;
      (match ctx0.seen with
      | Some store ->
        Obs.Metrics.Counter.add
          (Obs.Metrics.counter reg Obs.Names.explore_store_contention)
          (Fingerprint.Store.contention store)
      | None -> ())
    | None -> ());
    let outcome =
      match r.wsr_failure with
      | Some (Found (sim, reason)) ->
        (match trace with
        | Some tr ->
          Obs.Trace.event tr ~name:"explore.violation" [ ("reason", Obs.Trace.Str reason) ]
        | None -> ());
        save_ck ~pending:r.wsr_pending ~result:(Some ("violation", reason)) ();
        Violation (sim, reason)
      | Some (Out_of_budget reason) ->
        save_ck ~pending:r.wsr_pending ~result:None ();
        let ex =
          {
            ex_reason = reason;
            ex_frontier = List.length r.wsr_pending;
            ex_degraded =
              (match limits with Some l -> Atomic.get l.l_degraded | None -> []);
          }
        in
        (match trace with
        | Some tr ->
          Obs.Trace.event tr ~name:"explore.exhausted"
            [
              ("reason", Obs.Trace.Str (exhaust_reason_name reason));
              ("frontier", Obs.Trace.Int ex.ex_frontier);
            ]
        | None -> ());
        Exhausted ex
      | Some e -> raise e
      | None ->
        save_ck ~pending:[] ~result:(Some ("clean", "")) ();
        Clean
    in
    finish_obs ();
    (outcome, acc)
  in
  match (check_mode : check_mode) with
  | `Terminal -> run (fun _ -> ()) (fun () _ -> ()) (fun () sim -> check sim)
  | `Incremental (Path p) -> run p.init p.step p.terminal
