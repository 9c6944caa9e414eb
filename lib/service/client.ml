(* Closed-loop client sessions: each session keeps exactly one logical
   operation outstanding.  A client domain multiplexes many sessions
   round-robin, polling response slots and pacing retries, so a handful
   of domains simulate hundreds of clients.

   Retry policy: [`Unavailable], [`Rejected] and deadline timeouts all
   re-submit after capped exponential backoff with jitter (full
   jitter-halved: delay drawn from [ceiling/2, ceiling)).  A timed-out
   request may still be executed by the shard afterwards — the service
   is at-least-once under client timeout, which the conservation check
   accounts for by counting committed effects on the worker side.

   Submission is batched per sweep: one pass over the sessions stages
   every new submission and due retry into its shard's staging array,
   then each shard with staged requests gets them all in one
   [Shard.push_batch] — one lock acquisition per shard per sweep. *)

module Torture = Runtime.Torture

type config = {
  sessions : int;  (** sessions driven by this domain *)
  session0 : int;  (** global id of the first (seeds diverge per session) *)
  total_keys : int;
  skew : float;
  deadline_ns : int;
  read_permille : int;  (** share of reads in the op mix, out of 1000 *)
  backoff_base_ns : int;
  backoff_cap_ns : int;
  seed : int;
}

let default_read_permille = 250
let default_backoff_base_ns = 50_000
let default_backoff_cap_ns = 5_000_000

(* session states *)
let idle = 0
let waiting = 1
let backing_off = 2

type session = {
  rng : Torture.rng;
  mutable st : int;
  mutable rq : Shard.request option;
  mutable shard : int;
  mutable key : int;  (** shard-local *)
  mutable op : Robjects.op;
  mutable sent_ns : int;  (** this attempt's submission time *)
  mutable issued_ns : int;  (** the logical op's first submission time *)
  mutable attempt : int;
  mutable not_before : int;
}

type t = {
  cfg : config;
  shards : Shard.t array;
  zipf : Zipf.t;
  stop : bool Atomic.t;
  reg : Obs.Metrics.t;
  lat : Latency.t;
}

let create cfg ~shards ~stop =
  {
    cfg;
    shards;
    zipf = Zipf.create ~n:cfg.total_keys ~skew:cfg.skew;
    stop;
    reg = Obs.Metrics.create ();
    lat = Latency.create ();
  }

let backoff_ns t s =
  let b = t.cfg.backoff_base_ns in
  let shift = min (s.attempt - 1) 20 in
  let ceiling = min t.cfg.backoff_cap_ns (b lsl shift) in
  let lo = ceiling / 2 in
  lo + Torture.rng_int s.rng (max 1 (ceiling - lo))

let new_session cfg gid =
  {
    rng = Torture.rng_create (cfg.seed lxor ((gid + 1) * 0x2545f49));
    st = idle;
    rq = None;
    shard = 0;
    key = 0;
    op = Robjects.Read;
    sent_ns = 0;
    issued_ns = 0;
    attempt = 0;
    not_before = 0;
  }

(* The per-domain event loop.  On [stop], outstanding requests are
   abandoned — the workers drain them harmlessly. *)
let run t =
  let nshards = Array.length t.shards in
  let c_requests = Obs.Metrics.counter t.reg Obs.Names.service_requests in
  let c_ok = Obs.Metrics.counter t.reg Obs.Names.service_ok in
  let c_retries = Obs.Metrics.counter t.reg Obs.Names.service_retries in
  let c_rejected = Obs.Metrics.counter t.reg Obs.Names.service_rejected in
  let c_unavailable = Obs.Metrics.counter t.reg Obs.Names.service_unavailable in
  let c_timeouts = Obs.Metrics.counter t.reg Obs.Names.service_timeouts in
  let h_lat = Obs.Metrics.histogram t.reg Obs.Names.service_latency in
  let sessions =
    Array.init t.cfg.sessions (fun i -> new_session t.cfg (t.cfg.session0 + i))
  in
  let generate s now =
    let gk = Zipf.draw t.zipf s.rng in
    s.shard <- gk mod nshards;
    s.key <- gk / nshards;
    let sh = t.shards.(s.shard) in
    let kind = Robjects.kind_of_key sh.Shard.objs s.key in
    s.op <-
      (if Torture.rng_int s.rng 1_000 < t.cfg.read_permille then Robjects.Read
       else
         match kind with
         | Robjects.Counter | Robjects.Cas -> Robjects.Update 0
         | Robjects.Faa -> Robjects.Update (1 + Torture.rng_int s.rng 8)
         | Robjects.Max -> Robjects.Update (1 + Torture.rng_int s.rng 1_000_000)
         | Robjects.Hist -> Robjects.Update (Torture.rng_int s.rng 1_024));
    s.attempt <- 1;
    s.issued_ns <- now;
    Obs.Metrics.Counter.incr c_requests
  in
  (* per-shard staging, allocated once per run rather than per sweep
     (and not in [create], which sits on the service's setup path):
     [staged_rq.(sh)] holds the sweep's submissions to shard [sh],
     [staged_ix.(sh)] their sessions *)
  let cap = Array.length sessions in
  let filler = Shard.request ~key:0 Robjects.Read in
  let staged_rq = Array.init nshards (fun _ -> Array.make cap filler) in
  let staged_ix = Array.init nshards (fun _ -> Array.make cap 0) in
  let nstaged = Array.make nshards 0 in
  let stage i s =
    let n = nstaged.(s.shard) in
    staged_rq.(s.shard).(n) <- Shard.request ~key:s.key s.op;
    staged_ix.(s.shard).(n) <- i;
    nstaged.(s.shard) <- n + 1
  in
  let back_off s now c =
    Obs.Metrics.Counter.incr c;
    s.attempt <- s.attempt + 1;
    s.not_before <- now + backoff_ns t s;
    s.st <- backing_off
  in
  let flush now =
    for sh = 0 to nshards - 1 do
      let n = nstaged.(sh) in
      if n > 0 then begin
        let rqs = staged_rq.(sh) and ix = staged_ix.(sh) in
        let k = Shard.push_batch t.shards.(sh) rqs n in
        for j = 0 to n - 1 do
          let s = sessions.(ix.(j)) in
          if j < k then begin
            s.rq <- Some rqs.(j);
            s.sent_ns <- now;
            s.st <- waiting
          end
          else back_off s now (if k = Shard.unavailable then c_unavailable else c_rejected)
        done;
        nstaged.(sh) <- 0
      end
    done
  in
  let step i s now =
    if s.st = idle then begin
      generate s now;
      stage i s
    end
    else if s.st = waiting then begin
      let rq = Option.get s.rq in
      let st = Atomic.get rq.Shard.rq_status in
      if st <> Shard.st_pending then begin
        (* shed and failed answers complete the logical op too: shed
           load must not be retried into the saturation it relieves *)
        if st = Shard.st_ok then begin
          Obs.Metrics.Counter.incr c_ok;
          let dt = now - s.issued_ns in
          Latency.observe t.lat dt;
          Obs.Metrics.Histogram.observe h_lat dt
        end;
        s.rq <- None;
        s.st <- idle
      end
      else if now - s.sent_ns > t.cfg.deadline_ns then begin
        (* abandon and re-submit: at-least-once *)
        s.rq <- None;
        back_off s now c_timeouts
      end
    end
    else if now >= s.not_before then begin
      Obs.Metrics.Counter.incr c_retries;
      stage i s
    end
  in
  while not (Atomic.get t.stop) do
    let now = Obs.Clock.now_ns () in
    for i = 0 to cap - 1 do
      step i sessions.(i) now
    done;
    flush now;
    Domain.cpu_relax ()
  done
