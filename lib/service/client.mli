(** Closed-loop client sessions with deadlines, retries and capped
    exponential backoff.

    One domain multiplexes [sessions] independent sessions round-robin;
    each keeps exactly one logical operation outstanding, drawn over a
    Zipfian key distribution.  [`Unavailable], [`Rejected] and deadline
    timeouts re-submit after jittered exponential backoff; shed and
    failed answers complete the logical operation (shed load is not
    retried).  A timed-out request may still execute afterwards — the
    service is at-least-once under client timeout; see
    [docs/service.md]. *)

type config = {
  sessions : int;  (** sessions driven by this domain *)
  session0 : int;  (** global id of the first (per-session seeds diverge) *)
  total_keys : int;
  skew : float;  (** Zipf skew over the global key space *)
  deadline_ns : int;  (** per-attempt response deadline *)
  read_permille : int;  (** share of reads in the op mix, out of 1000 *)
  backoff_base_ns : int;  (** first retry's backoff ceiling *)
  backoff_cap_ns : int;  (** backoff ceiling cap *)
  seed : int;
}

val default_read_permille : int
val default_backoff_base_ns : int
val default_backoff_cap_ns : int

type t = {
  cfg : config;
  shards : Shard.t array;
  zipf : Zipf.t;
  stop : bool Atomic.t;
  reg : Obs.Metrics.t;  (** domain-owned registry, merged at the join *)
  lat : Latency.t;  (** issue-to-ok latency, ns *)
}

val create : config -> shards:Shard.t array -> stop:bool Atomic.t -> t

val run : t -> unit
(** The event loop; returns once [stop] is set (outstanding requests
    are abandoned).  Each sweep over the sessions hands every shard its
    new submissions and due retries in one [Shard.push_batch].  Run in
    its own domain. *)
