(** Machine-readable output of the service bench: the
    [BENCH_service.json] document [nrlsim bench-service] writes,
    tracked across PRs as a CI artifact.

    Schema ["nrl-service/1"]:

    - [domains_available]: [Domain.recommended_domain_count ()] on the
      measuring host — a 1-core container still produces the document,
      honestly (shard and client domains then time-share);
    - [config]: the knobs the run was configured with;
    - [modes]: one row per crash mode, with the crash/recovery ledger
      ([crashes] must equal [recoveries] and [schedule_len]), the
      client-observed outcome counters, ok-throughput, latency and
      recovery-time-to-healthy quantiles, the shed rate and the number
      of conservation-law violations (0 on a healthy run). *)

let schema_version = "nrl-service/1"

type mode_row = {
  m_result : Engine.result;
  m_crash_interval : float;
}

type t = {
  domains_available : int;
  seed : int;
  config : Engine.config;  (** [mode] and [crash_interval] vary per row *)
  modes : mode_row list;
}

let render t =
  let open Obs.Json in
  let lat l =
    Obj
      [
        ("count", Int (Latency.count l));
        ("p50_ns", Int (Latency.quantile l 0.5));
        ("p99_ns", Int (Latency.quantile l 0.99));
        ("max_ns", Int (Latency.max_value l));
        ("mean_ns", Float (Latency.mean l));
      ]
  in
  let mode_row row =
    let r = row.m_result in
    Obj
      [
        ("mode", Str r.Engine.r_mode);
        ("crash_interval_s", Float row.m_crash_interval);
        ("wall_s", Float r.Engine.r_wall_s);
        ("schedule_len", Int r.Engine.r_schedule_len);
        ("crashes", Int r.Engine.r_crashes);
        ("recoveries", Int r.Engine.r_recoveries);
        ("recovery_retries", Int r.Engine.r_recovery_retries);
        ("giveups", Int r.Engine.r_giveups);
        ("requests", Int r.Engine.r_requests);
        ("ok", Int r.Engine.r_ok);
        ("retries", Int r.Engine.r_retries);
        ("shed", Int r.Engine.r_shed);
        ("rejected", Int r.Engine.r_rejected);
        ("unavailable", Int r.Engine.r_unavailable);
        ("timeouts", Int r.Engine.r_timeouts);
        ("failures", Int r.Engine.r_failures);
        ("throughput_rps", Float r.Engine.r_throughput);
        ("shed_rate", Float (Engine.shed_rate r));
        ("latency_ns", lat r.Engine.r_lat);
        ("recovery_ns", lat r.Engine.r_recovery);
        ("conservation_violations", Int (List.length r.Engine.r_violations));
      ]
  in
  let c = t.config in
  print_doc
    (Obj
       [
         ("schema", Str schema_version);
         ("domains_available", Int t.domains_available);
         ("seed", Int t.seed);
         ( "config",
           Obj
             [
               ("shards", Int c.Engine.shards);
               ("sessions", Int c.Engine.sessions);
               ("client_domains", Int c.Engine.client_domains);
               ("keys", Int c.Engine.keys);
               ("skew", Float c.Engine.skew);
               ("duration_s", Float c.Engine.duration);
               ("deadline_ms", Float c.Engine.deadline_ms);
               ("queue_bound", Int c.Engine.queue_bound);
               ("shed_fraction", Float c.Engine.shed_fraction);
               ("recrash_prob", Float c.Engine.recrash_prob);
             ] );
         ("modes", Arr (List.map mode_row t.modes));
       ])
