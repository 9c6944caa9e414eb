(** Machine-readable output of the native benchmark suite: the
    [BENCH_native.json] document [nrlsim bench-native] writes, tracked
    across PRs as a CI artifact.

    Schema ["nrl-native/1"]:

    - [domains_available]: [Domain.recommended_domain_count ()] on the
      measuring host — read it before trusting any scaling row (a
      1-core container still produces the document, honestly);
    - [duration_s]: the per-cell measured window of the throughput
      suite;
    - [throughput]: one row per (object, impl, mode, width, domains)
      cell, with the summed per-domain op counters, the measured
      window and the derived rate.  For CAS objects [ops] counts
      {e attempts} (a read + CAS pair), not successes;
    - [latency]: single-domain ns/op rows (median-of-batches on the
      monotonic clock), names shared with the bechamel harness's
      BENCH_explore.json so the two can be cross-read;
    - [alloc_per_op]: minor-heap words allocated per operation
      ([Gc.minor_words] deltas) — the hot-path allocation-freedom
      evidence. *)

let schema_version = "nrl-native/1"

type tp_row = {
  tp_object : string;  (** ["cas"], ["counter"], ["faa"] or ["stack"] *)
  tp_impl : string;  (** ["recoverable"] or ["plain"] *)
  tp_mode : string;  (** ["contended"] or ["uncontended"] *)
  tp_width : int;  (** number of locations in the contention array *)
  tp_domains : int;
  tp_ops : int;
  tp_seconds : float;
  tp_ops_per_sec : float;
}

type ns_row = { ns_name : string; ns_ns : float }

type alloc_row = { al_name : string; al_words : float }

type t = {
  domains_available : int;
  duration_s : float;
  throughput : tp_row list;
  latency : ns_row list;
  alloc_per_op : alloc_row list;
}

let render t =
  let open Obs.Json in
  let rows f l = Arr (List.map (fun r -> Obj (f r)) l) in
  print_doc
    (Obj
       [
         ("schema", Str schema_version);
         ("domains_available", Int t.domains_available);
         ("duration_s", Float t.duration_s);
         ( "throughput",
           rows
             (fun r ->
               [
                 ("object", Str r.tp_object);
                 ("impl", Str r.tp_impl);
                 ("mode", Str r.tp_mode);
                 ("width", Int r.tp_width);
                 ("domains", Int r.tp_domains);
                 ("ops", Int r.tp_ops);
                 ("seconds", Float r.tp_seconds);
                 ("ops_per_sec", Float r.tp_ops_per_sec);
               ])
             t.throughput );
         ("latency", rows (fun r -> [ ("name", Str r.ns_name); ("ns", Float r.ns_ns) ]) t.latency);
         ( "alloc_per_op",
           rows (fun r -> [ ("name", Str r.al_name); ("words", Float r.al_words) ]) t.alloc_per_op );
       ])

let write ~path t = Out_channel.with_open_bin path (fun oc -> output_string oc (render t))
