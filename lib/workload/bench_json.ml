(** Machine-readable benchmark output: the [BENCH_explore.json] document
    the bench harness writes with [--json], tracked across PRs as a CI
    artifact.

    Schema ["nrl-bench/4"]:

    - [domains_available]: [Domain.recommended_domain_count ()] on the
      measuring host — read it before trusting any jobs-scaling row;
    - [ns_per_op]: one row per latency estimate (tables T1-T4 and the
      figure sweeps that fit an OLS model), [{section; name; ns}] with
      [ns = null] when the fit failed;
    - [persist_events]: table T5 — shared accesses (the model's persist
      events) per operation at each process count;
    - [explore]: tables T6 (work-stealing jobs scaling), T7
      (branching-discipline and check-mode throughput), T8
      (process-symmetry quotienting) and T9 (instant vs explicit
      persistency), each row carrying the full engine configuration
      ([jobs]/[dedup]/[trail]/[mode]/[symmetry]/[persist]) plus the
      statistics, the persist-cost columns ([flushes]/[fences] executed
      across the whole search — always 0 under the instant model) and
      the derived [nodes_per_sec] / [terminals_per_sec] rates.

    Version 3 lacked the [persist]/[flushes]/[fences] fields on
    [explore] rows; version 2 also lacked [symmetry]; version 1 had only
    [ns_per_op] (left empty by the explore-only CI smoke run) and
    [explore] rows without the [section]/[trail]/[mode] fields. *)

let schema_version = "nrl-bench/4"

type ns_row = { ns_section : string; ns_name : string; ns_ns : float }

type persist_row = { pe_op : string; pe_nprocs : int; pe_accesses : int }

type explore_row = {
  er_section : string;  (** ["T6"], ["T7"], ["T8"] or ["T9"] *)
  er_scenario : string;
  er_nprocs : int;
  er_ops : int;
  er_jobs : int;
  er_dedup : bool;
  er_trail : bool;
  er_sym : bool;  (** process-symmetry quotienting active for this run *)
  er_mode : string;  (** ["dfs"], ["check-terminal"] or ["check-incremental"] *)
  er_persist : string;  (** ["instant"] or ["explicit"] *)
  er_flushes : int;  (** flush pseudo-ops executed across the search *)
  er_fences : int;  (** fence pseudo-ops executed across the search *)
  er_terminals : int;
  er_nodes : int;
  er_dup : int;
  er_seconds : float;
}

type t = {
  domains_available : int;
  ns_per_op : ns_row list;
  persist_events : persist_row list;
  explore : explore_row list;
}

let rate num seconds = if seconds > 0. then float_of_int num /. seconds else nan

let render t =
  let open Obs.Json in
  let rows f l = Arr (List.map (fun r -> Obj (f r)) l) in
  print_doc
    (Obj
       [
         ("schema", Str schema_version);
         ("domains_available", Int t.domains_available);
         ( "ns_per_op",
           rows
             (fun r -> [ ("section", Str r.ns_section); ("name", Str r.ns_name); ("ns", Float r.ns_ns) ])
             t.ns_per_op );
         ( "persist_events",
           rows
             (fun r ->
               [ ("op", Str r.pe_op); ("nprocs", Int r.pe_nprocs); ("accesses", Int r.pe_accesses) ])
             t.persist_events );
         ( "explore",
           rows
             (fun r ->
               [
                 ("section", Str r.er_section);
                 ("scenario", Str r.er_scenario);
                 ("nprocs", Int r.er_nprocs);
                 ("ops", Int r.er_ops);
                 ("jobs", Int r.er_jobs);
                 ("dedup", Bool r.er_dedup);
                 ("trail", Bool r.er_trail);
                 ("symmetry", Bool r.er_sym);
                 ("mode", Str r.er_mode);
                 ("persist", Str r.er_persist);
                 ("flushes", Int r.er_flushes);
                 ("fences", Int r.er_fences);
                 ("terminals", Int r.er_terminals);
                 ("nodes", Int r.er_nodes);
                 ("dup", Int r.er_dup);
                 ("seconds", Float r.er_seconds);
                 ("nodes_per_sec", Float (rate r.er_nodes r.er_seconds));
                 ("terminals_per_sec", Float (rate r.er_terminals r.er_seconds));
               ])
             t.explore );
       ])

let write ~path t = Out_channel.with_open_bin path (fun oc -> output_string oc (render t))
