(** Machine-readable benchmark output: the [BENCH_explore.json] document
    the bench harness writes with [--json], tracked across PRs as a CI
    artifact.  Living in the library (rather than the harness) so the
    test suite can validate the emitted schema. *)

val schema_version : string
(** ["nrl-bench/4"].  Version 3 lacked the [persist]/[flushes]/[fences]
    fields on [explore] rows; version 2 also lacked [symmetry]; version
    1 had only an [ns_per_op] array (left empty by the explore-only CI
    smoke run) and [explore] rows without the
    [section]/[trail]/[mode]/[terminals_per_sec] fields. *)

type ns_row = {
  ns_section : string;  (** the table or figure tag, e.g. ["T1"] *)
  ns_name : string;
  ns_ns : float;  (** estimated ns per operation; [nan] emits [null] *)
}

type persist_row = {
  pe_op : string;
  pe_nprocs : int;
  pe_accesses : int;  (** shared accesses = persist events, table T5 *)
}

type explore_row = {
  er_section : string;
      (** ["T6"] (work-stealing jobs scaling), ["T7"] (throughput),
          ["T8"] (symmetry quotienting) or ["T9"] (persistency-model
          cost) *)
  er_scenario : string;
  er_nprocs : int;
  er_ops : int;
  er_jobs : int;
  er_dedup : bool;
  er_trail : bool;  (** in-place backtracking vs clone-per-branch *)
  er_sym : bool;  (** process-symmetry quotienting active for this run *)
  er_mode : string;
      (** ["dfs"] (no checking), ["check-terminal"] or
          ["check-incremental"] *)
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
      (** [Domain.recommended_domain_count ()] on the measuring host;
          jobs-scaling rows above this are oversubscription measurements *)
  ns_per_op : ns_row list;
  persist_events : persist_row list;
  explore : explore_row list;
}

val render : t -> string
(** The complete JSON document, via {!Obs.Json.print_doc} (rates
    [nodes_per_sec] and [terminals_per_sec] are derived here; non-finite
    floats emit [null]). *)

val write : path:string -> t -> unit
