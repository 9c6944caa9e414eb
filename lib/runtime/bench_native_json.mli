(** The [BENCH_native.json] document (schema ["nrl-native/1"]) written
    by [nrlsim bench-native]: native-runtime throughput, latency and
    allocation rows, rendered with {!Obs.Json.print_doc} like its
    sibling {!Workload.Bench_json} for the simulator suite. *)

val schema_version : string

type tp_row = {
  tp_object : string;  (** ["cas"], ["counter"], ["faa"] or ["stack"] *)
  tp_impl : string;  (** ["recoverable"] or ["plain"] *)
  tp_mode : string;  (** ["contended"] or ["uncontended"] *)
  tp_width : int;  (** number of locations in the contention array *)
  tp_domains : int;
  tp_ops : int;  (** summed per-domain op counters; CAS rows count attempts *)
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

val render : t -> string
val write : path:string -> t -> unit
