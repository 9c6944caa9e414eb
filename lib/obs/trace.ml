let schema_version = "nrl-trace/1"

type value = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

type t = { oc : out_channel; m : Mutex.t; mutable closed : bool }

(* Flush after every record: the sink's guarantee is that a run killed at
   any point — including by an uncatchable SIGKILL — leaves a parseable
   NDJSON prefix on disk, never a line cut mid-record by stdlib
   buffering. *)
let line t record =
  let s = Json.print record in
  Mutex.lock t.m;
  if not t.closed then begin
    output_string t.oc s;
    output_char t.oc '\n';
    flush t.oc
  end;
  Mutex.unlock t.m

let rec create ~path =
  let oc = open_out path in
  let t = { oc; m = Mutex.create (); closed = false } in
  (* Belt and braces for catchable exits: flush-per-line already bounds
     loss to the record being written, but a clean [at_exit] close also
     releases the descriptor on normal termination paths that forget to
     call {!close}. *)
  at_exit (fun () -> close t);
  line t
    (Obj
       [ ("schema", Str schema_version); ("type", Str "meta"); ("clock", Str "ns-since-process-start") ]);
  t

and close t =
  Mutex.lock t.m;
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc
  end;
  Mutex.unlock t.m

let with_fields fs record = Obj (if fs = [] then record else record @ [ ("fields", Obj fs) ])

let event ?ts_ns t ~name fs =
  let ts = match ts_ns with Some ts -> ts | None -> Clock.now_ns () in
  line t (with_fields fs [ ("type", Str "event"); ("name", Str name); ("ts_ns", Int ts) ])

let span t ~name ~start_ns ~dur_ns fs =
  line t
    (with_fields fs
       [ ("type", Str "span"); ("name", Str name); ("start_ns", Int start_ns); ("dur_ns", Int dur_ns) ])

let metric_record name (v : Metrics.view) =
  let record ty fs = Obj ([ ("type", Str ty); ("name", Str name) ] @ fs) in
  match v with
  | Metrics.Counter n -> record "counter" [ ("value", Int n) ]
  | Metrics.Timer { ns; intervals } -> record "timer" [ ("ns", Int ns); ("intervals", Int intervals) ]
  | Metrics.Histogram { count; sum; max_value; buckets } ->
    record "histogram"
      [
        ("count", Int count);
        ("sum", Int sum);
        ("max", Int max_value);
        ("buckets", Arr (List.map (fun (le, n) -> Obj [ ("le", Int le); ("n", Int n) ]) buckets));
      ]

let metric_of_record j =
  let int k = Json.to_int (Json.member k j) in
  let view =
    match Json.to_string (Json.member "type" j) with
    | "counter" -> Some (Metrics.Counter (int "value"))
    | "timer" -> Some (Metrics.Timer { ns = int "ns"; intervals = int "intervals" })
    | "histogram" ->
      let bucket b = (Json.to_int (Json.member "le" b), Json.to_int (Json.member "n" b)) in
      Some
        (Metrics.Histogram
           {
             count = int "count";
             sum = int "sum";
             max_value = int "max";
             buckets = List.map bucket (Json.to_list (Json.member "buckets" j));
           })
    | _ -> None
  in
  Option.map (fun v -> (Json.to_string (Json.member "name" j), v)) view

let metrics t reg = List.iter (fun (name, v) -> line t (metric_record name v)) (Metrics.to_list reg)
