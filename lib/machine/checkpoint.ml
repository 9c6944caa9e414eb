(** Versioned on-disk checkpoints for resumable exploration.

    A checkpoint captures everything {!Explore.sweep} needs to continue a
    partitioned search after the process is killed: the scenario stamp
    (so a resume with different parameters is rejected rather than
    silently diverging), the pending task set — each task's root
    identified by its {e decision path} from the search root, with the
    crash budget consumed on that path recorded explicitly — the
    statistics and metric views accumulated from completed tasks, and
    (once the search finished) the final verdict.

    {b Format.}  NDJSON, schema ["nrl-checkpoint/3"], first line a [meta]
    record carrying the schema tag.  One line per scenario pair, one
    [totals] line, one line per task (the index is implicit), one line
    per metric view ({!Obs.Trace.metric_record}, the [nrl-trace/1]
    metric records), and at most one [result] line.  The format is
    append-free: every {!save} rewrites the whole file.  Lines are
    written and read by {!Obs.Json}.

    Version 3 adds the ["k<mask>"] decision token for full-system crash
    decisions ({!Schedule.Dcrash_sys}) used by explicit-persist
    exploration; version-2 and version-1 files contain no such tokens and
    still load unchanged.  Version 2 (the work-stealing engine) persists
    only the {e pending} task set — the totals/metrics cover exactly the
    completed work, so done flags became redundant.  Version-1 files
    (full partition plus per-task done flags) are still loaded; their
    done tasks are simply skipped by the resuming engine.

    {b Atomicity.}  {!save} writes to [path ^ ".tmp"] and renames over
    [path] ([Sys.rename] is atomic on POSIX), so a kill mid-checkpoint
    leaves the previous valid file in place. *)

let schema_version = "nrl-checkpoint/3"

(* accepted on load; [save] always writes the current version *)
let compatible_schemas = [ schema_version; "nrl-checkpoint/2"; "nrl-checkpoint/1" ]

let json_escape = Obs.Json.escape

(* ---------- decision paths ---------- *)

let decision_token = function
  | Schedule.Dstep p -> "s" ^ string_of_int p
  | Schedule.Dcrash p -> "c" ^ string_of_int p
  | Schedule.Dcrash_sys mask -> "k" ^ string_of_int mask  (* new in schema v3 *)
  | Schedule.Drecover p -> "r" ^ string_of_int p
  | Schedule.Dhalt -> "h"

let decision_of_token tok =
  let fail () = failwith (Printf.sprintf "Checkpoint: bad decision token %S" tok) in
  if tok = "h" then Schedule.Dhalt
  else if String.length tok < 2 then fail ()
  else
    (* decimal digits only: int_of_string alone also takes "0x1", "1_0", "-2" *)
    let arg = String.sub tok 1 (String.length tok - 1) in
    match int_of_string_opt arg with
    | Some p when String.for_all (fun c -> c >= '0' && c <= '9') arg -> (
      match tok.[0] with
      | 's' -> Schedule.Dstep p
      | 'c' -> Schedule.Dcrash p
      | 'k' -> Schedule.Dcrash_sys p
      | 'r' -> Schedule.Drecover p
      | _ -> fail ())
    | _ -> fail ()

let path_to_string path = String.concat " " (List.map decision_token path)

let path_of_string s =
  String.split_on_char ' ' s
  |> List.filter (fun tok -> tok <> "")
  |> List.map decision_of_token

(* ---------- the checkpoint ---------- *)

type totals = {
  ck_nodes : int;
  ck_terminals : int;
  ck_truncated : int;
  ck_dup : int;
}

type task = {
  ck_path : Schedule.decision list;  (** decisions from the search root, in order *)
  ck_crashes : int;  (** crash budget consumed on the path *)
  ck_done : bool;
}

type t = {
  scenario : (string * string) list;
      (** what was being explored, as printable key/value pairs; a resume
          must present an equal stamp *)
  tasks : task array;
  totals : totals;
      (** statistics accumulated so far: expansion plus completed tasks
          (in-flight work is discarded at a kill and re-run on resume, so
          these are exact) *)
  metrics : (string * Obs.Metrics.view) list;
      (** metric views accumulated on the same basis as [totals] *)
  result : (string * string) option;
      (** final [(verdict, detail)] once the search finished —
          [("clean", "")] or [("violation", reason)]; [None] while
          resumable *)
}

let save ~path t =
  let open Obs.Json in
  let record ty fs = Obj (("type", Str ty) :: fs) in
  let totals =
    record "totals"
      [
        ("nodes", Int t.totals.ck_nodes);
        ("terminals", Int t.totals.ck_terminals);
        ("truncated", Int t.totals.ck_truncated);
        ("dup", Int t.totals.ck_dup);
      ]
  in
  let task tk =
    record "task"
      [
        ("path", Str (path_to_string tk.ck_path));
        ("crashes", Int tk.ck_crashes);
        ("done", Bool tk.ck_done);
      ]
  in
  let result =
    match t.result with
    | Some (verdict, detail) -> [ record "result" [ ("verdict", Str verdict); ("reason", Str detail) ] ]
    | None -> []
  in
  write_ndjson ~path
    ((Obj [ ("schema", Str schema_version); ("type", Str "meta") ]
     :: List.map (fun (k, v) -> record "scenario" [ ("k", Str k); ("v", Str v) ]) t.scenario)
    @ (totals :: List.map task (Array.to_list t.tasks))
    @ List.map (fun (name, v) -> Obs.Trace.metric_record name v) t.metrics
    @ result)

let load path =
  let scenario = ref [] and tasks = ref [] and metrics = ref [] and result = ref None in
  let totals = ref { ck_nodes = 0; ck_terminals = 0; ck_truncated = 0; ck_dup = 0 } in
  let record j =
    let open Obs.Json in
    let str k = to_string (member k j) and int k = to_int (member k j) in
    match Obs.Trace.metric_of_record j with
    | Some m -> metrics := m :: !metrics
    | None -> (
      match str "type" with
      | "scenario" -> scenario := (str "k", str "v") :: !scenario
      | "totals" ->
        totals :=
          {
            ck_nodes = int "nodes";
            ck_terminals = int "terminals";
            ck_truncated = int "truncated";
            ck_dup = int "dup";
          }
      | "task" ->
        tasks :=
          {
            ck_path = path_of_string (str "path");
            ck_crashes = int "crashes";
            ck_done = to_bool (member "done" j);
          }
          :: !tasks
      | "result" -> result := Some (str "verdict", str "reason")
      | ty -> raise (Malformed (Printf.sprintf "unknown record type %S" ty)))
  in
  Obs.Json.read_ndjson ~what:"checkpoint" ~schemas:compatible_schemas path record
  |> Result.map (fun () ->
         {
           scenario = List.rev !scenario;
           tasks = Array.of_list (List.rev !tasks);
           totals = !totals;
           metrics = List.rev !metrics;
           result = !result;
         })
