(** On-disk fuzzing corpus: NDJSON, schema ["nrl-corpus/1"].

    The file is the campaign's whole resumable state: the stamp of what
    was being fuzzed, one record per coverage-increasing seed (with the
    fingerprint hashes it discovered, so the global coverage set
    reconstructs exactly on resume), one record per violation (with its
    shrunk reproducer), a progress record with the next index and the
    running statistics, and — once the campaign ran its budget — a result
    record.  Like {!Machine.Checkpoint}: saves are atomic
    (write-to-temporary then rename), loads are strict, and nothing
    nondeterministic (no timestamps) is written, so a fixed-seed campaign
    produces a byte-identical file however often it is re-run or
    resumed. *)

let schema_version = "nrl-corpus/1"

type entry = {
  e_index : int;
  e_desc : string;
  e_cov : int list;  (** fingerprint hashes this run saw first, in order *)
}

type violation = {
  x_index : int;
  x_desc : string;
  x_reason : string;
  x_shrunk : string option;  (** minimised descriptor, when shrinking ran *)
  x_shrunk_reason : string option;
  x_shrink_steps : int;
}

type stats = {
  runs : int;
  new_coverage : int;
  violations : int;
  shrink_steps : int;
  corpus_entries : int;
}

let zero_stats = { runs = 0; new_coverage = 0; violations = 0; shrink_steps = 0; corpus_entries = 0 }

type t = {
  stamp : (string * string) list;
  entries : entry list;  (** in discovery order *)
  violations : violation list;  (** in discovery order *)
  next : int;  (** first seed index not yet run *)
  stats : stats;
  result : (string * string) option;
}

(* {2 Writing} *)

let save ~path t =
  let open Obs.Json in
  let record ty fs = Obj (("type", Str ty) :: fs) in
  let entry e =
    record "entry"
      [
        ("index", Int e.e_index);
        ("desc", Str e.e_desc);
        ("cov", Arr (List.map (fun h -> Int h) e.e_cov));
      ]
  in
  let violation x =
    let shrunk =
      match x.x_shrunk, x.x_shrunk_reason with
      | Some d, Some r -> [ ("shrunk", Str d); ("shrunk_reason", Str r) ]
      | _ -> []
    in
    record "violation"
      ([ ("index", Int x.x_index); ("desc", Str x.x_desc); ("reason", Str x.x_reason) ]
      @ shrunk
      @ [ ("shrink_steps", Int x.x_shrink_steps) ])
  in
  let progress =
    record "progress"
      [
        ("next", Int t.next);
        ("runs", Int t.stats.runs);
        ("new_coverage", Int t.stats.new_coverage);
        ("violations", Int t.stats.violations);
        ("shrink_steps", Int t.stats.shrink_steps);
        ("corpus_entries", Int t.stats.corpus_entries);
      ]
  in
  let result =
    match t.result with
    | Some (verdict, detail) -> [ record "result" [ ("verdict", Str verdict); ("detail", Str detail) ] ]
    | None -> []
  in
  write_ndjson ~path
    ((Obj [ ("schema", Str schema_version) ]
     :: List.map (fun (k, v) -> record "stamp" [ ("key", Str k); ("value", Str v) ]) t.stamp)
    @ List.map entry t.entries
    @ List.map violation t.violations
    @ (progress :: result))

(* {2 Reading} *)

let load path =
  let stamp = ref [] and entries = ref [] and violations = ref [] in
  let next = ref 0 and stats = ref zero_stats and result = ref None in
  let record j =
    let open Obs.Json in
    let str k = to_string (member k j) and int k = to_int (member k j) in
    match str "type" with
    | "stamp" -> stamp := (str "key", str "value") :: !stamp
    | "entry" ->
      entries :=
        {
          e_index = int "index";
          e_desc = str "desc";
          e_cov = List.map to_int (to_list (member "cov" j));
        }
        :: !entries
    | "violation" ->
      let opt_str k = Option.map to_string (member_opt k j) in
      violations :=
        {
          x_index = int "index";
          x_desc = str "desc";
          x_reason = str "reason";
          x_shrunk = opt_str "shrunk";
          x_shrunk_reason = opt_str "shrunk_reason";
          x_shrink_steps = int "shrink_steps";
        }
        :: !violations
    | "progress" ->
      next := int "next";
      stats :=
        {
          runs = int "runs";
          new_coverage = int "new_coverage";
          violations = int "violations";
          shrink_steps = int "shrink_steps";
          corpus_entries = int "corpus_entries";
        }
    | "result" -> result := Some (str "verdict", str "detail")
    | other -> raise (Malformed (Printf.sprintf "unknown record type %S" other))
  in
  Obs.Json.read_ndjson ~what:"corpus" ~schemas:[ schema_version ] path record
  |> Result.map (fun () ->
         {
           stamp = List.rev !stamp;
           entries = List.rev !entries;
           violations = List.rev !violations;
           next = !next;
           stats = !stats;
           result = !result;
         })
