(* The machine-readable benchmark schema (Workload.Bench_json): the
   document CI archives as BENCH_explore.json must parse as JSON and
   carry the fields downstream tooling keys on. *)

module B = Workload.Bench_json
open Obs.Json

(* {1 A representative document} *)

let sample () =
  {
    B.domains_available = 2;
    ns_per_op =
      [
        { B.ns_section = "T1"; ns_name = "plain \"write\""; ns_ns = 12.5 };
        { B.ns_section = "T4"; ns_name = "machine step only"; ns_ns = nan };
      ];
    persist_events = [ { B.pe_op = "register WRITE"; pe_nprocs = 2; pe_accesses = 3 } ];
    explore =
      [
        {
          B.er_section = "T6";
          er_scenario = "register";
          er_nprocs = 3;
          er_ops = 1;
          er_jobs = 2;
          er_dedup = false;
          er_trail = true;
          er_sym = false;
          er_mode = "check-terminal";
          er_persist = "instant";
          er_flushes = 0;
          er_fences = 0;
          er_terminals = 45002;
          er_nodes = 265631;
          er_dup = 0;
          er_seconds = 0.5;
        };
        {
          B.er_section = "T7";
          er_scenario = "register";
          er_nprocs = 3;
          er_ops = 1;
          er_jobs = 1;
          er_dedup = false;
          er_trail = false;
          er_sym = true;
          er_mode = "dfs";
          er_persist = "explicit";
          er_flushes = 5021;
          er_fences = 12;
          er_terminals = 10;
          er_nodes = 100;
          er_dup = 0;
          er_seconds = 0.;
        };
      ];
  }

let test_parses_and_keys () =
  let doc = parse (B.render (sample ())) in
  Alcotest.(check string) "schema tag" B.schema_version (to_string (member "schema" doc));
  Alcotest.(check int) "domains" 2 (to_int (member "domains_available" doc));
  let ns = to_list (member "ns_per_op" doc) in
  Alcotest.(check int) "ns rows survive (array non-empty)" 2 (List.length ns);
  let r0 = List.hd ns in
  Alcotest.(check string) "ns section" "T1" (to_string (member "section" r0));
  Alcotest.(check string) "escaped name round-trips" "plain \"write\""
    (to_string (member "name" r0));
  Alcotest.(check bool) "ns value" true (to_float (member "ns" r0) = 12.5);
  Alcotest.(check bool) "nan becomes null" true (member "ns" (List.nth ns 1) = Null);
  let pe = List.hd (to_list (member "persist_events" doc)) in
  Alcotest.(check string) "persist op" "register WRITE" (to_string (member "op" pe));
  Alcotest.(check int) "persist accesses" 3 (to_int (member "accesses" pe))

let test_explore_rows () =
  let doc = parse (B.render (sample ())) in
  let rows = to_list (member "explore" doc) in
  Alcotest.(check int) "both sections present" 2 (List.length rows);
  let t6 = List.hd rows and t7 = List.nth rows 1 in
  Alcotest.(check string) "T6 tagged" "T6" (to_string (member "section" t6));
  Alcotest.(check bool) "trail recorded" true (to_bool (member "trail" t6));
  Alcotest.(check bool) "symmetry recorded (off)" false (to_bool (member "symmetry" t6));
  Alcotest.(check bool) "symmetry recorded (on)" true (to_bool (member "symmetry" t7));
  Alcotest.(check string) "mode recorded" "check-terminal" (to_string (member "mode" t6));
  Alcotest.(check string) "persist model recorded (instant)" "instant"
    (to_string (member "persist" t6));
  Alcotest.(check int) "instant rows carry zero flushes" 0
    (to_int (member "flushes" t6));
  Alcotest.(check string) "persist model recorded (explicit)" "explicit"
    (to_string (member "persist" t7));
  Alcotest.(check int) "flush count survives" 5021
    (to_int (member "flushes" t7));
  Alcotest.(check int) "fence count survives" 12
    (to_int (member "fences" t7));
  Alcotest.(check bool) "nodes/s derived" true
    (Float.abs (to_float (member "nodes_per_sec" t6) -. (265631. /. 0.5)) < 1.);
  Alcotest.(check bool) "terminals/s derived" true
    (Float.abs (to_float (member "terminals_per_sec" t6) -. (45002. /. 0.5)) < 1.);
  Alcotest.(check string) "T7 clone baseline row" "dfs" (to_string (member "mode" t7));
  Alcotest.(check bool) "zero-duration rate is null, not inf" true
    (member "nodes_per_sec" t7 = Null)

let suite =
  [
    Alcotest.test_case "document parses; ns and persist rows" `Quick test_parses_and_keys;
    Alcotest.test_case "explore rows carry trail/mode/rates" `Quick test_explore_rows;
  ]
