(* The BENCH_service.json document (schema nrl-service/1): render a
   real (small) engine run and parse it back with Obs.Json, then audit
   the checked-in top-level BENCH_service.json — the crash-adversarial
   acceptance artifact — for the healthy-ledger invariants: every row
   has [recoveries = crashes] and zero conservation violations, and the
   document as a whole records at least 50 survived crashes.  The other
   two checked-in documents, BENCH_explore.json and BENCH_native.json,
   must parse too and carry their schema tags and row arrays. *)

module J = Obs.Json

let small_cfg mode =
  {
    Service.Engine.default with
    Service.Engine.shards = 1;
    sessions = 4;
    client_domains = 1;
    keys = 10;
    duration = 0.2;
    mode;
    crash_interval = 0.05;
    seed = 3;
  }

let render_small () =
  let cfg = small_cfg Service.Adversary.Poisson in
  let r = Service.Engine.run cfg in
  Service.Service_json.render
    {
      Service.Service_json.domains_available = Domain.recommended_domain_count ();
      seed = cfg.Service.Engine.seed;
      config = cfg;
      modes =
        [
          {
            Service.Service_json.m_result = r;
            m_crash_interval = cfg.Service.Engine.crash_interval;
          };
        ];
    }

let test_document_round_trips () =
  let doc = J.parse (render_small ()) in
  Alcotest.(check string) "schema tag" Service.Service_json.schema_version
    (J.to_string (J.member "schema" doc));
  Alcotest.(check bool) "domains honest" true
    (J.to_int (J.member "domains_available" doc) >= 1);
  Alcotest.(check int) "seed recorded" 3 (J.to_int (J.member "seed" doc));
  let cfg = J.member "config" doc in
  Alcotest.(check int) "shards" 1 (J.to_int (J.member "shards" cfg));
  Alcotest.(check int) "sessions" 4 (J.to_int (J.member "sessions" cfg));
  Alcotest.(check bool) "skew" true (J.to_float (J.member "skew" cfg) = 0.99);
  let rows = J.to_list (J.member "modes" doc) in
  Alcotest.(check int) "one row" 1 (List.length rows);
  let row = List.hd rows in
  Alcotest.(check string) "mode name" "poisson" (J.to_string (J.member "mode" row));
  let crashes = J.to_int (J.member "crashes" row) in
  Alcotest.(check int) "recoveries = crashes" crashes
    (J.to_int (J.member "recoveries" row));
  Alcotest.(check int) "schedule delivered in full" crashes
    (J.to_int (J.member "schedule_len" row));
  Alcotest.(check int) "no violations" 0
    (J.to_int (J.member "conservation_violations" row));
  List.iter
    (fun h ->
      List.iter
        (fun k -> ignore (J.to_float (J.member k (J.member h row))))
        [ "count"; "p50_ns"; "p99_ns"; "max_ns"; "mean_ns" ])
    [ "latency_ns"; "recovery_ns" ]

(* {1 The checked-in artifact} *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_checked_in_artifact () =
  let doc = J.parse (read_file "../BENCH_service.json") in
  Alcotest.(check string) "schema tag" "nrl-service/1" (J.to_string (J.member "schema" doc));
  Alcotest.(check bool) "domains honest" true
    (J.to_int (J.member "domains_available" doc) >= 1);
  (* config block present with the knobs the bench ran with *)
  let cfg = J.member "config" doc in
  List.iter
    (fun k -> ignore (J.to_float (J.member k cfg)))
    [
      "shards"; "sessions"; "client_domains"; "keys"; "skew"; "duration_s"; "deadline_ms";
      "queue_bound"; "shed_fraction"; "recrash_prob";
    ];
  let rows = J.to_list (J.member "modes" doc) in
  let mode_names = List.map (fun r -> J.to_string (J.member "mode" r)) rows in
  List.iter
    (fun m ->
      if not (List.mem m mode_names) then Alcotest.failf "mode %s missing from the artifact" m)
    [ "none"; "periodic"; "poisson"; "hot" ];
  let total_crashes = ref 0 in
  List.iter
    (fun row ->
      let mode = J.to_string (J.member "mode" row) in
      let geti k = J.to_int (J.member k row) in
      let crashes = geti "crashes" in
      total_crashes := !total_crashes + crashes;
      Alcotest.(check int) (mode ^ ": recoveries = crashes") crashes (geti "recoveries");
      Alcotest.(check int) (mode ^ ": schedule delivered") crashes (geti "schedule_len");
      Alcotest.(check int) (mode ^ ": zero violations") 0 (geti "conservation_violations");
      Alcotest.(check int) (mode ^ ": no giveups") 0 (geti "giveups");
      if mode <> "none" then begin
        Alcotest.(check bool) (mode ^ ": crashes injected") true (crashes > 0);
        Alcotest.(check bool)
          (mode ^ ": recovery times recorded")
          true
          (J.to_int (J.member "count" (J.member "recovery_ns" row)) >= crashes)
      end;
      Alcotest.(check bool) (mode ^ ": traffic flowed") true (geti "ok" > 0);
      ignore (J.to_float (J.member "throughput_rps" row));
      ignore (J.to_float (J.member "shed_rate" row)))
    rows;
  Alcotest.(check bool) "survived >= 50 injected crashes" true (!total_crashes >= 50)

(* The other two documents: schema tag, then every row of each array
   carries its keys with the right kinds ([num] admits [null], the
   rendering of a non-finite float). *)
let str j = ignore (J.to_string j)
let int j = ignore (J.to_int j)
let bool j = ignore (J.to_bool j)
let num = function J.Null -> () | j -> ignore (J.to_float j)

let check_document path schema arrays =
  let doc = J.parse (read_file path) in
  Alcotest.(check string) (path ^ " schema tag") schema (J.to_string (J.member "schema" doc));
  int (J.member "domains_available" doc);
  List.iter
    (fun (name, fields) ->
      let rows = J.to_list (J.member name doc) in
      Alcotest.(check bool) (name ^ " has rows") true (rows <> []);
      List.iter (fun row -> List.iter (fun (k, check) -> check (J.member k row)) fields) rows)
    arrays

let test_checked_in_explore () =
  check_document "../BENCH_explore.json" Workload.Bench_json.schema_version
    [
      ("ns_per_op", [ ("section", str); ("name", str); ("ns", num) ]);
      ("persist_events", [ ("op", str); ("nprocs", int); ("accesses", int) ]);
      ( "explore",
        [
          ("section", str); ("scenario", str); ("nprocs", int); ("ops", int); ("jobs", int);
          ("dedup", bool); ("trail", bool); ("symmetry", bool); ("mode", str); ("persist", str);
          ("flushes", int); ("fences", int); ("terminals", int); ("nodes", int); ("dup", int);
          ("seconds", num); ("nodes_per_sec", num); ("terminals_per_sec", num);
        ] );
    ]

let test_checked_in_native () =
  check_document "../BENCH_native.json" Runtime.Bench_native_json.schema_version
    [
      ( "throughput",
        [
          ("object", str); ("impl", str); ("mode", str); ("width", int); ("domains", int);
          ("ops", int); ("seconds", num); ("ops_per_sec", num);
        ] );
      ("latency", [ ("name", str); ("ns", num) ]);
      ("alloc_per_op", [ ("name", str); ("words", num) ]);
    ]

let suite =
  [
    Alcotest.test_case "live engine run renders strict JSON" `Quick test_document_round_trips;
    Alcotest.test_case "checked-in BENCH_service.json is healthy" `Quick
      test_checked_in_artifact;
    Alcotest.test_case "checked-in BENCH_explore.json parses" `Quick test_checked_in_explore;
    Alcotest.test_case "checked-in BENCH_native.json parses" `Quick test_checked_in_native;
  ]
