(* Obs.Json, the one codec every NDJSON record and BENCH document goes
   through: the strict number and string grammar, print/parse
   round-trips on random trees, and the two NDJSON loaders built on it
   (Machine.Checkpoint, Fuzz.Corpus) rejecting corrupt files with an
   [Error], never an exception or a silently wrong value.  Checkpoints
   cut at every byte are covered by test_resilience.ml. *)

module J = Obs.Json
module Checkpoint = Machine.Checkpoint
module Corpus = Fuzz.Corpus

(* {1 The grammar} *)

let test_rejects () =
  List.iter
    (fun s ->
      match J.parse s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception J.Malformed _ -> ())
    [
      (* numbers outside the grammar or out of range *)
      "+1"; ".5"; "01"; "1."; "-"; "1e"; "1e+"; "0x10"; "1_000"; "1e400"; "-1e400"; "NaN";
      "4611686018427387904"; "-4611686018427387905";
      (* lone surrogates, bad hex, unknown escapes, raw control characters *)
      {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83dA"|}; {|"\ude00"|}; {|"\u00zz"|}; {|"\u12"|};
      {|"\x"|}; "\"a\tb\""; "\"a\nb\""; "\"unterminated";
      (* structure *)
      ""; "{"; "[1,]"; {|{"a":1,}|}; {|{"a"}|}; "{1:2}"; "[1 2]"; "tru"; "{} {}"; "1 x";
    ]

let test_accepts () =
  List.iter
    (fun (s, v) -> Alcotest.(check bool) s true (J.parse s = v))
    [
      ("-0", J.Int 0); ("4611686018427387903", J.Int max_int);
      ("-4611686018427387904", J.Int min_int); ("-0.25", J.Float (-0.25));
      ("1e19", J.Float 1e19); ("2E-3", J.Float 0.002);
      (" [1 , {\"a\" : null}] ", J.Arr [ J.Int 1; J.Obj [ ("a", J.Null) ] ]);
      ({|"\u0100"|}, J.Str "\xc4\x80"); ({|"\ud83d\ude00"|}, J.Str "\xf0\x9f\x98\x80");
      ({|"\"\\\/\b\f\n\r\t"|}, J.Str "\"\\/\b\012\n\r\t");
    ]

let test_typed_access_and_printing () =
  List.iter
    (fun s ->
      match J.to_int (J.parse s) with
      | n -> Alcotest.failf "to_int %s = %d" s n
      | exception J.Malformed _ -> ())
    [ "1.5"; "1e19"; "1e3"; "2.0"; "null"; {|"1"|} ];
  Alcotest.(check (float 0.)) "to_float takes an Int" 7. (J.to_float (J.Int 7));
  Alcotest.(check string) "floats: shortest round-trip, kept a float; non-finite is null"
    {|[0.1,2.0,-0.0,1e+20,0.33333333333333331,null,null]|}
    (J.print
       (J.Arr (List.map (fun f -> J.Float f) [ 0.1; 2.; -0.; 1e20; 1. /. 3.; nan; neg_infinity ])));
  Alcotest.(check string) "control characters are escaped" {|"\t\r\n\u0001\u001f"|}
    (J.print (J.Str "\t\r\n\001\031"))

(* {1 Round-trips} *)

let gen_tree =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_bound 8) in
  let finite = map Int64.float_of_bits ui64 |> map (fun f -> if Float.is_finite f then f else 0.5) in
  let scalar =
    oneof
      [
        pure J.Null; map (fun b -> J.Bool b) bool; map (fun i -> J.Int i) int;
        map (fun f -> J.Float f) finite; map (fun s -> J.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> J.Arr l) (list_size (int_bound 4) (self (n / 4))));
               (1, map (fun l -> J.Obj l) (list_size (int_bound 4) (pair str (self (n / 4)))));
             ])

let prop_roundtrip =
  QCheck2.Test.make ~name:"json: parse (print v) = v" ~count:500 ~print:J.print gen_tree (fun v ->
      J.parse (J.print v) = v && J.parse (J.print_doc v) = v)

(* {1 The NDJSON loaders} *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("nrl_json_test_" ^ name)

let write path content = Out_channel.with_open_bin path (fun oc -> output_string oc content)

(* Each loader with a valid header and one record carrying an integer
   count, so a case can corrupt exactly that count. *)
let loaders =
  [
    ( "checkpoint",
      (fun p -> Result.map ignore (Checkpoint.load p)),
      {|{"schema":"nrl-checkpoint/3","type":"meta"}|},
      Printf.sprintf {|{"type":"totals","nodes":%s,"terminals":0,"truncated":0,"dup":0}|} );
    ( "corpus",
      (fun p -> Result.map ignore (Corpus.load p)),
      {|{"schema":"nrl-corpus/1"}|},
      Printf.sprintf
        {|{"type":"progress","next":%s,"runs":0,"new_coverage":0,"violations":0,"shrink_steps":0,"corpus_entries":0}|}
    );
  ]

let test_loaders_reject_malformed () =
  List.iter
    (fun (what, load, header, count) ->
      let load_file name content =
        let p = tmp name in
        Option.iter (write p) content;
        let r =
          try load p
          with e -> Alcotest.failf "%s loader raised %s on %s" what (Printexc.to_string e) name
        in
        if Sys.file_exists p then Sys.remove p;
        r
      in
      let good = count "7" in
      (match load_file "good" (Some (header ^ "\n" ^ good ^ "\n")) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: rejected a valid file: %s" what e);
      List.iter
        (fun (case, content) ->
          match load_file case content with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "%s loader accepted %s" what case)
        [
          ("missing file", None);
          ("empty file", Some "");
          ("blank lines only", Some "\n  \n");
          ("wrong schema", Some {|{"schema":"nrl-other/999"}|});
          ("junk line", Some (header ^ "\nnot json\n"));
          ("unknown record type", Some (header ^ "\n" ^ {|{"type":"mystery"}|} ^ "\n"));
          ("count 1.5", Some (header ^ "\n" ^ count "1.5" ^ "\n"));
          ("count 1e400", Some (header ^ "\n" ^ count "1e400" ^ "\n"));
          ("count 1e19", Some (header ^ "\n" ^ count "1e19" ^ "\n"));
          ("count beyond int", Some (header ^ "\n" ^ count "99999999999999999999" ^ "\n"));
          ("record cut mid-line", Some (header ^ "\n" ^ String.sub good 0 (String.length good / 2)));
        ])
    loaders

let suite =
  [
    Alcotest.test_case "strict grammar rejects" `Quick test_rejects;
    Alcotest.test_case "valid JSON decodes exactly" `Quick test_accepts;
    Alcotest.test_case "typed access; float rule" `Quick test_typed_access_and_printing;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "loaders reject malformed input" `Quick test_loaders_reject_malformed;
  ]
