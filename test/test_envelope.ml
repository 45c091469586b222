(* The artifact envelope (Json.Jsonl): the reader's typed errors, the
   truncated-tail rule, and a round trip of every versioned emitter
   through the reader with its own schema and with a foreign one. *)

open Elastic_core
open Elastic_metrics
module J = Json.Jsonl

let read text = J.read ~schema:"s/v1" ~header:Result.ok ~row:Result.ok text

let error =
  Alcotest.testable
    (fun ppf e -> Fmt.string ppf (J.error_to_string e))
    ( = )

let check_error name want text =
  match read text with
  | Ok _ -> Alcotest.failf "%s: read should fail" name
  | Error e -> Alcotest.check error name want e

(* --- the reader ------------------------------------------------------ *)

let test_reader_errors () =
  check_error "empty" J.Empty "";
  check_error "blank lines only" J.Empty "\n\n";
  (match read "{oops\n" with
   | Error (J.Not_json { line = 1; _ }) -> ()
   | _ -> Alcotest.fail "a bad header is Not_json on line 1");
  check_error "untagged header" (J.No_schema { line = 1 }) "{\"a\":1}\n";
  check_error "schema not first" (J.No_schema { line = 1 })
    "{\"a\":1,\"schema\":\"s/v1\"}\n";
  check_error "schema not a string" (J.No_schema { line = 1 })
    "{\"schema\":1}\n";
  check_error "foreign schema"
    (J.Wrong_schema { line = 1; found = "t/v1"; want = "s/v1" })
    "{\"schema\":\"t/v1\"}\n";
  (* Physical line numbers: the blank line 2 still counts. *)
  (match read "{\"schema\":\"s/v1\"}\n\n{\"r\":1}\nnope\n{\"r\":2}\n" with
   | Error (J.Not_json { line = 4; _ }) -> ()
   | _ -> Alcotest.fail "an interior bad line is Not_json on its line");
  match
    J.read ~schema:"s/v1" ~header:Result.ok
      ~row:(fun _ -> Error "no thanks")
      "{\"schema\":\"s/v1\"}\n{\"r\":1}\n"
  with
  | Error e ->
    Alcotest.check error "decoder refusal"
      (J.Bad_row { line = 2; msg = "no thanks" }) e
  | Ok _ -> Alcotest.fail "a refused row must fail"

let test_reader_truncated_tail () =
  let head = "{\"schema\":\"s/v1\",\"n\":2}\n{\"r\":1}\n" in
  (match read (head ^ "{\"r\":2}\n") with
   | Ok (_, rows, false) ->
     Alcotest.(check int) "two rows" 2 (List.length rows)
   | _ -> Alcotest.fail "a whole file reads untruncated");
  (match read (head ^ "{\"r\":") with
   | Ok (h, rows, true) ->
     Alcotest.(check int) "cut line dropped" 1 (List.length rows);
     Alcotest.(check bool) "header kept" true
       (Json.member "n" h = Some (Json.Int 2))
   | _ -> Alcotest.fail "a cut-off last line is dropped and flagged");
  (* The same bad line ending in a newline was written whole: corrupt. *)
  (match read (head ^ "{\"r\":\n") with
   | Error (J.Not_json { line = 3; _ }) -> ()
   | _ -> Alcotest.fail "a complete bad last line is an error");
  (* A last line that parses but does not decode follows the same rule. *)
  let row j =
    match Json.member "r" j with
    | Some (Json.Int r) -> Ok r
    | _ -> Error "no r"
  in
  (match J.read ~schema:"s/v1" ~header:Result.ok ~row (head ^ "{}") with
   | Ok (_, [ 1 ], true) -> ()
   | _ -> Alcotest.fail "an undecodable cut-off last line is dropped");
  match J.read ~schema:"s/v1" ~header:Result.ok ~row (head ^ "{}\n") with
  | Error (J.Bad_row { line = 3; _ }) -> ()
  | _ -> Alcotest.fail "an undecodable whole last line is an error"

let test_writer_shape () =
  let text =
    J.to_string ~schema:"s/v1" [ ("n", Json.Int 1) ]
      [ Json.Obj [ ("r", Json.Int 1) ] ]
  in
  Alcotest.(check string) "header first, one object per line"
    "{\"schema\":\"s/v1\",\"n\":1}\n{\"r\":1}\n" text;
  Alcotest.(check bool) "tag puts the schema first" true
    (J.tag ~schema:"s/v1" [ ("n", Json.Int 1) ]
     = Json.Obj [ ("schema", Json.Str "s/v1"); ("n", Json.Int 1) ])

(* --- every emitter --------------------------------------------------- *)

type artifact =
  | File of string  (** a JSONL file: header line, then rows *)
  | Docs of Json.t list  (** self-contained tagged documents *)

let emitters () =
  let fig1a = (Figures.fig1a ()).Figures.net in
  let trace =
    let net = (Figures.table1 ()).Figures.t1_net in
    let eng = Elastic_sim.Engine.create net in
    let tr = Elastic_trace.Tracer.attach ~capacity:4096 eng in
    Elastic_sim.Engine.run eng 10;
    Elastic_trace.Jsonl.to_string net (Elastic_trace.Tracer.events tr)
  in
  let metrics =
    let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:5 20 in
    let d = Examples.rs_speculative ~ops in
    let eng = Elastic_sim.Engine.create d.Examples.d_net in
    let rows = ref [] in
    let sampler =
      Sampler.create ~window:10
        ~on_window:(fun r -> rows := Sampler.jsonl_of_row r :: !rows)
        eng
    in
    Elastic_sim.Engine.set_observer eng (Some (Sampler.observe sampler));
    Elastic_sim.Engine.run eng 30;
    List.rev_map
      (fun line ->
         match Json.parse line with
         | Ok j -> j
         | Error m -> Alcotest.failf "metrics row: %s" m)
      !rows
  in
  (* fig1a -> fig1b with its own certificate proves; with an empty
     one it is refuted. *)
  let proof ~proved =
    let cert = Elastic_check.Cert.create () in
    let dst = (Figures.fig1b ~cert ()).Figures.net in
    let c =
      if proved then Elastic_check.Cert.certificate cert
      else { Elastic_check.Cert.steps = [] }
    in
    Elastic_check.Flow.jsonl ~design:"fig1b" ~cert:c
      (Elastic_check.Flow.verify ~design:"fig1b" ~source:fig1a ~derived:dst
         c)
  in
  let spans =
    let c = Elastic_obs.Collector.create () in
    Elastic_obs.Collector.prepare c ~tracks:1;
    let r = Elastic_obs.Collector.track c 0 in
    let sp = Elastic_obs.Recorder.enter r Elastic_obs.Span.Campaign "camp" in
    Elastic_obs.Recorder.leave r sp;
    Elastic_obs.Export.jsonl ~campaign:"camp" (Elastic_obs.Collector.spans c)
  in
  let checkpoint =
    let path = Filename.temp_file "envelope" ".jsonl" in
    Elastic_runner.Checkpoint.write ~path
      { Elastic_runner.Checkpoint.campaign = "camp"; command = None;
        shards = 1; seed = 7 }
      [ { Elastic_runner.Checkpoint.e_id = "camp/0000"; e_index = 0;
          e_attempts = 1; e_seconds = 0.5; e_samples = [] } ];
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    text
  in
  [ ("trace", Elastic_trace.Jsonl.schema, File trace);
    ("metrics", Sampler.schema, Docs metrics);
    ("lint", Elastic_lint.Lint.schema,
     File (Elastic_lint.Lint.jsonl ~design:"fig1a" fig1a
             (Elastic_lint.Lint.run fig1a)));
    ("proof (proved)", Elastic_check.Flow.schema, File (proof ~proved:true));
    ("proof (refuted)", Elastic_check.Flow.schema, File (proof ~proved:false));
    ("spans", Elastic_obs.Export.schema, File spans);
    ("checkpoint", Elastic_runner.Checkpoint.schema, File checkpoint);
    ("status", Elastic_runner.Status.schema,
     Docs [ Elastic_runner.Status.of_progress None ]);
    ("bench record", Gate.schema,
     Docs [ Gate.record ~experiment:"E0" ~title:"t" ~mode:"quick" [] ]) ]

let test_emitters_round_trip () =
  let other = "elastic-speculation/other/v1" in
  List.iter
    (fun (name, schema, artifact) ->
       let outcomes =
         match artifact with
         | File text ->
           let _ = Helpers.read_jsonl ~schema text in
           [ Result.map ignore
               (J.read ~schema:other ~header:Result.ok ~row:Result.ok text) ]
         | Docs [] -> Alcotest.failf "%s: no documents" name
         | Docs docs ->
           List.map
             (fun j ->
                (match J.check ~schema j with
                 | Ok () -> ()
                 | Error e ->
                   Alcotest.failf "%s: %s" name (J.error_to_string e));
                J.check ~schema:other j)
             docs
       in
       List.iter
         (function
           | Error (J.Wrong_schema { line = 1; found; want } as e) ->
             Alcotest.(check string) (name ^ ": found") schema found;
             Alcotest.(check string) (name ^ ": want") other want;
             let msg = J.error_to_string e in
             Alcotest.(check bool) (name ^ ": message names both") true
               (Helpers.contains msg schema && Helpers.contains msg other)
           | Ok () -> Alcotest.failf "%s: read under %s" name other
           | Error e ->
             Alcotest.failf "%s: expected Wrong_schema, got %s" name
               (J.error_to_string e))
         outcomes)
    (emitters ())

let suite =
  [ Alcotest.test_case "reader: typed errors" `Quick test_reader_errors;
    Alcotest.test_case "reader: only an unterminated last line is dropped"
      `Quick test_reader_truncated_tail;
    Alcotest.test_case "writer: header line, one object per line" `Quick
      test_writer_shape;
    Alcotest.test_case "every emitter round-trips under its own schema"
      `Quick test_emitters_round_trip ]
