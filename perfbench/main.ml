(* The repository benchmark.

     main.exe --workload sim-spec|campaign|explore --seed N --seconds S
              --trace 0|1 [--spans FILE]

   Prints a context line, then as its last line one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics (from traced passes, plus the
   tracing overhead) with --trace 1.  --spans writes the traced run's
   span ledger as JSONL.  Run it through run.py, which builds it. *)

module Engine = Elastic_sim.Engine

let usage () =
  prerr_endline
    "usage: main.exe --workload sim-spec|campaign|explore --seed N --seconds S \
     --trace 0|1 [--spans FILE]";
  exit 2

let args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg k = List.assoc_opt k args

let int_arg k ~default =
  match arg k with
  | None -> default
  | Some v -> (match int_of_string_opt v with Some n -> n | None -> usage ())

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  (match Sys.getenv_opt "ELASTIC_EVAL_MODE" with
   | Some v ->
     Printf.eprintf
       "refusing to run: ELASTIC_EVAL_MODE=%s would change the backend sim_cycles_per_s \
        measures; unset it\n"
       v;
     exit 2
   | None -> ());
  let workload = match arg "workload" with Some w -> w | None -> usage () in
  let cores = Domain.recommended_domain_count () in
  let env =
    { Harness.seed = int_arg "seed" ~default:0;
      seconds = float_of_int (int_arg "seconds" ~default:10);
      traced = int_arg "trace" ~default:0 = 1;
      workers = min 2 cores }
  in
  let run =
    match workload with
    | "sim-spec" -> Wl_sim.run
    | "campaign" -> Wl_campaign.run
    | "explore" -> Wl_explore.run
    | _ -> usage ()
  in
  let backend =
    Engine.mode_name (Engine.mode (Engine.create (snd (List.hd (Wl_explore.controllers ())))))
  in
  Printf.printf
    "{\"context\": {\"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"cores\": %d, \"campaign_workers\": %d, \"ocaml\": \"%s\", \"default_backend\": \"%s\"}}\n%!"
    workload env.Harness.seed env.Harness.seconds env.Harness.traced cores env.Harness.workers
    Sys.ocaml_version backend;
  let e2e, layers = run env in
  let spans = Tracing.spans () in
  let metrics, catalogue =
    if env.Harness.traced then begin
      let share = Tracing.accounted_share spans in
      if share < 0.95 then
        Harness.problem "traced layers account for %.1f%% of the wall time (< 95%%)"
          (100.0 *. share);
      ( [ ("trace.accounted_share", share);
          ("trace.spans", float_of_int (List.length spans));
          ("trace.overhead.peak_rss_mb",
           float_of_int (Obj.reachable_words (Obj.repr spans) * (Sys.word_size / 8))
           /. (1024.0 *. 1024.0) /. Harness.vm_hwm_mb ());
          ("context.cores", float_of_int cores);
          ("context.campaign_workers", float_of_int env.Harness.workers) ]
        @ layers,
        Catalogue.per_layer )
    end
    else (("peak_rss_mb", !Harness.peak_rss_mb) :: e2e, Catalogue.end_to_end)
  in
  (match arg "spans" with Some path -> Tracing.write_jsonl path spans | None -> ());
  List.iter
    (fun (k, _) ->
       if not (List.exists (fun (c : Catalogue.metric) -> String.equal c.Catalogue.name k) catalogue)
       then Harness.problem "metric %s is missing from the catalogue" k)
    metrics;
  let value (c : Catalogue.metric) =
    match List.assoc_opt c.Catalogue.name metrics with
    | Some v -> v
    | None when env.Harness.traced -> 0.0
    | None -> Harness.problem "end-to-end metric %s not measured" c.Catalogue.name; 0.0
  in
  let body =
    List.map
      (fun (c : Catalogue.metric) ->
         let v = value c in
         if not (Float.is_finite v) then Harness.problem "metric %s is not finite" c.Catalogue.name;
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" c.Catalogue.name
           (json_number v) c.Catalogue.unit)
      catalogue
  in
  let ops = Harness.ops in
  List.iter (Printf.eprintf "FAILED: %s\n") (List.rev ops.Harness.why);
  List.iter (Printf.eprintf "INCORRECT: %s\n") (List.rev !Harness.problems);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (ops.Harness.failed = 0 && !Harness.problems = [] && ops.Harness.attempted > 0)
    ops.Harness.attempted ops.Harness.failed (String.concat ", " body)
