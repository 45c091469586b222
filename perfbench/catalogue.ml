(* Every metric the benchmark prints, with its unit.  BENCHMARK.json
   lists the same names with the direction that is better; METRICS.md
   says what each one means and which end-to-end metric it should move
   on which workload.  A workload that does not touch a layer prints
   that layer's metrics as 0. *)

type metric = { name : string; unit : string }

let m unit name = { name; unit }

let end_to_end =
  [ m "1/s" "sim_cycles_per_s";
    m "1/s" "ops_per_s";
    m "s" "setup_s";
    m "MB" "peak_rss_mb" ]

let per_layer =
  [ m "s" "sim.settle_s";
    m "s" "sim.step_other_s";
    m "s" "sim.compile_s";
    m "count" "sim.evals_per_cycle";
    m "count" "sim.max_settle_passes";
    m "ns" "sim.ns_per_eval";
    m "s" "sim.arena.settle_s";
    m "s" "sim.arena.step_other_s";
    m "1/s" "sim.arena.cycles_per_s";
    m "words" "gc.minor_words_per_cycle";
    m "count" "gc.minor_collections";
    m "count" "gc.major_collections";
    m "s" "fault.check_s_p50";
    m "s" "fault.check_s_p95";
    m "s" "fault.golden_run_s";
    m "ratio" "fault.golden_share";
    m "s" "runner.busy_s";
    m "ratio" "runner.utilization";
    m "count" "runner.retries";
    m "count" "runner.steals";
    m "s" "check.explore_s";
    m "1/s" "check.states_per_s";
    m "us" "check.us_per_transition";
    m "s" "check.prove_s";
    m "s" "core.equiv_s";
    m "s" "core.derive_s";
    m "ratio" "calib.slowdown";
    m "ratio" "trace.accounted_share";
    m "count" "trace.spans" ]
  @ List.map (fun e -> m "ratio" ("trace.overhead." ^ e.name)) end_to_end
  @ [ m "count" "context.cores"; m "count" "context.campaign_workers" ]
  @ List.concat_map
      (fun d ->
         [ m "1/cycle" ("model." ^ d ^ ".tokens_per_cycle");
           m "count" ("model." ^ d ^ ".kills");
           m "count" ("model." ^ d ^ ".mispredictions") ])
      [ "vl"; "rs" ]
  @ List.map (fun l -> m "count" ("model.campaign." ^ l)) Wl_campaign.labels
  @ [ m "cycles" "model.campaign.max_penalty" ]
  @ List.concat_map
      (fun t ->
         [ m "count" ("model.explore." ^ t ^ ".states");
           m "count" ("model.explore." ^ t ^ ".transitions") ])
      Wl_explore.target_names
