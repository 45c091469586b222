(* Reproduction harness: regenerates every table and figure of the
   paper's evaluation and runs one Bechamel micro-benchmark per
   experiment.

   Experiments (see DESIGN.md section 4 and EXPERIMENTS.md):
     E1  Table 1        — cycle-exact trace of Fig. 1(d)
     E2  Fig. 1(a-d)    — design points + prediction-accuracy sweep
     E3  Figs. 2/3/5    — exhaustive verification of the EB controllers
     E4  Fig. 4         — shared module + scheduler leads-to verification
     E5  Fig. 6 / §5.1  — variable-latency ALU, stalling vs speculative
     E6  Fig. 7 / §5.2  — SECDED-protected adder, ±speculation
     E7  §5.2 + faults  — adversarial injection campaigns (lib/fault)
     E8  runner         — the E7 campaign at 1, 2, 4 and 8 workers
     E9  arena          — settle speedup over the reference fixpoint
     E10 span ledger    — runner scheduling overhead from its own spans
     A1  §4.1/§4.3      — ablation: recovery-buffer backward latency
     A2  schedulers     — ablation: prediction strategies on Fig. 1(d)
     A3  §1 motivation  — ablation: branch prediction on a next-PC loop

   Modes: with no flag, the text report of E1-E7 and A1-A3, then
   Bechamel.  --json writes the BENCH_E<k>.json records of E1-E3, E5,
   E6 and E8-E10 (--quick: small sweeps; --trace: TRACE and SPANS
   artifacts too).  --check also reports failed paper claims and diffs
   the records against bench/baselines/ (--baselines <dir>).  --chaos
   kills and resumes the SECDED campaign under injected worker faults.

   E1-E3, E5 and E6 each compute their numbers once, in one function
   returning typed values: the text report prints them, and --json
   wraps them in a record. *)

open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_datapath
open Elastic_core

let section title =
  Fmt.pr "@.=====================================================@.";
  Fmt.pr "== %s@." title;
  Fmt.pr "=====================================================@."

(* ------------------------------------------------------------------ *)
(* --json: machine-readable trajectory records, one BENCH_E<k>.json per *)
(* experiment, written to the current directory through the shared      *)
(* JSON tree of lib/metrics (the image has no JSON library); --check    *)
(* parses the committed baselines back through the same module.  The    *)
(* records of E1, E2, E5 and E6 carry an [engine] block comparing the   *)
(* arena's scheduled settle against the reference fixpoint on the       *)
(* experiment's main design.  Schema: EXPERIMENTS.md.                   *)

module Json = struct
  include Elastic_metrics.Json

  let write path t =
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (to_string ~indent:2 t ^ "\n"))
end

module Metr = Elastic_metrics

(* quick and full sweeps produce different numbers; stamping the mode
   into the record makes a baseline/run mismatch fail the gate with a
   readable diff instead of dozens of numeric ones. *)
let run_mode = ref "full"

let record ~experiment ~title fields =
  Metr.Gate.record ~experiment ~title ~mode:!run_mode fields

(* The paper's claims, checked on the typed values where each
   experiment computes them.  A failed claim is kept as (record, field
   path, reason); --check reports them before the baseline diffs. *)
let claims = ref []

let claim experiment path ok reason =
  if not ok then
    claims := (Fmt.str "BENCH_%s.json" experiment, path, reason) :: !claims

(* Run a design under both evaluation modes and record the settle cost:
   the [eval_reduction] field is the headline claim — node evaluations
   per cycle the arena's scheduled settle saves over the blind
   fixpoint. *)
let engine_record ?(cycles = 400) net =
  let run mode =
    let eng = Elastic_sim.Engine.create ~monitor:false ~mode net in
    Elastic_sim.Engine.run eng cycles;
    eng
  in
  let ar = run Elastic_sim.Engine.Arena in
  let rf = run Elastic_sim.Engine.Reference in
  let prof eng =
    let p = Elastic_sim.Engine.profile eng in
    let cyc = Elastic_sim.Profile.cycles p in
    Json.Obj
      [ ("cycles", Json.Int cyc);
        ("node_evals", Json.Int (Elastic_sim.Profile.evals p));
        ("evals_per_cycle",
         Json.Float (Elastic_sim.Profile.evals_per_cycle p));
        ("max_settle_passes", Json.Int (Elastic_sim.Profile.max_passes p));
        ("settle_us_per_cycle",
         Json.Float
           (if cyc = 0 then 0.0
            else
              Elastic_sim.Profile.settle_seconds p *. 1e6 /. float_of_int cyc)) ]
  in
  let sched = Elastic_sim.Engine.schedule ar in
  let epc eng =
    Elastic_sim.Profile.evals_per_cycle (Elastic_sim.Engine.profile eng)
  in
  Json.Obj
    [ ("nodes", Json.Int (List.length (Netlist.nodes net)));
      ("channels", Json.Int (List.length (Netlist.channels net)));
      ("schedule",
       Json.Obj
         [ ("components", Json.Int (Elastic_sim.Schedule.components sched));
           ("cyclic", Json.Int (Elastic_sim.Schedule.scc_count sched));
           ("nodes_in_cycles",
            Json.Int (Elastic_sim.Schedule.scc_nodes sched));
           ("largest_scc",
            Json.Int (Elastic_sim.Schedule.largest_scc sched)) ]);
      ("arena", prof ar);
      ("reference", prof rf);
      ("eval_reduction", Json.Float (epc rf /. epc ar)) ]

let run_windowed net sink cycles =
  let eng = Elastic_sim.Engine.create net in
  Elastic_sim.Engine.run eng cycles;
  Elastic_sim.Engine.windowed_throughput eng sink

(* ------------------------------------------------------------------ *)
(* Observability fields (lib/trace, lib/metrics): speculation           *)
(* timelines, stall attribution and metric families distilled from one  *)
(* instrumented run of the experiment's main design; with [--trace] the *)
(* run's VCD and JSONL artifacts are written next to the BENCH records. *)

module Trace = Elastic_trace

let timeline_json net tls =
  Json.List
    (List.map
       (fun (tl : Trace.Timeline.sched_timeline) ->
          Json.Obj
            [ ("scheduler",
               Json.Str
                 (Netlist.node net tl.Trace.Timeline.tl_node).Netlist.name);
              ("serves", Json.Int tl.Trace.Timeline.tl_serves);
              ("squashes", Json.Int tl.Trace.Timeline.tl_squashes);
              ("accuracy", Json.Float tl.Trace.Timeline.tl_accuracy);
              ("mean_serve_interval",
               Json.Float tl.Trace.Timeline.tl_mean_serve_interval);
              ("mean_squash_interval",
               Json.Float tl.Trace.Timeline.tl_mean_squash_interval);
              ("replays", Json.Int tl.Trace.Timeline.tl_replays);
              ("squash_penalties",
               Json.List
                 (List.map
                    (fun p -> Json.Int p)
                    tl.Trace.Timeline.tl_penalties));
              ("mean_squash_penalty",
               Json.Float tl.Trace.Timeline.tl_mean_penalty);
              ("max_squash_penalty",
               Json.Int tl.Trace.Timeline.tl_max_penalty) ])
       tls)

let attribution_json (at : Trace.Attribution.t) =
  let root_fields =
    match at.Trace.Attribution.at_root with
    | None -> [ ("bottleneck", Json.Str "") ]
    | Some l ->
      [ ("bottleneck",
         Json.Str l.Trace.Attribution.al_channel.Netlist.ch_name);
        ("retry_cycles", Json.Int l.Trace.Attribution.al_retry);
        ("stall_ratio", Json.Float l.Trace.Attribution.al_stall_ratio) ]
  in
  Json.Obj
    (root_fields
     @ [ ("cause",
          Json.Str
            (match at.Trace.Attribution.at_cause with
             | Trace.Attribution.Intrinsic what -> "intrinsic: " ^ what
             | Trace.Attribution.Loop -> "loop"
             | Trace.Attribution.No_stall -> "no-stall"));
         ("chain",
          Json.List
            (List.map
               (fun (l : Trace.Attribution.link) ->
                  Json.Str l.Trace.Attribution.al_channel.Netlist.ch_name)
               at.Trace.Attribution.at_chain));
         ("has_critical_cycle",
          Json.Bool (at.Trace.Attribution.at_critical <> None));
         ("root_on_critical_cycle",
          Json.Bool at.Trace.Attribution.at_root_on_critical) ])

(* The blocks a record adds about its experiment's main design: the
   engine comparison, then one instrumented run feeding the tracer (the
   speculation timelines and stall attribution) and the metrics sampler.
   The run writes METRICS_E<k>.prom and the .jsonl window series, and
   with [artifact] its VCD and JSONL event trace.  The per-scheduler
   metric families are distilled into gate-checkable numbers. *)
let design_blocks ~experiment ?artifact ~cycles net =
  let engine = engine_record ~cycles net in
  let eng = Elastic_sim.Engine.create net in
  let tr = Trace.Tracer.create ~capacity:262144 eng in
  let vcd = Option.map (fun _ -> Trace.Vcd.create net) artifact in
  let jsonl = Buffer.create 4096 in
  let windows = ref 0 in
  let on_window r =
    incr windows;
    Buffer.add_string jsonl (Metr.Sampler.jsonl_of_row r);
    Buffer.add_char jsonl '\n'
  in
  let window = 50 in
  let sampler = Metr.Sampler.create ~window ~on_window eng in
  Elastic_sim.Engine.set_observer eng
    (Some
       (fun e ->
          Trace.Tracer.observe tr e;
          Option.iter (fun r -> Trace.Vcd.observe r e) vcd;
          Metr.Sampler.observe sampler e));
  Elastic_sim.Engine.run eng cycles;
  let evs = Trace.Tracer.events tr in
  (match artifact, vcd with
   | Some base, Some r ->
     Trace.Vcd.save (base ^ ".vcd") r;
     Trace.Jsonl.save (base ^ ".jsonl") net evs;
     Fmt.pr "wrote %s.vcd and %s.jsonl (%d events)@." base base
       (List.length evs)
   | _, _ -> ());
  let tls = Trace.Timeline.analyze evs in
  (* Sec. 4.3: every squash replays in exactly one cycle. *)
  List.iter
    (fun (tl : Trace.Timeline.sched_timeline) ->
       List.iter
         (fun p ->
            claim experiment "speculation.squash_penalties" (p = 1)
              (Fmt.str "squash penalty %d <> 1 cycle" p))
         tl.Trace.Timeline.tl_penalties)
    tls;
  let samples = Metr.Sampler.sample sampler eng in
  let metrics = "METRICS_" ^ experiment in
  Out_channel.with_open_text (metrics ^ ".prom") (fun oc ->
      Out_channel.output_string oc (Metr.Prometheus.render samples));
  Out_channel.with_open_text (metrics ^ ".jsonl") (fun oc ->
      Buffer.output_buffer oc jsonl);
  Fmt.pr "wrote %s.prom and %s.jsonl (%d windows)@." metrics metrics
    !windows;
  let scheds =
    List.filter_map
      (fun (s : Metr.Metrics.sample) ->
         if
           String.equal s.Metr.Metrics.m_name "elastic_sched_serves_total"
         then begin
           let labels = s.Metr.Metrics.m_labels in
           let node =
             match List.assoc_opt "node" labels with
             | Some n -> n
             | None -> "?"
           in
           let count name =
             match Metr.Metrics.find ~labels samples name with
             | Some (Metr.Metrics.Counter c) -> c
             | _ -> 0
           in
           let serves = count "elastic_sched_serves_total" in
           let squashes = count "elastic_sched_mispredictions_total" in
           let penalty =
             match
               Metr.Metrics.find ~labels samples
                 "elastic_sched_replay_penalty_cycles"
             with
             | Some (Metr.Metrics.Histogram h) -> h
             | _ -> Metr.Histogram.empty
           in
           let replays = Metr.Histogram.s_count penalty in
           let p50 = Metr.Histogram.s_quantile penalty 0.5 in
           let p99 = Metr.Histogram.s_quantile penalty 0.99 in
           claim experiment "metrics.schedulers"
             (replays = 0 || (p50 = 1 && p99 = 1))
             (Fmt.str
                "replay penalty not concentrated at 1 cycle (p50 %d, p99 %d)"
                p50 p99);
           Some
             (Json.Obj
                [ ("scheduler", Json.Str node);
                  ("serves", Json.Int serves);
                  ("squashes", Json.Int squashes);
                  ("accuracy",
                   Json.Float
                     (if serves = 0 then 1.0
                      else
                        1.0
                        -. (float_of_int squashes /. float_of_int serves)));
                  ("replays", Json.Int replays);
                  ("replay_p50", Json.Int p50);
                  ("replay_p99", Json.Int p99);
                  ("replay_max", Json.Int (Metr.Histogram.s_max penalty)) ])
         end
         else None)
      samples
  in
  [ ("engine", engine);
    ("speculation", timeline_json net tls);
    ("attribution", attribution_json (Trace.Attribution.analyze eng));
    ("metrics",
     Json.Obj
       [ ("window", Json.Int window); ("schedulers", Json.List scheds) ]) ]

(* ------------------------------------------------------------------ *)
(* E1: Table 1                                                          *)

let table1_expected =
  [ ("Fin0", [ "A"; "-"; "C"; "-"; "E"; "F"; "F" ]);
    ("Fout0", [ "A"; "-"; "C"; "-"; "E"; "*"; "F" ]);
    ("Fin1", [ "-"; "B"; "D"; "D"; "-"; "G"; "-" ]);
    ("Fout1", [ "-"; "B"; "*"; "D"; "-"; "G"; "-" ]);
    ("Sel", [ "0"; "1"; "1"; "1"; "0"; "0"; "0" ]);
    ("Sched", [ "0"; "1"; "0"; "1"; "0"; "1"; "0" ]);
    ("EBin", [ "A"; "B"; "*"; "D"; "E"; "*"; "F" ]) ]

(* The Table 1 net, its trace rows and whether they match the paper
   cell for cell. *)
let e1_table1 () =
  let h = Figures.table1 () in
  let rows = Figures.table1_trace h in
  let matches =
    List.for_all2
      (fun (label, cells) r ->
         String.equal label r.Figures.label && cells = r.Figures.cells)
      table1_expected rows
  in
  (h.Figures.t1_net, rows, matches)

let print_e1 (_, rows, matches) =
  section "E1: Table 1 — trace of the speculative system of Fig. 1(d)";
  Fmt.pr "%a" Figures.pp_table1 rows;
  Fmt.pr
    "@.cycle-exact match with the paper: %b@.(the paper's EBin row prints \
     G at cycle 6, inconsistent with its own Sel row — the consistent \
     delivery is F; all other 48 cells match verbatim)@."
    matches

let json_e1 (net, rows, matches) =
  record ~experiment:"E1" ~title:"Table 1 trace of Fig. 1(d)"
    [ ("cycle_exact_match", Json.Bool matches);
      ("rows", Json.Int (List.length rows));
      ("engine", engine_record ~cycles:64 net) ]

(* ------------------------------------------------------------------ *)
(* E2: Fig. 1 design points                                             *)

type e2_point = {
  p_name : string;  (* record key, e.g. "a_nonspeculative" *)
  p_tput : float;
  p_bound : float;  (* marked-graph throughput bound *)
  p_ct : float;  (* cycle time *)
  p_area : float;
}

(* Designs (a)-(d) of Fig. 1, each run for [cycles] cycles; returns the
   run length, the net of (d) and the four points. *)
let e2_fig1 ~quick =
  let cycles = if quick then 100 else 400 in
  let params = Figures.default_params in
  let point (name, (h : Figures.handles)) =
    { p_name = name;
      p_tput = run_windowed h.Figures.net h.Figures.sink cycles;
      p_bound = Elastic_perf.Marked_graph.throughput_bound h.Figures.net;
      p_ct = Timing.cycle_time h.Figures.net;
      p_area = Area.total h.Figures.net }
  in
  let d = Figures.fig1d ~params () in
  ( cycles,
    d.Figures.net,
    List.map point
      [ ("a_nonspeculative", Figures.fig1a ~params ());
        ("b_bubble", Figures.fig1b ~params ());
        ("c_shannon_early", Figures.fig1c ~params ());
        ("d_speculation", d) ] )

(* The points, then a prediction-accuracy sweep of (d) against the
   effective cycle time of (a). *)
let print_e2 (_, _, points) =
  section "E2: Fig. 1 — bubble insertion vs Shannon vs speculation";
  Fmt.pr "paper's qualitative claims: (b) halves throughput; (c) optimal \
          but duplicates F;@.(d) matches (c) at high accuracy with less \
          area.@.@.";
  List.iter2
    (fun label p ->
       Fmt.pr
         "  %-24s tput %.3f  bound %.3f  cycle %5.2f  effective %6.2f  area \
          %6.1f@."
         label p.p_tput p.p_bound p.p_ct (p.p_ct /. p.p_tput) p.p_area)
    [ "(a) non-speculative"; "(b) bubble insertion"; "(c) Shannon + early";
      "(d) speculation 100%" ]
    points;
  Fmt.pr "@.prediction-accuracy sweep of (d), crossover against (a):@.";
  let a = List.hd points in
  let eff_a = a.p_ct /. a.p_tput in
  let params = Figures.default_params in
  let crossover = ref None in
  List.iter
    (fun acc ->
       let h =
         Figures.fig1d ~params
           ~sched:
             (Scheduler.Noisy_oracle
                { sel = params.Figures.sel; accuracy_pct = acc; seed = 3 })
           ()
       in
       let tput = run_windowed h.Figures.net h.Figures.sink 500 in
       let eff = Timing.cycle_time h.Figures.net /. tput in
       if eff < eff_a && !crossover = None then crossover := Some acc;
       Fmt.pr "  accuracy %3d%%: throughput %.3f  effective ct %6.2f  %s@."
         acc tput eff
         (if eff < eff_a then "beats (a)" else ""))
    [ 50; 60; 70; 75; 80; 90; 95; 99; 100 ];
  match !crossover with
  | Some acc ->
    Fmt.pr
      "  -> speculation pays off above ~%d%% accuracy (vs effective ct %.2f)@."
      acc eff_a
  | None -> Fmt.pr "  -> no crossover in the sweep@."

let json_e2 (cycles, net, points) =
  let point p =
    Json.Obj
      [ ("design", Json.Str p.p_name);
        ("throughput", Json.Float p.p_tput);
        ("bound", Json.Float p.p_bound);
        ("cycle_time", Json.Float p.p_ct);
        ("effective_cycle_time", Json.Float (p.p_ct /. p.p_tput));
        ("area", Json.Float p.p_area) ]
  in
  record ~experiment:"E2" ~title:"Fig. 1 design points"
    [ ("points", Json.List (List.map point points));
      ("engine", engine_record ~cycles net) ]

(* ------------------------------------------------------------------ *)
(* E3/E4: exhaustive verification (the paper's NuSMV step)              *)

let zoo () =
  let open Elastic_netlist.Netlist in
  let nsrc vs = Source (Nondet vs) in
  let nsink = Sink (Random_stall { pct = 50; seed = 1 }) in
  let pipe name buffer =
    let net = empty in
    let net, s = add_node ~name:"src" net (nsrc [ Value.Int 0; Value.Int 1 ]) in
    let net, b = add_node ~name:"buf" net (Buffer { buffer; init = [] }) in
    let net, k = add_node ~name:"snk" net nsink in
    let net, _ = connect net (s, Out 0) (b, In 0) in
    let net, _ = connect net (b, Out 0) (k, In 0) in
    (name, net)
  in
  let emux =
    let net = empty in
    let net, sel = add_node ~name:"sel" net (nsrc [ Value.Int 0; Value.Int 1 ]) in
    let net, s0 = add_node ~name:"d0" net (nsrc [ Value.Int 10 ]) in
    let net, s1 = add_node ~name:"d1" net (nsrc [ Value.Int 20 ]) in
    let net, e = add_node ~name:"e0" net (Buffer { buffer = Eb; init = [] }) in
    let net, m = add_node ~name:"mux" net (Mux { ways = 2; early = true }) in
    let net, k = add_node ~name:"snk" net nsink in
    let net, _ = connect net (sel, Out 0) (m, Sel) in
    let net, _ = connect net (s0, Out 0) (e, In 0) in
    let net, _ = connect net (e, Out 0) (m, In 0) in
    let net, _ = connect net (s1, Out 0) (m, In 1) in
    let net, _ = connect net (m, Out 0) (k, In 0) in
    ("early-evaluation mux + anti-tokens (Fig. 4 context)", net)
  in
  let shared sched name =
    let net = empty in
    let net, s0 = add_node ~name:"in0" net (nsrc [ Value.Int 0 ]) in
    let net, s1 = add_node ~name:"in1" net (nsrc [ Value.Int 1 ]) in
    let f =
      Func.make ~name:"F" ~arity:1 ~delay:1.0 ~area:1.0 (function
        | [ v ] -> v
        | _ -> assert false)
    in
    let net, sh =
      add_node ~name:"sh" net (Shared { ways = 2; f; sched; hinted = false })
    in
    let net, m = add_node ~name:"mux" net (Mux { ways = 2; early = true }) in
    let net, e =
      add_node ~name:"EB" net (Buffer { buffer = Eb; init = [ Value.Int 0 ] })
    in
    let net, fk = add_node ~name:"fork" net (Fork 2) in
    let g =
      Func.make ~name:"G" ~arity:1 ~delay:1.0 ~area:1.0 (function
        | [ v ] -> Value.Int (1 - Value.to_int v)
        | _ -> assert false)
    in
    let net, gn = add_node ~name:"G" net (Func g) in
    let net, k = add_node ~name:"snk" net nsink in
    let net, _ = connect net (s0, Out 0) (sh, In 0) in
    let net, _ = connect net (s1, Out 0) (sh, In 1) in
    let net, _ = connect net (sh, Out 0) (m, In 0) in
    let net, _ = connect net (sh, Out 1) (m, In 1) in
    let net, _ = connect net (m, Out 0) (e, In 0) in
    let net, _ = connect net (e, Out 0) (fk, In 0) in
    let net, _ = connect net (fk, Out 0) (gn, In 0) in
    let net, _ = connect net (gn, Out 0) (m, Sel) in
    let net, _ = connect net (fk, Out 1) (k, In 0) in
    (name, net)
  in
  [ pipe "EB Lf=1 Lb=1 C=2 (Figs. 2/3)" Eb;
    pipe "EB0 Lf=1 Lb=0 C=1 (Fig. 5)" Eb0;
    emux;
    shared Scheduler.External
      "shared module, all schedulers (Fig. 4, leads-to assumed)";
    shared Scheduler.Sticky "shared module, sticky scheduler" ]

(* Every controller of the zoo, explored exhaustively. *)
let e3_verify () =
  List.map
    (fun (name, net) -> (name, Elastic_check.Explore.explore net))
    (zoo ())

let print_e3 outcomes =
  section
    "E3/E4: exhaustive verification of the controllers (paper Sec. 4.2)";
  Fmt.pr
    "Explicit-state exploration over all environment/scheduler choices;@.\
     checks the SELF protocol (Retry+/Retry-/kill-stop invariant),@.\
     deadlock freedom and channel liveness.@.@.";
  List.iter
    (fun (name, o) ->
       Fmt.pr "  %-55s %6d states %7d transitions  %s@." name
         o.Elastic_check.Explore.explored
         o.Elastic_check.Explore.transitions
         (if Elastic_check.Explore.clean o then "VERIFIED" else "FAILED"))
    outcomes;
  (* The negative control: a non-compliant scheduler starves. *)
  Fmt.pr
    "@.(a Static scheduler on the same loop violates leads-to and \
     starves a channel;@. kept as a regression test in \
     test/test_check.ml)@."

let json_e3 outcomes =
  let controller (name, o) =
    Json.Obj
      [ ("controller", Json.Str name);
        ("states", Json.Int o.Elastic_check.Explore.explored);
        ("transitions", Json.Int o.Elastic_check.Explore.transitions);
        ("verified", Json.Bool (Elastic_check.Explore.clean o)) ]
  in
  record ~experiment:"E3" ~title:"exhaustive controller verification"
    [ ("controllers", Json.List (List.map controller outcomes)) ]

(* ------------------------------------------------------------------ *)
(* E5: variable-latency ALU                                             *)

type e5 = {
  e5_cycles : int;  (* run length of every point: 2 x operations *)
  e5_points : (int * float * float) list;
      (* error rate (%), stalling and speculative throughput *)
  e5_ct : float * float;  (* cycle time, stalling and speculative *)
  e5_gain_pct : float;  (* cycle-time improvement of speculation *)
  e5_area_pct : float;  (* area overhead of speculation *)
  e5_net : Netlist.t;  (* the speculative design *)
}

(* The Fig. 6 sweep.  Sec. 5.1: speculation buys its ~9% shorter clock
   without giving back tokens/cycle at any error rate. *)
let e5_fig6 ~quick =
  let n = if quick then 100 else 400 in
  let pcts = if quick then [ 0; 5; 20 ] else [ 0; 1; 5; 10; 20; 40 ] in
  let points =
    List.map
      (fun pct ->
         let ops = Alu.operands ~error_rate_pct:pct ~seed:42 n in
         let ds = Examples.vl_stalling ~ops in
         let dp = Examples.vl_speculative ~ops in
         ( pct,
           run_windowed ds.Examples.d_net ds.Examples.d_sink (2 * n),
           run_windowed dp.Examples.d_net dp.Examples.d_sink (2 * n) ))
      pcts
  in
  let ops = Alu.operands ~error_rate_pct:5 ~seed:42 n in
  let ds = Examples.vl_stalling ~ops in
  let dp = Examples.vl_speculative ~ops in
  let cs = Timing.cycle_time ds.Examples.d_net in
  let cp = Timing.cycle_time dp.Examples.d_net in
  let gain = 100.0 *. (1.0 -. (cp /. cs)) in
  claim "E5" "cycle_time_improvement_pct" (gain > 0.0)
    (Fmt.str "speculation gain not positive (%g%%)" gain);
  List.iteri
    (fun i (_, ts, tp) ->
       claim "E5"
         (Fmt.str "points[%d].speculative_throughput" i)
         (not (tp < ts -. 1e-9))
         (Fmt.str "below the stalling design (%g < %g)" tp ts))
    points;
  let a = Area.total ds.Examples.d_net in
  { e5_cycles = 2 * n;
    e5_points = points;
    e5_ct = (cs, cp);
    e5_gain_pct = gain;
    e5_area_pct = 100.0 *. ((Area.total dp.Examples.d_net -. a) /. a);
    e5_net = dp.Examples.d_net }

let print_e5 m =
  section "E5: Fig. 6 / Sec. 5.1 — variable-latency ALU";
  let cs, cp = m.e5_ct in
  Fmt.pr "  err%%  | stalling 6(a): tput  eff.ct | speculative 6(b): tput \
          eff.ct@.";
  List.iter
    (fun (pct, ts, tp) ->
       Fmt.pr "  %-5d |              %.3f  %6.2f |                   %.3f  \
               %6.2f@."
         pct ts (cs /. ts) tp (cp /. tp))
    m.e5_points;
  Fmt.pr "@.  cycle-time improvement %.1f%%   (paper:  ~9%%)@." m.e5_gain_pct;
  Fmt.pr "  area overhead          %.1f%%   (paper: ~12%%)@." m.e5_area_pct

let json_e5 ?artifact m =
  let point (pct, ts, tp) =
    Json.Obj
      [ ("error_rate_pct", Json.Int pct);
        ("stalling_throughput", Json.Float ts);
        ("speculative_throughput", Json.Float tp) ]
  in
  record ~experiment:"E5" ~title:"variable-latency ALU (Fig. 6)"
    ([ ("points", Json.List (List.map point m.e5_points));
       ("cycle_time_improvement_pct", Json.Float m.e5_gain_pct);
       ("area_overhead_pct", Json.Float m.e5_area_pct) ]
     @ design_blocks ~experiment:"E5" ?artifact ~cycles:m.e5_cycles m.e5_net)

(* ------------------------------------------------------------------ *)
(* E6: resilient adder                                                  *)

(* One Fig. 7 design run for [2 * n] cycles: every sum must match the
   reference; returns the windowed throughput and the cycle of the
   first delivery (-1 when nothing arrived). *)
let e6_measure ~n ops (d : Examples.design) =
  let eng = Elastic_sim.Engine.create d.Examples.d_net in
  Elastic_sim.Engine.run eng (2 * n);
  let stream = Elastic_sim.Engine.sink_stream eng d.Examples.d_sink in
  assert
    (List.equal Value.equal (Transfer.values stream)
       (Examples.rs_reference ops));
  let first =
    match Transfer.entries stream with
    | e :: _ -> e.Transfer.cycle
    | [] -> -1
  in
  (Elastic_sim.Engine.windowed_throughput eng d.Examples.d_sink, first)

type e6 = {
  e6_cycles : int;  (* run length of every point: 2 x operations *)
  e6_points : (int * (float * int) * (float * int)) list;
      (* error rate (%), then throughput and first delivery of the
         non-speculative and of the speculative design *)
  e6_area_pct : float;  (* area overhead of speculation on the stage *)
  e6_net : Netlist.t;  (* the speculative design *)
}

(* The Fig. 7 sweep.  Sec. 5.2: speculation removes one pipeline stage
   of latency at every error rate. *)
let e6_fig7 ~quick =
  let n = if quick then 100 else 400 in
  let pcts = if quick then [ 0; 5; 25 ] else [ 0; 2; 5; 10; 25 ] in
  let points =
    List.map
      (fun pct ->
         let ops = Examples.rs_ops ~error_rate_pct:pct ~seed:5 n in
         ( pct,
           e6_measure ~n ops (Examples.rs_nonspeculative ~ops),
           e6_measure ~n ops (Examples.rs_speculative ~ops) ))
      pcts
  in
  List.iteri
    (fun i (_, (_, ln), (_, ls)) ->
       claim "E6"
         (Fmt.str "points[%d].spec_first_delivery" i)
         (ls < ln)
         (Fmt.str "no latency removed (spec %d, nonspec %d)" ls ln))
    points;
  let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:5 n in
  let dn = Examples.rs_nonspeculative ~ops in
  let dp = Examples.rs_speculative ~ops in
  let a = Area.total dn.Examples.d_net in
  { e6_cycles = 2 * n;
    e6_points = points;
    e6_area_pct = 100.0 *. ((Area.total dp.Examples.d_net -. a) /. a);
    e6_net = dp.Examples.d_net }

let print_e6 m =
  section "E6: Fig. 7 / Sec. 5.2 — SECDED-protected adder";
  Fmt.pr "  err%%  | non-spec 7(a): tput 1st | speculative 7(b): tput 1st@.";
  List.iter
    (fun (pct, (tn, ln), (ts, ls)) ->
       Fmt.pr "  %-5d |            %.3f   %d   |                 %.3f   \
               %d@."
         pct tn ln ts ls)
    m.e6_points;
  Fmt.pr
    "@.  all sums corrected and verified in both designs@.  one pipeline \
     stage of latency removed; one cycle lost per corrected error@.  \
     area overhead on the stage %.1f%%   (paper: ~36%%)@."
    m.e6_area_pct

let json_e6 ?artifact m =
  let point (pct, (tn, ln), (ts, ls)) =
    Json.Obj
      [ ("error_rate_pct", Json.Int pct);
        ("nonspec_throughput", Json.Float tn);
        ("nonspec_first_delivery", Json.Int ln);
        ("spec_throughput", Json.Float ts);
        ("spec_first_delivery", Json.Int ls) ]
  in
  record ~experiment:"E6" ~title:"SECDED-protected adder (Fig. 7)"
    ([ ("points", Json.List (List.map point m.e6_points));
       ("area_overhead_pct", Json.Float m.e6_area_pct) ]
     @ design_blocks ~experiment:"E6" ?artifact ~cycles:m.e6_cycles m.e6_net)

(* ------------------------------------------------------------------ *)
(* E7: Sec. 5.2 under adversarial fault injection.  The cooperative     *)
(* workload of E6 only generates errors the design was built to absorb; *)
(* here the same claims are checked against seeded wire-level faults:   *)
(* single-bit upsets anywhere in the SECDED-protected operand bus must  *)
(* be masked or corrected at exactly one replay cycle, double-bit       *)
(* upsets must be detected (alarm severity 2), and a control-wire       *)
(* glitch must be flagged by the SELF protocol monitors with            *)
(* cycle/node/channel provenance.                                       *)

(* The SECDED campaign shared by E7, E8, E10 and --chaos: the
   speculative resilient adder over 400 operand pairs, its severity
   alarm, the 144-bit operand bus (2 x SECDED(72,64) codewords) and
   [count] seeded single-bit upsets anywhere on it. *)
let secded_campaign ~count =
  let d, alarms, op_bus =
    Examples.rs_secded_setup
      ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:5 400)
  in
  let net = d.Examples.d_net in
  ( net,
    alarms,
    op_bus,
    Elastic_fault.Campaign.random_bitflips ~net ~channel:op_bus ~seed:2009
      ~count ~from_cycle:2 ~to_cycle:350 ~bit_hi:144 () )

let e7_faults () =
  let open Elastic_fault in
  section "E7: Sec. 5.2 under adversarial fault injection";
  let seed = 2009 in
  (* 1. 120 single-bit upsets. *)
  let net, alarms, op_bus, singles = secded_campaign ~count:120 in
  let s1 = Campaign.run ~cycles:450 ~settle:60 ~alarms net ~scenarios:singles in
  Fmt.pr "  single-bit operand upsets (seed %d): %a@." seed
    Campaign.pp_summary s1;
  assert (Campaign.all_benign ~max_penalty:1 s1);
  Fmt.pr "  -> all masked or corrected at <= 1 replay cycle@.";
  (* 2. 40 double-bit upsets inside one codeword: beyond correction,
     within detection. *)
  let doubles =
    Campaign.random_double_flips ~net ~channel:op_bus ~seed
      ~count:40 ~from_cycle:2 ~to_cycle:350 ~bit_lo:0 ~bit_hi:72 ()
  in
  let s2 = Campaign.run ~cycles:450 ~settle:60 ~alarms net ~scenarios:doubles in
  Fmt.pr "@.  double-bit upsets in operand a: %a@." Campaign.pp_summary s2;
  assert (Campaign.count s2 "detected" = s2.Campaign.total);
  Fmt.pr "  -> all detected by the severity alarm (SECDED double error)@.";
  (* 3. A control-wire glitch: stall then drop the valid of the retried
     token on the operand bus — a Retry+ persistence violation. *)
  let r =
    Recovery.check ~cycles:450 ~settle:60 ~alarms net
      ~faults:(Fault.control_glitch ~channel:op_bus ~cycle:25)
  in
  Fmt.pr "@.  control-wire glitch:@.%a@." Recovery.pp_report r;
  assert (
    match r.Recovery.classification with
    | Recovery.Detected _ -> true
    | _ -> false);
  Fmt.pr "  -> flagged by the protocol monitors with provenance@."

(* ------------------------------------------------------------------ *)
(* E8: domain-count scaling of the E7 fault campaign under the          *)
(* supervised runner (lib/runner).  The determinism contract — shards   *)
(* merge in index order — means every worker count must reproduce the   *)
(* 1-worker merged snapshot byte-for-byte; the scaling curve itself is  *)
(* wall-clock and therefore only informative (the gate skips            *)
(* [_seconds] keys).  The record is backend-independent so the same     *)
(* baseline gates the OCaml 4.14 sequential fallback and the OCaml 5    *)
(* domains backend.                                                     *)

module Runner = Elastic_runner.Runner
module Workload = Elastic_runner.Workload
module Rcheckpoint = Elastic_runner.Checkpoint

(* The SECDED campaign as one runner task per scenario. *)
let secded_tasks ~count () =
  let net, alarms, _, scenarios = secded_campaign ~count in
  Workload.of_campaign ~cycles:450 ~settle:60 ~alarms ~name:"secded" net
    ~scenarios

let no_sleep _ = ()

(* One run of the campaign on [workers] workers and its wall-clock
   seconds.  Each run builds its own task list, so each computes its
   own golden reference and every run times the same work. *)
let timed_campaign ~obs ~name ~count workers =
  let tasks = secded_tasks ~count () in
  let t0 = Elastic_sim.Clock.monotonic () in
  let r =
    Runner.run ~workers ~sleep:no_sleep ?obs
      ~name:(Fmt.str "%s-w%d" name workers) tasks
  in
  (r, Elastic_sim.Clock.seconds_between t0 (Elastic_sim.Clock.monotonic ()))

(* ------------------------------------------------------------------ *)
(* --chaos: the crash-recovery equivalence claim, end to end.  The      *)
(* SECDED campaign runs under the runner with fault-injected workers    *)
(* (first attempts of some shards are killed or time out — both         *)
(* Transient, so supervision retries them), is killed mid-run via       *)
(* [stop_after] with a checkpoint, and resumes from that checkpoint.    *)
(* The resumed run's merged snapshot must be byte-identical to an       *)
(* uninterrupted clean run, and a permanently-poisoned shard must fail  *)
(* alone.  Artifacts: CHAOS_checkpoint.jsonl + CHAOS_report.json.       *)

let chaos_schema = "elastic-speculation/chaos/v1"

let chaos_mode ~quick () =
  section "--chaos: supervised campaign under injected worker faults";
  let count = if quick then 24 else 60 in
  let tasks = secded_tasks ~count () in
  let workers = max 2 (min 4 (Elastic_runner.Pool_backend.recommended ())) in
  Fmt.pr "  backend: %s, %d workers, %d scenarios@."
    (if Elastic_runner.Pool_backend.parallel then "domains"
     else "sequential fallback")
    workers count;
  let base = Runner.run ~workers:1 ~sleep:no_sleep ~name:"chaos" tasks in
  let want = Metr.Prometheus.render base.Runner.r_merged in
  let chaotic =
    List.mapi
      (fun i (t : Runner.task) ->
         { t with
           Runner.work =
             (fun ctx ->
                if ctx.Runner.attempt = 1 && i mod 5 = 2 then
                  raise (Runner.Killed "chaos: injected worker kill");
                if ctx.Runner.attempt = 1 && i mod 7 = 3 then
                  raise (Runner.Deadline_exceeded "chaos: injected timeout");
                t.Runner.work ctx) })
      tasks
  in
  let ckpt = "CHAOS_checkpoint.jsonl" in
  (try Sys.remove ckpt with Sys_error _ -> ());
  let command =
    Fmt.str "bench --chaos%s" (if quick then " --quick" else "")
  in
  let killed =
    Runner.run ~workers ~sleep:no_sleep ~checkpoint:ckpt ~command
      ~stop_after:(count / 2) ~name:"chaos" chaotic
  in
  Fmt.pr "  interrupted: %d/%d shards checkpointed before the kill@."
    killed.Runner.r_completed count;
  let resume =
    match Rcheckpoint.load ckpt with
    | Ok c -> c
    | Error m ->
      Fmt.epr "chaos: cannot reload %s: %s@." ckpt m;
      exit 1
  in
  let final =
    Runner.run ~workers ~sleep:no_sleep ~checkpoint:ckpt ~resume ~command
      ~name:"chaos" chaotic
  in
  Fmt.pr "@[<v>  %a@]@." Runner.pp_report final;
  let identical = String.equal want (Metr.Prometheus.render final.Runner.r_merged) in
  (* Crash isolation: poison one shard of a small slice with a
     deterministic failure; only that shard may fail. *)
  let poisoned =
    List.filteri (fun i _ -> i < 6) tasks
    |> List.mapi
         (fun i (t : Runner.task) ->
            if i = 1 then
              { t with
                Runner.work = (fun _ -> failwith "chaos: poisoned shard") }
            else t)
  in
  let iso =
    Runner.run ~workers ~sleep:no_sleep ~name:"chaos-isolation" poisoned
  in
  let isolated =
    iso.Runner.r_failed = 1
    && iso.Runner.r_completed = List.length poisoned - 1
    && List.exists
         (fun (s : Runner.shard) ->
            match s.Runner.sh_status with
            | Runner.Failed f -> f.Runner.f_class = Runner.Permanent
            | _ -> false)
         iso.Runner.r_shards
  in
  Json.write "CHAOS_report.json"
    (Json.Jsonl.tag ~schema:chaos_schema
       [ ("scenarios", Json.Int count);
         ("workers", Json.Int workers);
         ("parallel_backend",
          Json.Bool Elastic_runner.Pool_backend.parallel);
         ("interrupted_completed", Json.Int killed.Runner.r_completed);
         ("resumed", Json.Int final.Runner.r_resumed);
         ("merged_identical", Json.Bool identical);
         ("poisoned_shard_isolated", Json.Bool isolated);
         ("report", Runner.report_json final) ]);
  Fmt.pr "wrote CHAOS_report.json and %s@." ckpt;
  if identical && isolated then
    Fmt.pr
      "@.bench --chaos: OK (merged metrics byte-identical after kill + \
       resume; poisoned shard isolated)@."
  else begin
    Fmt.epr "@.bench --chaos: FAILED (merged_identical=%b isolated=%b)@."
      identical isolated;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* A1: ablation — recovery-buffer backward latency (Sec. 4.1/4.3)       *)

let a1_recovery () =
  section
    "A1: ablation — recovery EBs with Lb=1 vs the Fig. 5 EB (Lb=0)";
  Fmt.pr
    "With plain EBs the anti-token of a correct prediction takes an \
     extra@.cycle to reach the doomed slow-path token, which delays its \
     successors@.(Sec. 4.1: \"the backward latency of EBs can become a \
     bottleneck\").@.@.";
  let n = 400 in
  let ops = Alu.operands ~error_rate_pct:0 ~seed:9 n in
  List.iter
    (fun (name, recovery) ->
       let d = Examples.vl_speculative_with ~recovery ~ops in
       let t = run_windowed d.Examples.d_net d.Examples.d_sink (2 * n) in
       Fmt.pr "  recovery %-14s throughput %.3f@." name t)
    [ ("Eb (Lb=1)", Netlist.Eb); ("Eb0 (Lb=0, Fig. 5)", Netlist.Eb0) ]

(* ------------------------------------------------------------------ *)
(* A2: ablation — schedulers on Fig. 1(d)                               *)

let a2_schedulers () =
  section "A2: ablation — prediction strategies on Fig. 1(d)";
  let params = Figures.default_params in
  List.iter
    (fun (name, sched) ->
       let h = Figures.fig1d ~params ~sched () in
       let eng = Elastic_sim.Engine.create h.Figures.net in
       Elastic_sim.Engine.run eng 500;
       let t = Elastic_sim.Engine.windowed_throughput eng h.Figures.sink in
       let misses =
         match Elastic_sim.Engine.schedulers eng with
         | [ (_, s) ] -> Scheduler.mispredictions s
         | _ -> 0
       in
       Fmt.pr "  %-14s throughput %.3f   mispredictions %d@." name t misses)
    [ ("sticky", Scheduler.Sticky); ("toggle", Scheduler.Toggle);
      ("two-bit", Scheduler.Two_bit);
      ("gshare-6", Scheduler.Gshare { history_bits = 6 });
      ("round-robin", Scheduler.Round_robin);
      ("oracle 90%",
       Scheduler.Noisy_oracle
         { sel = Figures.default_params.Figures.sel; accuracy_pct = 90;
           seed = 3 });
      ("oracle 100%",
       Scheduler.Noisy_oracle
         { sel = Figures.default_params.Figures.sel; accuracy_pct = 100;
           seed = 3 }) ]

(* ------------------------------------------------------------------ *)
(* A3: branch speculation on the next-PC loop (the paper's Sec. 1        *)
(* motivation), comparing predictors on program-driven select streams.  *)

let a3_branch_prediction () =
  section "A3: branch prediction on the next-PC loop (Sec. 1 motivation)";
  let pl = Examples.pc_loop () in
  let run net =
    let eng = Elastic_sim.Engine.create net in
    Elastic_sim.Engine.run eng 400;
    (Elastic_sim.Engine.throughput eng pl.Examples.pl_sink,
     match Elastic_sim.Engine.schedulers eng with
     | [ (_, s) ] -> Scheduler.mispredictions s
     | _ -> 0)
  in
  let ipc0, _ = run pl.Examples.pl_net in
  Fmt.pr "  non-speculative loop: IPC %.3f, cycle time %.2f@." ipc0
    (Timing.cycle_time pl.Examples.pl_net);
  List.iter
    (fun (name, sched) ->
       let r =
         Speculation.speculate pl.Examples.pl_net ~mux:pl.Examples.pl_mux
           ~sched
       in
       let ipc, misses = run r.Speculation.net in
       Fmt.pr "  %-12s IPC %.3f  mispredictions %d  cycle time %.2f@." name
         ipc misses
         (Timing.cycle_time r.Speculation.net))
    [ ("sticky", Scheduler.Sticky); ("two-bit", Scheduler.Two_bit);
      ("gshare-4", Scheduler.Gshare { history_bits = 4 });
      ("gshare-8", Scheduler.Gshare { history_bits = 8 }) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: cost of regenerating each experiment.     *)

let bechamel_suite () =
  section "Bechamel: cost of regenerating each experiment";
  let open Bechamel in
  let open Toolkit in
  let quick name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"repro"
      [ quick "E1_table1" (fun () ->
            ignore (Figures.table1_trace (Figures.table1 ())));
        quick "E2_fig1_points" (fun () ->
            let h = Figures.fig1d () in
            ignore (run_windowed h.Figures.net h.Figures.sink 100));
        quick "E3_verify_eb" (fun () ->
            ignore
              (Elastic_check.Explore.explore (snd (List.nth (zoo ()) 0))));
        quick "E4_verify_shared" (fun () ->
            ignore
              (Elastic_check.Explore.explore (snd (List.nth (zoo ()) 3))));
        quick "E5_fig6_point" (fun () ->
            let ops = Alu.operands ~error_rate_pct:5 ~seed:1 50 in
            let d = Examples.vl_speculative ~ops in
            ignore (run_windowed d.Examples.d_net d.Examples.d_sink 100));
        quick "E6_fig7_point" (fun () ->
            let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:1 50 in
            let d = Examples.rs_speculative ~ops in
            ignore (run_windowed d.Examples.d_net d.Examples.d_sink 100)) ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
       match Analyze.OLS.estimates est with
       | Some [ ns ] -> Fmt.pr "  %-24s %10.2f ms/run@." name (ns /. 1e6)
       | Some _ | None -> Fmt.pr "  %-24s (no estimate)@." name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* E8-E10: records only --json writes; they have no text report.        *)

(* E8: the runner's determinism contract: every worker count completes all
   shards and reproduces the 1-worker merged snapshot byte-for-byte. *)
let json_e8 ~quick =
  let count = if quick then 24 else 96 in
  let run_at w =
    let r, dt = timed_campaign ~obs:None ~name:"e8" ~count w in
    (w, r, dt)
  in
  let runs = List.map run_at [ 1; 2; 4; 8 ] in
  let reference =
    match runs with
    | (_, r, _) :: _ -> Metr.Prometheus.render r.Runner.r_merged
    | [] -> ""
  in
  let points =
    List.mapi
      (fun i (w, r, dt) ->
         let shards = List.length r.Runner.r_shards in
         let identical =
           String.equal reference (Metr.Prometheus.render r.Runner.r_merged)
         in
         claim "E8"
           (Fmt.str "points[%d].merged_identical" i)
           identical "merged snapshot differs from the 1-worker run";
         claim "E8"
           (Fmt.str "points[%d].completed" i)
           (r.Runner.r_completed = shards)
           "campaign did not complete every shard";
         Json.Obj
           [ ("workers", Json.Int w);
             ("shards", Json.Int shards);
             ("completed", Json.Int r.Runner.r_completed);
             ("failed", Json.Int r.Runner.r_failed);
             ("merged_identical", Json.Bool identical);
             ("elapsed_seconds", Json.Float dt) ])
      runs
  in
  let classes =
    match runs with
    | (_, r, _) :: _ -> Workload.classification_histogram r.Runner.r_merged
    | [] -> []
  in
  record ~experiment:"E8"
    ~title:"domain-count scaling of the SECDED fault campaign"
    [ ("scenarios", Json.Int count);
      ("points", Json.List points);
      ("classification",
       Json.Obj (List.map (fun (l, c) -> (l, Json.Int c)) classes)) ]

(* E9: arena backend speedup over the reference fixpoint.  Both       *)
(* backends reach the same fixed point, so the sink streams must      *)
(* agree; the arena's eval count is deterministic and compared        *)
(* exactly with the baseline.  The settle-only ratio is gated; the    *)
(* end-to-end (create + run) ratio is recorded next to it.  Timing    *)
(* fields carry the [_seconds] / [_per_second] / [_speedup] suffixes  *)
(* the gate skips.                                                    *)

let json_e9 ~quick =
  let cycles = if quick then 4_000 else 20_000 in
  let measure mode net =
    (* Best of a few fresh engines: the minimum time is the one least
       polluted by scheduler noise on a loaded machine. *)
    let best_settle = ref infinity and best_run = ref infinity in
    let keep = ref None in
    for _ = 1 to 5 do
      let t0 = Elastic_sim.Clock.monotonic () in
      let eng = Elastic_sim.Engine.create ~monitor:false ~mode net in
      Elastic_sim.Engine.run eng cycles;
      let run =
        Elastic_sim.Clock.seconds_between t0 (Elastic_sim.Clock.monotonic ())
      in
      let settle =
        Elastic_sim.Profile.settle_seconds (Elastic_sim.Engine.profile eng)
      in
      best_settle := Float.min !best_settle settle;
      best_run := Float.min !best_run run;
      keep := Some eng
    done;
    (Option.get !keep, !best_settle, !best_run)
  in
  let design i (name, (d : Examples.design)) =
    let rf, tr, rr = measure Elastic_sim.Engine.Reference d.Examples.d_net in
    let ar, ta, ra = measure Elastic_sim.Engine.Arena d.Examples.d_net in
    let stream eng =
      Transfer.values (Elastic_sim.Engine.sink_stream eng d.Examples.d_sink)
    in
    let speedup = tr /. ta in
    let matches = List.equal Value.equal (stream rf) (stream ar) in
    (* The floor: the arena settles 8.5-11x faster than the reference
       fixpoint on the speculative designs; anything under 6.5x means
       the arena hot path regressed, not that the machine was busy. *)
    let speedup_ok = speedup >= 6.5 in
    claim "E9"
      (Fmt.str "designs[%d].arena_matches_reference" i)
      matches "arena run diverged from the reference run";
    claim "E9"
      (Fmt.str "designs[%d].speedup_ok" i)
      speedup_ok
      (Fmt.str "arena speedup below the 6.5x floor (%gx)" speedup);
    Json.Obj
      [ ("design", Json.Str name);
        ("cycles", Json.Int cycles);
        ("reference_settle_seconds", Json.Float tr);
        ("arena_settle_seconds", Json.Float ta);
        ("reference_cycles_per_second", Json.Float (float_of_int cycles /. tr));
        ("arena_cycles_per_second", Json.Float (float_of_int cycles /. ta));
        ("arena_speedup", Json.Float speedup);
        ("end_to_end_speedup", Json.Float (rr /. ra));
        ("arena_node_evals",
         Json.Int (Elastic_sim.Profile.evals (Elastic_sim.Engine.profile ar)));
        ("arena_matches_reference", Json.Bool matches);
        ("speedup_ok", Json.Bool speedup_ok) ]
  in
  let n = cycles / 2 in
  let e5 = Examples.vl_speculative ~ops:(Alu.operands ~error_rate_pct:5 ~seed:42 n) in
  let e6 = Examples.rs_speculative ~ops:(Examples.rs_ops ~error_rate_pct:5 ~seed:5 n) in
  record ~experiment:"E9" ~title:"arena backend settle speedup"
    [ ("designs",
       Json.List
         (List.mapi design [ ("vl_speculative", e5); ("rs_speculative", e6) ]))
    ]

(* E10: scheduling overhead of the supervised runner, measured from its
   own span ledger.  Each worker count of the scaling curve runs the
   SECDED campaign with a span collector attached; worker utilization is
   the summed shard-span time over [workers x wall], scheduling overhead
   its complement.  The cross-check that makes the ledger trustworthy:
   at 1 worker the shard spans must account for >= 95% of the campaign
   span — if they do not, the instrumentation is dropping time, and the
   utilization numbers upstream of it mean nothing.  Nothing may be
   dropped, and every point completes the whole campaign. *)
let json_e10 ?artifact ~quick () =
  let count = if quick then 24 else 60 in
  let module Collector = Elastic_obs.Collector in
  let module Span = Elastic_obs.Span in
  let run_at w =
    let c = Collector.create () in
    let r, wall = timed_campaign ~obs:(Some c) ~name:"e10" ~count w in
    (w, r, c, wall)
  in
  let runs = List.map run_at [ 1; 2; 4; 8 ] in
  let campaign_seconds c wall =
    match
      List.find_opt
        (fun (s : Span.t) -> s.Span.sp_kind = Span.Campaign)
        (Collector.spans c)
    with
    | Some s -> Span.duration_seconds s
    | None -> wall
  in
  let busy_total c =
    List.fold_left (fun acc (_, s) -> acc +. s) 0.0
      (Collector.busy_seconds c)
  in
  (* The ledger-accounting cross-check, on the 1-worker run: with no
     parallel idling possible, shard spans vs the campaign span is a
     pure instrumentation-coverage measurement. *)
  let account_ratio, account_ok =
    match runs with
    | (1, _, c, wall) :: _ ->
      let camp = campaign_seconds c wall in
      let ratio = if camp > 0.0 then busy_total c /. camp else 0.0 in
      (ratio, ratio >= 0.95)
    | _ -> (0.0, false)
  in
  claim "E10" "spans_account_ok" account_ok
    (Fmt.str
       "shard spans cover < 95%% of the 1-worker campaign span (ratio %g)"
       account_ratio);
  let points =
    List.mapi
      (fun i (w, r, c, wall) ->
         let shards = List.length r.Runner.r_shards in
         claim "E10"
           (Fmt.str "points[%d].spans_dropped" i)
           (Collector.dropped c = 0)
           "span ring overflowed; raise the recorder capacity";
         claim "E10"
           (Fmt.str "points[%d].completed" i)
           (r.Runner.r_completed = shards)
           "campaign did not complete every shard";
         let busy = busy_total c in
         let util =
           if wall > 0.0 then
             min 1.0 (busy /. (float_of_int w *. wall))
           else 0.0
         in
         Json.Obj
           [ ("workers", Json.Int w);
             ("shards", Json.Int shards);
             ("completed", Json.Int r.Runner.r_completed);
             ("spans", Json.Int (Collector.recorded c));
             ("spans_dropped", Json.Int (Collector.dropped c));
             ("elapsed_seconds", Json.Float wall);
             ("campaign_span_seconds", Json.Float (campaign_seconds c wall));
             ("busy_seconds", Json.Float busy);
             ("worker_utilization", Json.Float util);
             ("scheduling_overhead", Json.Float (max 0.0 (1.0 -. util))) ])
      runs
  in
  (match (artifact, List.rev runs) with
   | Some base, (_, _, c, _) :: _ ->
     (* Artifacts come from the widest run (8 workers): one Perfetto
        track per worker is the point of the format. *)
     let spans = Collector.spans c in
     Elastic_obs.Export.write_chrome ~path:(base ^ ".json") spans;
     Elastic_obs.Export.write_jsonl ~path:(base ^ ".jsonl")
       ~campaign:"secded" spans;
     Elastic_obs.Export.write_folded ~path:(base ^ ".folded") spans;
     Fmt.pr "wrote %s.json, %s.jsonl, %s.folded@." base base base
   | _ -> ());
  record ~experiment:"E10"
    ~title:"scheduling overhead from the runner's span ledger"
    [ ("scenarios", Json.Int count);
      ("points", Json.List points);
      ("spans_account_ratio", Json.Float account_ratio);
      ("spans_account_ok", Json.Bool account_ok) ]

(* ------------------------------------------------------------------ *)
(* --check: the regression gate.  Reports the paper's claims that       *)
(* failed while the records were built, then diffs each record against  *)
(* its committed baseline (bench/baselines/) with the shared Gate       *)
(* rules.  Any failure names the record, the metric path and the        *)
(* reason, and the process exits 1.                                     *)

(* Never raises: a vanished, unreadable or truncated baseline must fail
   the gate with a message naming the file, not an exception trace. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error m -> Error m

let check_mode ~dir files =
  let failures = ref 0 in
  let fail file path reason =
    incr failures;
    Fmt.epr "REGRESSION %s: %s: %s@." file path reason
  in
  List.iter (fun (file, path, reason) -> fail file path reason)
    (List.rev !claims);
  List.iter
    (fun (path, current) ->
       let bpath = Filename.concat dir path in
       if not (Sys.file_exists bpath) then
         fail path "(record)" (Fmt.str "no baseline at %s" bpath)
       else
         match Result.bind (read_file bpath) Json.parse with
         | Error m ->
           fail path "(record)" (Fmt.str "unreadable baseline %s: %s" bpath m)
         | Ok baseline -> (
           match Json.Jsonl.check ~schema:Metr.Gate.schema baseline with
           | Error e ->
             fail path "(record)"
               (Fmt.str "baseline %s: %s" bpath
                  (Json.Jsonl.error_to_string e))
           | Ok () ->
           List.iter
             (fun (d : Metr.Gate.diff) ->
                fail path d.Metr.Gate.d_path d.Metr.Gate.d_reason)
             (Metr.Gate.compare ~baseline ~current ())))
    files;
  if !failures = 0 then
    Fmt.pr "@.bench --check: OK (%d records match %s)@." (List.length files)
      dir
  else begin
    Fmt.epr "@.bench --check: %d regression(s) against %s@." !failures dir;
    exit 1
  end

(* Builds and writes the records in order, so the claims they check are
   collected in record order too. *)
let json_mode ~quick ~trace () =
  run_mode := (if quick then "quick" else "full");
  let artifact base = if trace then Some base else None in
  List.map
    (fun (path, build) ->
       let j = build () in
       Json.write path j;
       let engine = Json.member "engine" j in
       Fmt.pr "wrote %s%s@." path
         (match Option.bind engine (Json.member "eval_reduction") with
          | Some (Json.Float r) -> Fmt.str " (eval reduction %.2fx)" r
          | _ -> "");
       (path, j))
    [ ("BENCH_E1.json", fun () -> json_e1 (e1_table1 ()));
      ("BENCH_E2.json", fun () -> json_e2 (e2_fig1 ~quick));
      ("BENCH_E3.json", fun () -> json_e3 (e3_verify ()));
      ("BENCH_E5.json",
       fun () -> json_e5 ?artifact:(artifact "TRACE_E5") (e5_fig6 ~quick));
      ("BENCH_E6.json",
       fun () -> json_e6 ?artifact:(artifact "TRACE_E6") (e6_fig7 ~quick));
      ("BENCH_E8.json", fun () -> json_e8 ~quick);
      ("BENCH_E9.json", fun () -> json_e9 ~quick);
      ("BENCH_E10.json",
       fun () -> json_e10 ?artifact:(artifact "SPANS_E10") ~quick ()) ]

let () =
  let args = Array.to_list Sys.argv in
  let json = List.mem "--json" args in
  let quick = List.mem "--quick" args in
  let trace = List.mem "--trace" args in
  let check = List.mem "--check" args in
  let chaos = List.mem "--chaos" args in
  let baselines =
    let rec find = function
      | "--baselines" :: dir :: _ -> dir
      | _ :: rest -> find rest
      | [] -> "bench/baselines"
    in
    find args
  in
  if chaos then chaos_mode ~quick ()
  else if json || check then begin
    let files = json_mode ~quick ~trace () in
    if check then check_mode ~dir:baselines files
  end
  else begin
    Fmt.pr
      "Reproduction harness for \"Speculation in Elastic Systems\" (DAC \
       2009)@.";
    print_e1 (e1_table1 ());
    print_e2 (e2_fig1 ~quick:false);
    print_e3 (e3_verify ());
    print_e5 (e5_fig6 ~quick:false);
    print_e6 (e6_fig7 ~quick:false);
    e7_faults ();
    a1_recovery ();
    a2_schedulers ();
    a3_branch_prediction ();
    bechamel_suite ();
    Fmt.pr "@.done.@."
  end
