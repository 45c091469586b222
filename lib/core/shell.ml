open Elastic_kernel
open Elastic_sched
open Elastic_netlist

type session = {
  mutable net : Netlist.t option;
  mutable design : string;
      (* Name of the loaded design, for lint report headers. *)
  mutable undo : Netlist.t list;
  mutable redo : Netlist.t list;
  mutable trace_capacity : int option;
      (* [Some capacity] while [trace on] is in effect. *)
  mutable tracer : Elastic_trace.Tracer.t option;
      (* Tracer of the most recent traced simulation command, kept for
         [trace dump] and for enriching simulation-error reports. *)
  mutable on_error_continue : bool;
      (* Script mode: keep executing after a failing line. *)
  mutable pending_resume : Elastic_runner.Checkpoint.t option;
      (* Set by [runner resume] for the campaign command it re-executes;
         consumed by the next [campaign --par] run. *)
  mutable spans_capacity : int option;
      (* [Some per-worker ring capacity] while [spans on] is in effect:
         the next [campaign --par] records a span ledger. *)
  mutable collector : Elastic_obs.Collector.t option;
      (* Span ledger of the most recent instrumented campaign, kept for
         [spans dump] and the export commands. *)
  mutable telemetry : Elastic_telemetry.Telemetry.t option;
      (* Live telemetry hub while [serve] is in effect: campaigns
         attach their progress plane to it so /metrics, /status and
         /healthz track the run as it happens. *)
}

let create () =
  { net = None; design = "netlist"; undo = []; redo = [];
    trace_capacity = None; tracer = None; on_error_continue = false;
    pending_resume = None; spans_capacity = None; collector = None;
    telemetry = None }

let current s = s.net

let ( let* ) = Result.bind

let designs =
  let vl_ops () = Elastic_datapath.Alu.operands ~error_rate_pct:10 ~seed:1 200
  and rs_ops pct = Examples.rs_ops ~error_rate_pct:pct ~seed:1 200 in
  [ ("fig1a", fun () -> (Figures.fig1a ()).Figures.net);
    ("fig1b", fun () -> (Figures.fig1b ()).Figures.net);
    ("fig1c", fun () -> (Figures.fig1c ()).Figures.net);
    ("fig1d", fun () -> (Figures.fig1d ()).Figures.net);
    ("table1", fun () -> (Figures.table1 ()).Figures.t1_net);
    ("vl-stalling",
     fun () -> (Examples.vl_stalling ~ops:(vl_ops ())).Examples.d_net);
    ("vl-speculative",
     fun () -> (Examples.vl_speculative ~ops:(vl_ops ())).Examples.d_net);
    ("rs-nonspec",
     fun () -> (Examples.rs_nonspeculative ~ops:(rs_ops 10)).Examples.d_net);
    ("rs-spec",
     fun () -> (Examples.rs_speculative ~ops:(rs_ops 10)).Examples.d_net);
    ("rs-alarmed",
     fun () ->
       (fst (Examples.rs_speculative_alarmed ~ops:(rs_ops 0))).Examples.d_net)
  ]

(* Resolve a named [what] among [names] with [find]. *)
let lookup what names find name =
  match find name with
  | Some x -> Ok x
  | None ->
    Error
      (Fmt.str "unknown %s %S (available: %s)" what name
         (String.concat ", " names))

let design_arg =
  lookup "design" (List.map fst designs) (fun n -> List.assoc_opt n designs)

let sched_arg = function
  | "sticky" -> Ok Scheduler.Sticky
  | "toggle" -> Ok Scheduler.Toggle
  | "two-bit" -> Ok Scheduler.Two_bit
  | "round-robin" -> Ok Scheduler.Round_robin
  | "static0" -> Ok (Scheduler.Static 0)
  | "static1" -> Ok (Scheduler.Static 1)
  | "hinted-replay" -> Ok Scheduler.Hinted_replay
  | sc -> Error (Fmt.str "unknown scheduler %S" sc)

(* Resolve a node or channel argument: a numeric id (checked by [by_id])
   or a name (looked up by [by_name]). *)
let id_or_name what ~by_id ~by_name s =
  match int_of_string_opt s with
  | Some id -> (try Ok (by_id id) with Invalid_argument m -> Error m)
  | None ->
    Option.to_result (by_name s) ~none:(Fmt.str "no %s called %S" what s)

let node_arg net =
  id_or_name "node"
    ~by_id:(fun id -> (Netlist.node net id).Netlist.id)
    ~by_name:(fun s ->
        Option.map (fun n -> n.Netlist.id) (Netlist.find_node net s))

let channel_arg net =
  id_or_name "channel"
    ~by_id:(fun id -> (Netlist.channel net id).Netlist.ch_id)
    ~by_name:(fun s ->
        List.find_map
          (fun (c : Netlist.channel) ->
             if String.equal c.Netlist.ch_name s then Some c.Netlist.ch_id
             else None)
          (Netlist.channels net))

let buffer_kind_arg = function
  | "eb" -> Ok Netlist.Eb
  | "eb0" -> Ok Netlist.Eb0
  | s -> Error (Fmt.str "unknown buffer kind %S (eb or eb0)" s)

let int_arg what v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Fmt.str "%s must be an integer, got %S" what v)

(* Raised by a command handler on arguments it does not accept; the
   dispatcher answers with the command's synopses from the table. *)
exception Usage

let usage () = raise Usage

(* An optional trailing integer argument ([cycles], [window], [every],
   [capacity], [n], [port]): its name in error messages, its default and
   its lower bound. *)
type opt = { name : string; default : int; min : int }

let cycles_opt default = { name = "cycles"; default; min = 0 }

let count_opt default = { name = "count"; default; min = 0 }

let positive name default = { name; default; min = 1 }

let bounded o v =
  let* i = int_arg o.name v in
  if i < o.min then Error (Fmt.str "%s must be >= %d" o.name o.min)
  else Ok i

(* Zero or one optional integer; more words are a usage error. *)
let opt_int o = function
  | [] -> Ok o.default
  | [ v ] -> bounded o v
  | _ -> usage ()

let opt_int2 o1 o2 = function
  | [] -> Ok (o1.default, o2.default)
  | v :: rest ->
    let* a = bounded o1 v in
    let* b = opt_int o2 rest in
    Ok (a, b)

let port name p =
  if p < 0 || p > 65535 then
    Error (Fmt.str "%s must be in 0..65535 (0 picks an ephemeral port)" name)
  else Ok p

let diag r = Result.map_error Diagnostic.to_string r

let write_file file text =
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc text)

let with_net s f =
  match s.net with
  | None -> Error "no design loaded (use: load <design>)"
  | Some net -> f net

(* Apply a transformation: push the old design on the undo stack. *)
let transform s f =
  with_net s (fun net ->
      let* net', msg = f net in
      s.undo <- net :: s.undo;
      s.redo <- [];
      s.net <- Some net';
      Ok msg)

(* Make [net] the session's design, with an empty history. *)
let install s name net =
  s.net <- Some net;
  s.design <- name;
  s.undo <- [];
  s.redo <- []

(* Every simulation command runs a fresh engine (so each report,
   [profile] included, covers exactly one window) through [simulate].
   The engine's single observer slot carries a tracer — under [trace on],
   or with [trace_capacity] when the command reads the events itself —
   followed by the command's own [observers] (metrics sampler, VCD
   recorder).  The tracer is kept for [trace dump] and error reports. *)
let simulate ?trace_capacity ?(observers = []) s eng cycles =
  let tracer =
    match trace_capacity, s.trace_capacity with
    | Some capacity, _ | None, Some capacity ->
      let tr = Elastic_trace.Tracer.create ~capacity eng in
      s.tracer <- Some tr;
      [ Elastic_trace.Tracer.observe tr ]
    | None, None -> []
  in
  (match tracer @ observers with
   | [] -> ()
   | fs ->
     Elastic_sim.Engine.set_observer eng
       (Some (fun e -> List.iter (fun f -> f e) fs)));
  Elastic_sim.Engine.run eng cycles

(* A fresh engine simulated for [cycles] with only the session's
   observers. *)
let simulated s net cycles =
  let eng = Elastic_sim.Engine.create net in
  simulate s eng cycles;
  eng

module Metr = Elastic_metrics

let sinks net =
  List.filter
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with Netlist.Sink _ -> true | _ -> false)
    (Netlist.nodes net)

(* One dashboard frame: headline rates from the engine, replay-penalty
   quantiles from the metrics snapshot.  The observer runs before the
   engine's cycle counter advances, so rates divide by the frame's own
   cycle count, not by [Engine.cycle]. *)
let watch_frame net eng (r : Metr.Sampler.row) =
  let module Stats = Elastic_sim.Stats in
  let cyc = r.Metr.Sampler.r_cycle in
  let st = Stats.collect eng in
  let b = Buffer.create 256 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "-- cycle %d %s" cyc (String.make (max 1 (40 - 12)) '-');
  List.iter
    (fun (n : Netlist.node) ->
       let transfers =
         Transfer.length (Elastic_sim.Engine.sink_stream eng n.Netlist.id)
       in
       line "  sink %-12s %.3f tok/cyc (%d transfers)" n.Netlist.name
         (float_of_int transfers /. float_of_int cyc)
         transfers)
    (sinks net);
  List.iter
    (fun (sc : Stats.scheduler_stats) ->
       let serves = sc.Stats.ss_serves in
       let mispred = sc.Stats.ss_mispredictions in
       let accuracy =
         if serves = 0 then 1.0
         else
           Float.max 0.0
             (1.0 -. (float_of_int mispred /. float_of_int serves))
       in
       let penalty =
         match
           Metr.Metrics.find r.Metr.Sampler.r_samples
             ~labels:[ ("node", sc.Stats.ss_name) ]
             "elastic_sched_replay_penalty_cycles"
         with
         | Some (Metr.Metrics.Histogram h)
           when Metr.Histogram.s_count h > 0 ->
           Fmt.str "replay p50/p99 %d/%d"
             (Metr.Histogram.s_quantile h 0.5)
             (Metr.Histogram.s_quantile h 0.99)
         | _ -> "no replays"
       in
       line "  sched %-11s accuracy %.2f  serves %d  squashes %d  %s"
         sc.Stats.ss_name accuracy serves mispred penalty)
    st.Stats.schedulers;
  (match
     Stats.most_stalled st
     |> List.filter (fun (c : Stats.channel_stats) ->
         c.Stats.cs_retry_cycles > 0)
     |> List.filteri (fun i _ -> i < 3)
   with
   | [] -> line "  stalls: none"
   | l ->
     line "  stalls: %s"
       (String.concat "  "
          (List.map
             (fun (c : Stats.channel_stats) ->
                Fmt.str "%s %.3f" c.Stats.cs_name c.Stats.cs_stall_ratio)
             l)));
  line "  stored tokens: %d" (Elastic_sim.Engine.stored_tokens eng);
  Buffer.contents b

let throughput_report s net cycles =
  let eng = simulated s net cycles in
  let sinks =
    List.map
      (fun (n : Netlist.node) ->
         Fmt.str "  %s: %.3f tokens/cycle (%d transfers)" n.Netlist.name
           (Elastic_sim.Engine.throughput eng n.Netlist.id)
           (Transfer.length
              (Elastic_sim.Engine.sink_stream eng n.Netlist.id)))
      (sinks net)
  in
  let violations = Elastic_sim.Engine.violations eng in
  let extra =
    if violations = [] then []
    else
      Fmt.str "  !! %d protocol violations" (List.length violations)
      :: List.map
           (fun (ch, v) -> Fmt.str "     %s: %a" ch Protocol.pp_violation v)
           (List.filteri (fun i _ -> i < 5) violations)
  in
  String.concat "\n"
    ((Fmt.str "simulated %d cycles" cycles :: sinks) @ extra)

(* Table-1-style trace: one row per channel, one cell per cycle. *)
let trace_table s net cycles =
  let cell (sg : Signal.t) =
    if sg.Signal.v_minus then "  -"
    else if sg.Signal.v_plus then
      (match sg.Signal.data with
       | Some v ->
         let t = Value.to_string v in
         if String.length t > 3 then " " ^ String.sub t 0 2
         else Fmt.str "%3s" t
       | None -> "  ?")
    else "  *"
  in
  let rows =
    List.map (fun (c : Netlist.channel) -> (c, ref [])) (Netlist.channels net)
  in
  let record eng =
    List.iter
      (fun ((c : Netlist.channel), cells) ->
         let sg = Elastic_sim.Engine.signal eng c.Netlist.ch_id in
         cells := cell sg :: !cells)
      rows
  in
  simulate s (Elastic_sim.Engine.create net) ~observers:[ record ] cycles;
  String.concat "\n"
    (List.map
       (fun ((c : Netlist.channel), cells) ->
          Fmt.str "%-30s%s" c.Netlist.ch_name
            (String.concat "" (List.rev !cells)))
       rows)

(* Simulate with a metrics sampler and render its final snapshot. *)
let prometheus s net cycles =
  let eng = Elastic_sim.Engine.create net in
  let sampler = Metr.Sampler.create eng in
  simulate s eng ~observers:[ Metr.Sampler.observe sampler ] cycles;
  Metr.Prometheus.render (Metr.Sampler.sample sampler eng)

(* Simulate with a windowed metrics sampler calling [on_window]. *)
let windowed s net ~window ~on_window cycles =
  let eng = Elastic_sim.Engine.create net in
  let sampler = Metr.Sampler.create ~window ~on_window:(on_window eng) eng in
  simulate s eng ~observers:[ Metr.Sampler.observe sampler ] cycles

(* Sinks named "alarm" are error detectors by convention (see
   [Examples.rs_speculative_alarmed]): a delivered value >= 2 counts as
   the design reporting the fault. *)
let alarms_of net =
  List.filter_map
    (fun (n : Netlist.node) ->
       match n.Netlist.kind with
       | Netlist.Sink _ when String.equal n.Netlist.name "alarm" ->
         Some
           (n.Netlist.id,
            fun v -> (try Value.to_int v >= 2 with Invalid_argument _ -> false))
       | _ -> None)
    (Netlist.nodes net)

let inject_cmd net target kind rest =
  let open Elastic_fault in
  let* faults =
    match kind, rest with
    | "mispredict", [ cy; way ] ->
      let* node = node_arg net target in
      let* cycle = int_arg "cycle" cy in
      let* way = int_arg "way" way in
      Ok [ Fault.mispredict ~node ~cycle way ]
    | ("flip" | "drop" | "dup" | "glitch" | "stall"), cy :: args -> (
        let* channel = channel_arg net target in
        let* cycle = int_arg "cycle" cy in
        match kind, args with
        | "flip", [ bit ] ->
          let* bit = int_arg "bit" bit in
          Ok [ Fault.flip_bit ~channel ~cycle bit ]
        | "drop", [] -> Ok [ Fault.drop_token ~channel ~cycle ]
        | "dup", [] -> Ok [ Fault.duplicate_token ~channel ~cycle ]
        | "glitch", [] -> Ok (Fault.control_glitch ~channel ~cycle)
        | "stall", dur ->
          let* duration =
            opt_int { name = "duration"; default = 1; min = 0 } dur
          in
          Ok [ Fault.stuck_stall ~channel ~cycle ~duration ]
        | _ -> usage ())
    | _ -> usage ()
  in
  let report =
    Recovery.check ~cycles:300 ~settle:60 ~alarms:(alarms_of net) net
      ~faults
  in
  Ok (Fmt.str "%a" Recovery.pp_report report)

let campaign_summary net summary =
  let open Elastic_fault in
  let bad =
    List.filter
      (fun (o : Campaign.outcome) ->
         match o.Campaign.report.Recovery.classification with
         | Recovery.Masked | Recovery.Corrected _ -> false
         | _ -> true)
      summary.Campaign.outcomes
  in
  let detail =
    List.filteri (fun i _ -> i < 5) bad
    |> List.map (fun (o : Campaign.outcome) ->
        Fmt.str "  %a <- %s" Recovery.pp_classification
          o.Campaign.report.Recovery.classification
          (String.concat " + "
             (List.map (Fault.describe net) o.Campaign.faults)))
  in
  let more =
    if List.length bad > 5 then
      [ Fmt.str "  ... and %d more non-benign outcomes"
          (List.length bad - 5) ]
    else []
  in
  String.concat "\n"
    ((Fmt.str "%a" Campaign.pp_summary summary :: detail) @ more)

(* Split "campaign flips a 20 7 --par 4 --checkpoint f --serve 0" into
   the positional arguments and the runner options (options may appear
   in any order after the positionals they follow). *)
let campaign_options rest =
  let rec split pos par ckpt serve = function
    | [] -> Ok (List.rev pos, par, ckpt, serve)
    | "--par" :: n :: tail ->
      let* p = bounded (positive "--par" 1) n in
      split pos (Some p) ckpt serve tail
    | "--checkpoint" :: f :: tail -> split pos par (Some f) serve tail
    | "--serve" :: p :: tail ->
      let* port = Result.bind (int_arg "--serve" p) (port "--serve port") in
      split pos par ckpt (Some port) tail
    | [ ("--par" | "--checkpoint" | "--serve") ] -> usage ()
    | w :: tail -> split (w :: pos) par ckpt serve tail
  in
  split [] None None None rest

(* A sharded campaign under the supervised runner: one task per
   scenario, merged in shard-index order (so the histogram is identical
   to the sequential campaign's at any worker count), with a
   completeness report instead of a silent partial answer. *)
let campaign_par_run s net ~kind ~rest ~par ~ckpt ~serve ~cycles scenarios =
  let module Runner = Elastic_runner.Runner in
  let module Workload = Elastic_runner.Workload in
  let module Telemetry = Elastic_telemetry.Telemetry in
  let name = Fmt.str "campaign-%s" kind in
  let command = String.concat " " ("campaign" :: kind :: rest) in
  let resume = s.pending_resume in
  s.pending_resume <- None;
  let tasks =
    Workload.of_campaign ~cycles ~settle:60 ~alarms:(alarms_of net) ~name
      net ~scenarios
  in
  let obs =
    Option.map
      (fun capacity_per_track ->
         Elastic_obs.Collector.create ~capacity_per_track ())
      s.spans_capacity
  in
  (* Live telemetry: attach the run to the session's [serve] hub if one
     is up, or stand up an ephemeral server for just this run when
     [--serve] asked for one. *)
  let* hub, ephemeral =
    match serve, s.telemetry with
    | Some _, Some hub ->
      Error
        (Fmt.str
           "telemetry server already on port %d — drop --serve (the \
            campaign publishes there) or serve stop first"
           (Option.value ~default:0 (Telemetry.port hub)))
    | Some port, None ->
      let hub = Telemetry.create () in
      let* _ = Telemetry.start ~port hub in
      Ok (Some hub, true)
    | None, Some hub -> Ok (Some hub, false)
    | None, None -> Ok (None, false)
  in
  let progress =
    Option.map
      (fun hub ->
         let ids =
           Array.of_list
             (List.map (fun (t : Runner.task) -> t.Runner.id) tasks)
         in
         let p = Elastic_runner.Progress.create ~name ~ids () in
         Telemetry.set_progress hub (Some p);
         Option.iter (fun c -> Telemetry.set_collector hub (Some c)) obs;
         p)
      hub
  in
  let serve_lines =
    match hub with
    | Some h when ephemeral ->
      [ Fmt.str "telemetry: served http://127.0.0.1:%d during the run"
          (Option.value ~default:0 (Telemetry.port h)) ]
    | _ -> []
  in
  let clock = Elastic_sim.Clock.monotonic in
  let t0 = clock () in
  let r =
    Fun.protect
      ~finally:(fun () ->
          if ephemeral then Option.iter Telemetry.stop hub)
      (fun () ->
         Runner.run ~workers:par ?checkpoint:ckpt ?resume ?obs
           ?registry:(Option.map Telemetry.registry hub)
           ?progress ~command ~name tasks)
  in
  let wall_seconds = Elastic_sim.Clock.seconds_between t0 (clock ()) in
  let histogram = Workload.classification_histogram r.Runner.r_merged in
  let hist_lines =
    List.map (fun (label, n) -> Fmt.str "  %-20s %d" label n) histogram
  in
  let span_lines =
    match obs with
    | None -> []
    | Some c ->
      s.collector <- Some c;
      let util = Elastic_obs.Collector.utilization c ~wall_seconds in
      Fmt.str "spans: %d recorded (%d dropped) in %.3fs"
        (Elastic_obs.Collector.recorded c)
        (Elastic_obs.Collector.dropped c)
        wall_seconds
      :: List.map
           (fun (w, u) ->
              Fmt.str "  worker %d utilization %5.1f%%" w (100.0 *. u))
           util
  in
  let body =
    (Fmt.str "@[<v>%a@]" Runner.pp_report r :: "classification histogram:"
     :: hist_lines)
    @ span_lines @ serve_lines
    @
    match ckpt with
    | Some f -> [ Fmt.str "checkpoint: %s" f ]
    | None -> []
  in
  Ok (String.concat "\n" body)

let campaign_cmd s net kind rest =
  let open Elastic_fault in
  let* positional, par, ckpt, serve = campaign_options rest in
  let* scenarios, cycles =
    match kind, positional with
    | "flips", ch :: cnt :: seed :: tail ->
      let* channel = channel_arg net ch in
      let* count = int_arg "count" cnt in
      let* seed = int_arg "seed" seed in
      let* cycles = opt_int (cycles_opt 300) tail in
      Ok
        (Campaign.random_bitflips ~net ~channel ~seed ~count ~from_cycle:2
           ~to_cycle:(max 3 (cycles / 2)) (),
         cycles)
    | "storm", cnt :: seed :: tail ->
      let* count = int_arg "count" cnt in
      let* seed = int_arg "seed" seed in
      let* cycles = opt_int (cycles_opt 300) tail in
      Ok
        (Campaign.random_storm ~net ~seed ~count ~from_cycle:2
           ~to_cycle:(max 3 (cycles / 2)),
         cycles)
    | _ -> usage ()
  in
  match par with
  | Some par ->
    campaign_par_run s net ~kind ~rest ~par ~ckpt ~serve ~cycles scenarios
  | None when ckpt <> None ->
    Error "--checkpoint requires --par (the supervised runner)"
  | None when serve <> None ->
    Error "--serve requires --par (the supervised runner)"
  | None ->
    let summary =
      Campaign.run ~cycles ~settle:60 ~alarms:(alarms_of net) net
        ~scenarios
    in
    Ok (campaign_summary net summary)

(* A ring's last entries under a header with its drop accounting. *)
let last_recorded what pp ~recorded ~dropped items =
  String.concat "\n"
    (Fmt.str "%d %s recorded (%d dropped), last %d:" recorded what dropped
       (List.length items)
     :: List.map (Fmt.str "  %a" pp) items)

let recorded_spans s =
  Option.to_result s.collector
    ~none:"no spans recorded (use: spans on, then campaign ... --par)"

let lint_verdict report =
  let text = Elastic_lint.Lint.render report in
  (* Error findings fail the command, so scripts (and the CI lint gate)
     exit nonzero on a broken design. *)
  if Elastic_lint.Lint.clean report then Ok text else Error text

let load_checkpoint file =
  Result.map_error (Fmt.str "%s: %s" file)
    (Elastic_runner.Checkpoint.load file)

(* One shell command: the word it dispatches on, its lines of the help
   text (verbatim; empty when a neighbour's lines document the word too)
   and its handler, which receives the remaining words. *)
type command = {
  word : string;
  help : string;
  run : session -> string list -> (string, string) result;
}

(* Handler shapes shared by many commands. *)
let on_net f s args = with_net s (fun net -> f s net args)

let query f = on_net (fun _ net -> function [] -> f net | _ -> usage ())

let on_one_arg f s = function [ a ] -> f s a | _ -> usage ()

let on_two_args f s = function [ a; b ] -> f s a b | _ -> usage ()

(* A transformation of the node named by the sole argument. *)
let on_node f =
  on_one_arg (fun s a ->
      transform s (fun net ->
          let* id = node_arg net a in
          f net id))

(* A simulation command whose only argument is an optional [cycles]. *)
let on_cycles default f =
  on_net (fun s net args ->
      let* cycles = opt_int (cycles_opt default) args in
      f s net cycles)

let export save =
  on_net (fun _ net -> function
    | [ file ] ->
      save file net;
      Ok (Fmt.str "wrote %s" file)
    | _ -> usage ())

let no_args f _ = function [] -> f () | _ -> usage ()

let bye = no_args (fun () -> Ok "bye")

(* The synopsis column of a help line ("vcd <file> [cycles]"), or [None]
   for a continuation line. *)
let synopsis line =
  let rec upto = function "" :: _ | [] -> [] | w :: ws -> w :: upto ws in
  match String.split_on_char ' ' line with
  | "" :: "" :: (w :: _ as words) when w <> "" ->
    Some (String.concat " " (upto words))
  | _ -> None

(* A command's usage error lists the synopses of its help lines; a word
   without lines of its own borrows its neighbour's (open, redo, exit). *)
let usage_of table word =
  let rec find last = function
    | [] -> last
    | c :: rest ->
      let own = List.filter_map synopsis (String.split_on_char '\n' c.help) in
      let syn = if own = [] then last else own in
      if String.equal c.word word then syn else find syn rest
  in
  "usage: " ^ String.concat " | " (find [] table)

let help_of table =
  String.concat "\n"
    ("Commands (the paper's exploration toolkit):"
     :: List.filter (fun h -> h <> "") (List.map (fun c -> c.help) table))

let rec table =
  lazy
    [ { word = "load";
        help =
          {|  load <design>            load a predefined design:
                           fig1a fig1b fig1c fig1d table1
                           vl-stalling vl-speculative rs-nonspec rs-spec
                           rs-alarmed|};
        run =
          on_one_arg (fun s name ->
              let* build = design_arg name in
              install s name (build ());
              Ok (Fmt.str "loaded %s" name)) };
      { word = "show";
        help = {|  show                     print nodes and channels|};
        run = query (fun net -> Ok (Fmt.str "%a" Netlist.pp net)) };
      { word = "candidates";
        help =
          {|  candidates               list speculation candidates (critical cycles
                           through a multiplexor select)|};
        run =
          query (fun net ->
              match Speculation.candidates net with
              | [] -> Ok "no speculation candidates"
              | cs ->
                Ok
                  (String.concat "\n"
                     (List.map (Fmt.str "  %a" Speculation.pp_candidate) cs)))
      };
      { word = "bubble";
        help = {|  bubble <channel>         insert an empty EB on a channel|};
        run =
          on_one_arg (fun s ch ->
              transform s (fun net ->
                  let* channel = channel_arg net ch in
                  let net', b = Transform.insert_bubble net ~channel in
                  Ok (net', Fmt.str "inserted bubble node %d" b))) };
      { word = "buffer";
        help = {|  buffer <channel> eb|eb0  insert a buffer of the given kind|};
        run =
          on_two_args (fun s ch kind ->
              transform s (fun net ->
                  let* channel = channel_arg net ch in
                  let* buffer = buffer_kind_arg kind in
                  let net', b =
                    Transform.insert_buffer net ~channel ~buffer ~init:[]
                  in
                  Ok (net', Fmt.str "inserted %s node %d" kind b))) };
      { word = "remove-buffer";
        help = {|  remove-buffer <node>     splice an empty buffer out|};
        run =
          on_node (fun net b -> Ok (Transform.remove_buffer net b, "removed"))
      };
      { word = "convert";
        help = {|  convert <node> eb|eb0    change a buffer implementation (Fig. 5)|};
        run =
          on_two_args (fun s node kind ->
              transform s (fun net ->
                  let* b = node_arg net node in
                  let* buffer = buffer_kind_arg kind in
                  Ok (Transform.convert_buffer net b buffer,
                      Fmt.str "converted node %d to %s" b kind))) };
      { word = "fifo";
        help = {|  fifo <channel> <depth>   insert a chain of empty EBs|};
        run =
          on_two_args (fun s ch depth ->
              transform s (fun net ->
                  let* channel = channel_arg net ch in
                  let* depth = int_arg "depth" depth in
                  let net', bs = Transform.insert_fifo net ~channel ~depth in
                  Ok (net', Fmt.str "inserted %d buffers" (List.length bs)))) };
      { word = "retime-fwd";
        help = {|  retime-fwd <node>        move input-buffer tokens across a block|};
        run =
          on_node (fun net f ->
              let net', b = Transform.retime_forward net ~through:f in
              Ok (net', Fmt.str "moved tokens to new buffer %d" b)) };
      { word = "retime-bwd";
        help = {|  retime-bwd <node>        move an empty output buffer to the inputs|};
        run =
          on_node (fun net f ->
              let net', bs = Transform.retime_backward net ~through:f in
              Ok
                (net',
                 Fmt.str "moved empty buffer to inputs [%a]"
                   Fmt.(list ~sep:comma int)
                   bs)) };
      { word = "shannon";
        help = {|  shannon <mux>            Shannon decomposition of the block after <mux>|};
        run =
          on_node (fun net mux ->
              let net', copies = Transform.shannon net ~mux in
              Ok
                (net',
                 Fmt.str "duplicated the block into nodes [%a]"
                   Fmt.(list ~sep:comma int)
                   copies)) };
      { word = "early";
        help = {|  early <mux>              switch <mux> to early evaluation|};
        run =
          on_node (fun net mux ->
              Ok (Transform.early_evaluation net ~mux, "early evaluation on"))
      };
      { word = "share";
        help =
          {|  share <n1> <n2> [sched]  share two identical blocks (sched: sticky,
                           toggle, two-bit, round-robin, static0, static1)|};
        run =
          (fun s -> function
            | n1 :: n2 :: rest ->
              transform s (fun net ->
                  let* a = node_arg net n1 in
                  let* b = node_arg net n2 in
                  let* sched =
                    match rest with
                    | [] -> Ok Scheduler.Sticky
                    | [ sc ] -> sched_arg sc
                    | _ -> usage ()
                  in
                  let net', sh = Transform.share net ~blocks:[ a; b ] ~sched in
                  Ok (net', Fmt.str "shared into node %d" sh))
            | _ -> usage ()) };
      { word = "speculate";
        help = {|  speculate [mux] [sched]  the full recipe of Section 4 (steps 2-4)|};
        run =
          (fun s args ->
             transform s (fun net ->
                 (* A lone argument is a scheduler if it names one, else
                    the mux. *)
                 let* mux, sched =
                   match args with
                   | [] -> Ok (None, Scheduler.Sticky)
                   | [ m ] -> (
                       match sched_arg m with
                       | Ok sched -> Ok (None, sched)
                       | Error _ -> Ok (Some m, Scheduler.Sticky))
                   | [ m; sc ] ->
                     let* sched = sched_arg sc in
                     Ok (Some m, sched)
                   | _ -> usage ()
                 in
                 let* r =
                   match mux with
                   | None -> Ok (Speculation.speculate_auto net ~sched)
                   | Some m ->
                     let* mux = node_arg net m in
                     Ok (Speculation.speculate net ~mux ~sched)
                 in
                 Ok
                   (r.Speculation.net,
                    Fmt.str "speculation applied: shared module %d, mux %d"
                      r.Speculation.shared r.Speculation.mux))) };
      { word = "save";
        help =
          {|  save <file> / open <file>  netlist files (.enl); custom blocks must be
                           registered with Library.register before open|};
        run = export Serial.save };
      { word = "open";
        help = "";
        run =
          on_one_arg (fun s file ->
              let* net = Serial.load file in
              let name = Filename.remove_extension (Filename.basename file) in
              install s name net;
              Ok (Fmt.str "opened %s" file)) };
      { word = "throughput";
        help = {|  throughput [cycles]      simulate and report per-sink throughput|};
        run =
          on_cycles 200 (fun s net cycles ->
              Ok (throughput_report s net cycles)) };
      { word = "stats";
        help = {|  stats [cycles]           per-channel utilization and stall ratios|};
        run =
          on_cycles 200 (fun s net cycles ->
              Ok
                (Fmt.str "%a" Elastic_sim.Stats.pp
                   (Elastic_sim.Stats.collect (simulated s net cycles)))) };
      { word = "trace";
        help =
          {|  trace [cycles]           Table-1-style trace of every channel
  trace on [capacity]      record typed events (transfers, stalls, anti-
                           tokens, predictions, squashes, replays) during
                           subsequent simulation commands
  trace off                stop recording (the last trace stays dumpable)
  trace dump [n]           print the last n recorded events|};
        run =
          (fun s -> function
            | "on" :: rest ->
              let* capacity = opt_int (positive "capacity" 65536) rest in
              s.trace_capacity <- Some capacity;
              Ok
                (Fmt.str
                   "tracing on (ring capacity %d events); simulation \
                    commands now record events (dump with: trace dump)"
                   capacity)
            | [ "off" ] ->
              s.trace_capacity <- None;
              Ok "tracing off (the last recorded trace is still dumpable)"
            | "dump" :: rest ->
              with_net s (fun net ->
                  let* limit = opt_int (count_opt 40) rest in
                  let* tr =
                    Option.to_result s.tracer
                      ~none:
                        "no trace recorded (use: trace on, then a simulation \
                         command such as throughput, stats or timeline)"
                  in
                  Ok
                    (last_recorded "events" (Elastic_trace.Event.pp net)
                       ~recorded:(Elastic_trace.Tracer.recorded tr)
                       ~dropped:(Elastic_trace.Tracer.dropped tr)
                       (Elastic_trace.Tracer.recent ~limit tr)))
            | args ->
              on_cycles 8 (fun s net cycles -> Ok (trace_table s net cycles)) s
                args) };
      { word = "vcd";
        help =
          {|  vcd <file> [cycles]      simulate and write a VCD waveform (handshake
                           wires + channel state + data, GTKWave-ready)|};
        run =
          on_net (fun s net -> function
            | file :: rest ->
              let* cycles = opt_int (cycles_opt 200) rest in
              let rc = Elastic_trace.Vcd.create net in
              simulate s (Elastic_sim.Engine.create net) cycles
                ~observers:[ Elastic_trace.Vcd.observe rc ];
              Elastic_trace.Vcd.save file rc;
              Ok
                (Fmt.str "wrote %s (%d cycles, %d channels)" file cycles
                   (List.length (Netlist.channels net)))
            | [] -> usage ()) };
      { word = "timeline";
        help =
          {|  timeline [cycles]        per-scheduler speculation timeline: accuracy,
                           squash-penalty distribution, commit intervals|};
        run =
          on_cycles 200 (fun s net cycles ->
              simulate s (Elastic_sim.Engine.create net) cycles
                ~trace_capacity:65536;
              let events =
                Option.fold ~none:[] ~some:Elastic_trace.Tracer.events s.tracer
              in
              match Elastic_trace.Timeline.analyze events with
              | [] -> Ok "no speculation schedulers in the design"
              | tls -> Ok (Fmt.str "%a" (Elastic_trace.Timeline.pp net) tls))
      };
      { word = "attribute";
        help =
          {|  attribute [cycles]       simulate, walk the backpressure chain to the
                           bottleneck channel, and cross-check it against
                           the marked-graph critical cycle|};
        run =
          on_cycles 200 (fun s net cycles ->
              Ok
                (Fmt.str "%a" Elastic_trace.Attribution.pp
                   (Elastic_trace.Attribution.analyze
                      (simulated s net cycles)))) };
      { word = "profile";
        help =
          {|  profile [cycles]         evaluation schedule and per-node settle cost
                           (fresh engine per call: the report covers this
                           invocation only, not previous runs)|};
        run =
          on_cycles 200 (fun s net cycles ->
              let eng = simulated s net cycles in
              let names =
                Array.of_list
                  (List.map
                     (fun (n : Netlist.node) -> n.Netlist.name)
                     (Netlist.nodes net))
              in
              Ok
                (Fmt.str "@[<v>window: this invocation only (%d cycles)@,\
                          schedule: %a@,%a@]"
                   cycles Elastic_sim.Schedule.pp_stats
                   (Elastic_sim.Engine.schedule eng)
                   (Elastic_sim.Profile.pp ~name:(fun i -> names.(i)))
                   (Elastic_sim.Engine.profile eng))) };
      { word = "metrics";
        help =
          {|  metrics [cycles]         simulate and print the metrics registry in
                           Prometheus text-exposition format (counters,
                           gauges, histograms over engine / channels /
                           schedulers / faults)
  metrics prom <file> [cycles]   write the Prometheus snapshot to a file
  metrics jsonl <file> [cycles] [window]  windowed JSONL time series
                           (one cumulative snapshot line per window)|};
        run =
          on_net (fun s net -> function
            | "prom" :: file :: rest ->
              let* cycles = opt_int (cycles_opt 200) rest in
              write_file file (prometheus s net cycles);
              Ok (Fmt.str "wrote %s (%d cycles)" file cycles)
            | "jsonl" :: file :: rest ->
              let* cycles, window =
                opt_int2 (cycles_opt 200) (positive "window" 50) rest
              in
              let rows = ref [] in
              windowed s net ~window cycles ~on_window:(fun _ r ->
                  rows := (Metr.Sampler.jsonl_of_row r ^ "\n") :: !rows);
              write_file file (String.concat "" (List.rev !rows));
              Ok
                (Fmt.str "wrote %s (%d cycles, %d windows of %d)" file
                   cycles (List.length !rows) window)
            | args ->
              let* cycles = opt_int (cycles_opt 200) args in
              Ok
                (Fmt.str "# simulated %d cycles@.%s" cycles
                   (prometheus s net cycles))) };
      { word = "watch";
        help =
          {|  watch [cycles] [every]   live dashboard: simulate and render a frame
                           every [every] cycles (throughput, prediction
                           accuracy, replay penalties, stalls, occupancy)|};
        run =
          on_net (fun s net args ->
              let* cycles, every =
                opt_int2 (cycles_opt 200) (positive "every" 50) args
              in
              let frames = Buffer.create 1024 in
              windowed s net ~window:every cycles ~on_window:(fun eng r ->
                  Buffer.add_string frames (watch_frame net eng r));
              Ok
                (Fmt.str "%swatched %d cycles (frame every %d)"
                   (Buffer.contents frames) cycles every)) };
      { word = "cycletime";
        help = {|  cycletime                static cycle-time analysis|};
        run =
          query (fun net ->
              let* r = Timing.analyze net in
              Ok (Fmt.str "%a" Timing.pp_report r)) };
      { word = "area";
        help = {|  area                     gate-equivalent area|};
        run =
          query (fun net ->
              Ok (Fmt.str "total area: %.1f gate equivalents" (Area.total net)))
      };
      { word = "bound";
        help = {|  bound                    marked-graph throughput bound|};
        run =
          query (fun net ->
              Ok
                (Fmt.str "marked-graph throughput bound: %.3f"
                   (Elastic_perf.Marked_graph.throughput_bound net))) };
      { word = "critical";
        help = {|  critical                 critical cycle of the marked graph|};
        run =
          query (fun net ->
              match Elastic_perf.Marked_graph.critical_cycle net with
              | Some c -> Ok (Fmt.str "%a" Elastic_perf.Marked_graph.pp_cycle c)
              | None -> Ok "no token-bearing cycle (feed-forward design)") };
      { word = "verify";
        help =
          {|  verify                   exhaustive state exploration (protocol,
                           deadlock, starvation)|};
        run =
          query (fun net ->
              let o = Elastic_check.Explore.explore net in
              let verdict =
                if Elastic_check.Explore.clean o then "VERIFIED"
                else if
                  o.Elastic_check.Explore.protocol_violations = []
                  && o.Elastic_check.Explore.deadlock_states = []
                  && o.Elastic_check.Explore.starving_channels = []
                then
                  "BOUNDED: state cap reached with no violations (the \
                   design has unbounded sources; use Nondet sources for an \
                   exhaustive check)"
                else "PROBLEMS FOUND"
              in
              Ok
                (Fmt.str "%a@.%s" Elastic_check.Explore.pp_outcome o verdict))
      };
      { word = "prove";
        help =
          {|  prove [chain]            statically check the bundled certificate
                           chains (fig1b fig1c fig1d vl-slack
                           rs-slack): re-validate every recorded
                           step's side conditions and replay it on the
                           channel graph — zero engine cycles; E4xx
                           diagnostics name the first failing step
  prove jsonl <file>       write every chain's proof as JSONL
                           (schema elastic-speculation/proof/v1)|};
        run =
          (fun _ -> function
            | [] ->
              let results =
                List.map
                  (fun c -> (c, Derivations.verify c))
                  (Derivations.all ())
              in
              let render ((c : Derivations.chain), r) =
                match r with
                | Ok p -> Fmt.str "%a" Elastic_check.Flow.pp_proof p
                | Error d ->
                  Fmt.str "%s: REFUTED %s" c.Derivations.c_name
                    (Diagnostic.to_string d)
              in
              let text = String.concat "\n" (List.map render results) in
              if List.for_all (fun (_, r) -> Result.is_ok r) results then
                Ok text
              else Error text
            | [ "jsonl"; file ] ->
              let chains = Derivations.all () in
              write_file file
                (String.concat ""
                   (List.map
                      (fun (c : Derivations.chain) ->
                         Elastic_check.Flow.jsonl ~design:c.Derivations.c_name
                           ~cert:c.Derivations.c_cert (Derivations.verify c))
                      chains));
              Ok (Fmt.str "wrote %s (%d chains)" file (List.length chains))
            | [ name ] ->
              let names =
                List.map
                  (fun (c : Derivations.chain) -> c.Derivations.c_name)
                  (Derivations.all ())
              in
              let* c = lookup "chain" names Derivations.find name in
              let* p = diag (Derivations.verify c) in
              Ok
                (Fmt.str "%s@.%a" c.Derivations.c_describe
                   Elastic_check.Flow.pp_proof p)
            | _ -> usage ()) };
      { word = "equiv";
        help =
          {|  equiv <design> [cycles]  co-simulate the loaded netlist against a
                           predefined design and compare sink streams
                           (transfer equivalence, Section 3.1)
  equiv <design> --static  static mode instead: normalize both netlists
                           by confluent empty-buffer removal and compare
                           canonical forms (decides buffer-insertion
                           differences without simulating)|};
        run =
          on_net (fun s net -> function
            | design :: rest -> (
                let* build = design_arg design in
                let other = build () in
                match rest with
                | [ "--static" ] ->
                  let tag = Fmt.str "%s-vs-%s" s.design design in
                  let* p =
                    diag (Elastic_check.Flow.equiv_static ~design:tag net other)
                  in
                  Ok (Fmt.str "%a" Elastic_check.Flow.pp_proof p)
                | rest ->
                  let* cycles = opt_int (cycles_opt 300) rest in
                  let* r = Equiv.check ~cycles net other in
                  Ok
                    (Fmt.str "transfer equivalent over %d cycles: %s"
                       r.Equiv.cycles
                       (String.concat ", "
                          (List.map
                             (fun (n, a, b) -> Fmt.str "%s %d/%d" n a b)
                             r.Equiv.transfers))))
            | [] -> usage ()) };
      { word = "lint";
        help =
          {|  lint                     static analysis: structural, SELF-invariant
                           and speculation rules (E/W/I codes); fails on
                           error findings (script exit code 1)
  lint <code|slug>         run a single rule (e.g. lint E102, lint
                           comb-cycle)
  lint --fix               apply the machine-applicable fix-its from the
                           report (insert bubble, convert buffer, seed a
                           token); undoable
  lint jsonl <file>        write the report as JSONL
                           (schema elastic-speculation/lint/v1)|};
        run =
          (fun s -> function
            | [ "--fix" ] ->
              transform s (fun net ->
                  let report = Elastic_lint.Lint.run net in
                  let net', n = Elastic_lint.Lint.apply_fixes net report in
                  if n = 0 then
                    Error "no machine-applicable fixes in the lint report"
                  else
                    Ok
                      (net',
                       Fmt.str "applied %d fix(es); lint again to re-check" n))
            | [ "jsonl"; file ] ->
              with_net s (fun net ->
                  let report = Elastic_lint.Lint.run net in
                  write_file file
                    (Elastic_lint.Lint.jsonl ~design:s.design net report);
                  Ok
                    (Fmt.str "wrote %s (%d diagnostics)" file
                       (List.length report.Elastic_lint.Lint.diags)))
            | ([] | [ _ ]) as only ->
              with_net s (fun net ->
                  match only with
                  | [ rule ]
                    when Option.is_none (Elastic_lint.Lint.find_rule rule) ->
                    Error
                      (Fmt.str
                         "unknown lint rule %S (a code such as E102 or a \
                          slug such as comb-cycle)"
                         rule)
                  | _ -> lint_verdict (Elastic_lint.Lint.run ~only net))
            | _ -> usage ()) };
      { word = "inject";
        help =
          {|  inject <ch> flip <cycle> <bit>       single fault-injection experiments:
  inject <ch> drop|dup|glitch <cycle>  run a faulted and a clean engine in
  inject <ch> stall <cycle> [dur]      lockstep and classify the outcome
  inject <node> mispredict <cycle> <way>|};
        run =
          on_net (fun _ net -> function
            | target :: kind :: rest -> inject_cmd net target kind rest
            | _ -> usage ()) };
      { word = "campaign";
        help =
          {|  campaign flips <ch> <n> <seed> [cycles]  seeded single-bit-flip campaign
  campaign storm <n> <seed> [cycles]       flips spread over all channels
                           (sinks named "alarm" act as error detectors:
                           a value >= 2 counts as detection)
  campaign ... --par <n> [--checkpoint <file>] [--serve <port>]
                           shard the campaign over n workers under the
                           supervised runner: crashing shards are
                           isolated with provenance, transient failures
                           retry with seeded backoff, completed shards
                           checkpoint to <file> for resume; --serve
                           exposes live telemetry for this run (or use
                           the serve command for a persistent server)|};
        run =
          on_net (fun s net -> function
            | kind :: rest -> campaign_cmd s net kind rest
            | [] -> usage ()) };
      { word = "serve";
        help =
          {|  serve [port]             start the live telemetry HTTP server on
                           localhost (default port 8080; port 0 picks
                           an ephemeral port): /metrics /status
                           /spans.jsonl /healthz; subsequent campaign
                           --par runs publish progress + heartbeats to
                           it, and a watchdog flips /healthz to 503
                           when a running shard stalls
  serve stop               stop the telemetry server|};
        run =
          (fun s args ->
             let module Telemetry = Elastic_telemetry.Telemetry in
             match args, s.telemetry with
             | [ "stop" ], None -> Error "no telemetry server running"
             | [ "stop" ], Some hub ->
               Telemetry.stop hub;
               s.telemetry <- None;
               Ok "telemetry server stopped"
             | args, running -> (
                 let* p =
                   opt_int { name = "port"; default = 8080; min = 0 } args
                 in
                 let* port = port "port" p in
                 match running with
                 | Some hub ->
                   Error
                     (Fmt.str
                        "telemetry server already on port %d (serve stop \
                         first)"
                        (Option.value ~default:0 (Telemetry.port hub)))
                 | None ->
                   let hub = Telemetry.create () in
                   (* Expose whatever span ledger the session already
                      has. *)
                   Telemetry.set_collector hub s.collector;
                   let* bound = Telemetry.start ~port hub in
                   s.telemetry <- Some hub;
                   Ok
                     (Fmt.str
                        "telemetry server on http://127.0.0.1:%d — \
                         /metrics /status /spans.jsonl /healthz \
                         (campaign --par runs publish live progress here)"
                        bound))) };
      { word = "runner";
        help =
          {|  runner status <file> [--json]
                           completeness of a campaign checkpoint, plus a
                           per-shard outcome digest (retries, slowest
                           shard, total attempt seconds); --json emits
                           the elastic-speculation/status/v1 document
                           the live /status endpoint also serves
  runner resume <file>     re-run the campaign command stored in the
                           checkpoint, adopting completed shards instead
                           of recomputing them|};
        run =
          (fun s -> function
            | [ "status"; file ] ->
              let* cp = load_checkpoint file in
              Ok (Fmt.str "%a" Elastic_runner.Checkpoint.pp_status cp)
            | [ "status"; file; "--json" ] ->
              (* The same elastic-speculation/status/v1 document the live
                 /status endpoint serves, derived from the checkpoint. *)
              let* cp = load_checkpoint file in
              Ok
                (Elastic_metrics.Json.to_string
                   (Elastic_runner.Status.of_checkpoint cp))
            | [ "resume"; file ] ->
              let* cp = load_checkpoint file in
              let* cmd =
                Option.to_result cp.Elastic_runner.Checkpoint.header.command
                  ~none:
                    (Fmt.str
                       "%s records no command to resume (it was written by \
                        an embedding, not the shell)"
                       file)
              in
              s.pending_resume <- Some cp;
              Fun.protect
                ~finally:(fun () -> s.pending_resume <- None)
                (fun () -> execute_cmd s cmd)
            | _ -> usage ()) };
      { word = "spans";
        help =
          {|  spans on [capacity]      record structured spans (campaign -> shard ->
                           attempt -> compile/settle/checkpoint-write/
                           backoff-sleep) during subsequent campaign
                           --par runs, one ring per worker
  spans off                stop recording (the last ledger stays
                           dumpable and exportable)
  spans dump [n]           print the last n recorded spans
  spans jsonl <file>       export the ledger as JSONL
                           (schema elastic-speculation/spans/v1)
  spans chrome <file>      export Chrome trace-event JSON (load in
                           Perfetto / chrome://tracing; one track per
                           worker)
  spans folded <file>      export collapsed stacks for flamegraph.pl|};
        run =
          (fun s -> function
            | "on" :: rest ->
              let* capacity = opt_int (positive "capacity" 8192) rest in
              s.spans_capacity <- Some capacity;
              Ok
                (Fmt.str
                   "spans on (per-worker ring capacity %d); campaign --par \
                    runs now record a span ledger (dump with: spans dump)"
                   capacity)
            | [ "off" ] ->
              s.spans_capacity <- None;
              Ok "spans off (the last recorded ledger is still exportable)"
            | "dump" :: rest ->
              let* limit = opt_int (count_opt 40) rest in
              let* c = recorded_spans s in
              let spans = Elastic_obs.Collector.spans c in
              let skip = max 0 (List.length spans - limit) in
              let base_ns = Elastic_obs.Export.base_ns spans in
              Ok
                (last_recorded "spans" (Elastic_obs.Span.pp ~base_ns)
                   ~recorded:(Elastic_obs.Collector.recorded c)
                   ~dropped:(Elastic_obs.Collector.dropped c)
                   (List.filteri (fun i _ -> i >= skip) spans))
            | [ (("jsonl" | "chrome" | "folded") as fmt); file ] ->
              let* c = recorded_spans s in
              let spans = Elastic_obs.Collector.spans c in
              (match fmt with
               | "jsonl" ->
                 Elastic_obs.Export.write_jsonl ~path:file ~campaign:s.design
                   spans
               | "chrome" -> Elastic_obs.Export.write_chrome ~path:file spans
               | _ -> Elastic_obs.Export.write_folded ~path:file spans);
              Ok
                (Fmt.str "wrote %d spans to %s (%s)" (List.length spans) file
                   fmt)
            | _ -> usage ()) };
      { word = "on-error";
        help =
          {|  on-error continue|abort  script mode: report failing lines (with their
                           line numbers) and keep going, or stop at the
                           first error (the default)|};
        run =
          (fun s -> function
            | [ "continue" ] ->
              s.on_error_continue <- true;
              Ok "scripts now continue past failing lines (reported per line)"
            | [ "abort" ] ->
              s.on_error_continue <- false;
              Ok "scripts now stop at the first failing line"
            | _ -> usage ()) };
      { word = "dot";
        help = {|  dot <file>               export Graphviz|};
        run = export Dot.save };
      { word = "verilog";
        help = {|  verilog <file>           export the elastic controller as Verilog|};
        run =
          export (fun file net -> Verilog.save file ~top:"elastic_top" net) };
      { word = "blif";
        help = {|  blif <file>              export the control network for SIS/ABC|};
        run =
          export (fun file net -> Blif.save file ~model:"elastic_ctrl" net) };
      { word = "smv";
        help = {|  smv <file>               export a NuSMV control model|};
        run = export Smv.save };
      { word = "undo";
        help = {|  undo / redo              navigate the transformation history|};
        run =
          (fun s args ->
             match args, s.undo, s.net with
             | [], prev :: rest, Some cur ->
               s.undo <- rest;
               s.redo <- cur :: s.redo;
               s.net <- Some prev;
               Ok "undone"
             | [], _, _ -> Error "nothing to undo"
             | _ -> usage ()) };
      { word = "redo";
        help = "";
        run =
          (fun s args ->
             match args, s.redo, s.net with
             | [], next :: rest, Some cur ->
               s.redo <- rest;
               s.undo <- cur :: s.undo;
               s.net <- Some next;
               Ok "redone"
             | [], _, _ -> Error "nothing to redo"
             | _ -> usage ()) };
      { word = "help";
        help = {|  help                     this text|};
        run = no_args (fun () -> Ok (help_of (Lazy.force table))) };
      { word = "quit";
        help = {|  quit (or exit)           leave the shell|};
        run = bye };
      { word = "exit"; help = ""; run = bye } ]

and execute_cmd s line =
  let table = Lazy.force table in
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  with
  | [] | "#" :: _ -> Ok ""
  | w :: args -> (
      match List.find_opt (fun c -> String.equal c.word w) table with
      | None -> Error (Fmt.str "unknown command %S (try: help)" w)
      | Some c -> ( try c.run s args with Usage -> Error (usage_of table w)))

let help = help_of (Lazy.force table)

let commands = List.map (fun c -> c.word) (Lazy.force table)

(* A structured simulation error, enriched — when a trace was being
   recorded — with the last events seen on the offending channels (the
   named channel, or the channels incident to the named node), so
   deadlock diagnosis doesn't require a rerun. *)
let simulation_error_report s (e : Elastic_sim.Engine.error) =
  let base = Elastic_sim.Engine.error_to_string e in
  match s.tracer, s.net with
  | Some tr, Some net -> (
      try
        let channels =
          match
            e.Elastic_sim.Engine.err_channel, e.Elastic_sim.Engine.err_node
          with
          | Some channel, _ -> [ channel ]
          | None, Some node ->
            List.map
              (fun (c : Netlist.channel) -> c.Netlist.ch_id)
              (Netlist.incoming net node @ Netlist.outgoing net node)
          | None, None -> []
        in
        let evs =
          List.concat_map
            (fun channel ->
               Elastic_trace.Tracer.recent ~limit:4 ~channel tr)
            channels
          |> List.sort (fun (a : Elastic_trace.Event.t) b ->
              compare a.Elastic_trace.Event.ev_cycle
                b.Elastic_trace.Event.ev_cycle)
        in
        match evs with
        | [] -> base
        | evs ->
          Fmt.str "%s@.last traced events on the offending channels:@.%a"
            base
            Fmt.(
              list ~sep:cut (fun ppf ev ->
                  pf ppf "  %a" (Elastic_trace.Event.pp net) ev))
            evs
      with Invalid_argument _ -> base)
  | _, _ -> base

(* The interpreter is an interactive trust boundary: whatever a command
   raises — including structured simulation errors from a fault
   experiment gone wrong — must come back as [Error], never kill the
   session. *)
let execute s line =
  try execute_cmd s line with
  | Invalid_argument m | Failure m -> Error m
  | Diagnostic.Reject d -> Error (Diagnostic.to_string d)
  | Elastic_sim.Engine.Simulation_error e ->
    Error (simulation_error_report s e)
  | Out_of_memory | Stack_overflow as e -> raise e
  | e -> Error (Printexc.to_string e)

let run_script s lines =
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match execute s line with
        | Ok out ->
          go (if out = "" then acc else out :: acc) (lineno + 1) rest
        | Error m when s.on_error_continue ->
          (* Same line-number provenance as abort mode, but the script
             keeps going and the failure becomes part of the output. *)
          go
            (Fmt.str "error: line %d: %S: %s" lineno line m :: acc)
            (lineno + 1) rest
        | Error m -> Error (Fmt.str "line %d: %S: %s" lineno line m))
  in
  go [] 1 lines
