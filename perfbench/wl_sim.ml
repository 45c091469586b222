(* sim-spec: one long Engine.run on each of the paper's speculative
   designs at a 5% error rate — Fig. 6(b) variable-latency ALU and
   Fig. 7(b) SECDED adder — first on the default backend, then with
   ~mode:Arena.  Single-threaded; never touches lib/fault or
   lib/runner. *)

open Elastic_kernel
module Engine = Elastic_sim.Engine
module Profile = Elastic_sim.Profile
module Examples = Elastic_core.Examples
module H = Harness

let cycles = 20_000

(* One operand per cycle is the most a source can emit, so a stream
   this long never runs dry within [cycles]. *)
let n_ops = cycles + 64

type design = { tag : string; d : Examples.design; reference : Value.t array }

let setup ~seed () =
  let span = Tracing.span in
  let vl_ops =
    span "Alu.operands" (fun () ->
        Elastic_datapath.Alu.operands ~error_rate_pct:5 ~seed:(42 + seed) n_ops)
  in
  let rs_ops =
    span "Examples.rs_ops" (fun () ->
        Examples.rs_ops ~error_rate_pct:5 ~seed:(5 + seed) n_ops)
  in
  [ { tag = "vl";
      d = span "Examples.vl_speculative" (fun () -> Examples.vl_speculative ~ops:vl_ops);
      reference =
        span "Examples.vl_reference" (fun () ->
            Array.of_list (Examples.vl_reference vl_ops)) };
    { tag = "rs";
      d = span "Examples.rs_speculative" (fun () -> Examples.rs_speculative ~ops:rs_ops);
      reference =
        span "Examples.rs_reference" (fun () ->
            Array.of_list (Examples.rs_reference rs_ops)) } ]

(* The simulated results of one design run: they depend only on the
   inputs, never on the backend or the host. *)
type model = { delivered : int; kills : int; mispredictions : int }

(* [create_s] and [run_s] as measured; [cal_s], their sum in
   calibrated seconds. *)
type run = { model : model; create_s : float; run_s : float; cal_s : float; profile : Profile.t }

let run_one ?mode x =
  let (eng, create_s, run_s), _, cal_s =
    Calib.timed ~domains:1 (fun () ->
        let eng, create_s =
          H.timed (fun () ->
              Tracing.span "Engine.create" (fun () -> Engine.create ?mode x.d.Examples.d_net))
        in
        let (), run_s = H.timed (fun () -> Tracing.span "Engine.run" (fun () -> Engine.run eng cycles)) in
        (eng, create_s, run_s))
  in
  let backend = Engine.mode_name (Engine.mode eng) in
  Tracing.span "verify" (fun () ->
      let got = Transfer.values (Engine.sink_stream eng x.d.Examples.d_sink) in
      let n = List.length got in
      let exact =
        n > 0 && n < Array.length x.reference
        && List.for_all2 Value.equal got
             (Array.to_list (Array.sub x.reference 0 n))
      in
      let clean = Engine.violations eng = [] && Engine.starvation_violations eng = [] in
      H.attempt (exact && clean) "sim-spec %s on %s: %s" x.tag backend
        (if not exact then Printf.sprintf "sink stream (%d values) differs from the reference" n
         else "protocol or starvation violations");
      let net = Engine.netlist eng in
      { model =
          { delivered = n;
            kills =
              List.fold_left
                (fun a (c : Elastic_netlist.Netlist.channel) ->
                   a + Engine.killed eng c.Elastic_netlist.Netlist.ch_id)
                0 (Elastic_netlist.Netlist.channels net);
            mispredictions =
              List.fold_left
                (fun a (_, s) -> a + Elastic_sched.Scheduler.mispredictions s)
                0 (Engine.schedulers eng) };
        create_s; run_s; cal_s; profile = Engine.profile eng })

let model_metrics designs models =
  List.concat
    (List.map2
       (fun x m ->
          let k = "model." ^ x.tag ^ "." in
          [ (k ^ "tokens_per_cycle", float_of_int m.delivered /. float_of_int cycles);
            (k ^ "kills", float_of_int m.kills);
            (k ^ "mispredictions", float_of_int m.mispredictions) ])
       designs models)

(* Stored results for seed 0 (the paper seeds 42 and 5). *)
let expected = function
  | "vl" -> { delivered = 19_022; kills = 19_022; mispredictions = 977 }
  | _ -> { delivered = 19_532; kills = 19_532; mispredictions = 467 }

let run env =
  let first = ref None in
  let pass designs =
    let runs = List.map (fun x -> (x, run_one x, run_one ~mode:Engine.Arena x)) designs in
    let models = List.map (fun (_, (r : run), _) -> r.model) runs in
    List.iter
      (fun (x, (r : run), (a : run)) ->
         if r.model <> a.model then H.problem "sim-spec %s: Arena and default backends disagree" x.tag;
         if env.H.seed = 0 && r.model <> expected x.tag then
           H.problem "sim-spec %s: simulated results differ from the stored seed-0 values" x.tag)
      runs;
    (match !first with
     | None -> first := Some models
     | Some m -> if m <> models then H.problem "sim-spec: simulated results changed between passes");
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 in
    let def = List.map (fun (_, r, _) -> r) runs and arena = List.map (fun (_, _, a) -> a) runs in
    let settle r = Profile.settle_seconds r.profile in
    let evals = sum (fun r -> float_of_int (Profile.evals r.profile)) def in
    let sim_cycles = float_of_int (cycles * List.length designs) in
    { H.e2e =
        [ ("sim_cycles_per_s", sim_cycles /. sum (fun r -> r.cal_s) def);
          ("ops_per_s", float_of_int (2 * List.length designs) /. sum (fun r -> r.cal_s) (def @ arena)) ];
      layers =
        [ ("sim.settle_s", sum settle def);
          ("sim.step_other_s", sum (fun r -> r.run_s -. settle r) def);
          ("sim.compile_s", sum (fun r -> Profile.compile_seconds r.profile) def);
          ("sim.evals_per_cycle", evals /. sim_cycles);
          ("sim.max_settle_passes",
           float_of_int (List.fold_left (fun a r -> max a (Profile.max_passes r.profile)) 0 def));
          ("sim.ns_per_eval", 1e9 *. sum settle def /. evals);
          ("sim.arena.settle_s", sum settle arena);
          ("sim.arena.step_other_s", sum (fun r -> r.run_s -. settle r) arena);
          ("sim.arena.cycles_per_s", sim_cycles /. sum (fun r -> r.create_s +. r.run_s) arena) ]
        @ model_metrics designs models;
      cycles = 2.0 *. sim_cycles }
  in
  H.report env (H.measure env ~domains:1 ~setup:(setup ~seed:env.H.seed) pass) []
