(* explore: Explore.explore at its default state cap over the E3/E4
   controller set and both sides of the five bundled certified
   derivation chains, plus Derivations.verify and Equiv.check on each
   chain.  Drives the engine through snapshot/restore, single steps
   with forced choices and a state key per state.  Seed-independent:
   it has no generated inputs. *)

open Elastic_kernel
open Elastic_netlist
module Explore = Elastic_check.Explore
module Derivations = Elastic_core.Derivations
module Equiv = Elastic_core.Equiv
module H = Harness

let equiv_cycles = 240

(* The E3/E4 controllers (Figs. 2-5): EB and EB0 pipelines, an early
   mux with anti-tokens, and a shared module under an external and a
   sticky scheduler, every environment nondeterministic. *)
let controllers () =
  let open Netlist in
  let nsrc vs = Source (Nondet vs) in
  let nsink = Sink (Random_stall { pct = 50; seed = 1 }) in
  let pipe name buffer =
    let net, s = add_node ~name:"src" empty (nsrc [ Value.Int 0; Value.Int 1 ]) in
    let net, b = add_node ~name:"buf" net (Buffer { buffer; init = [] }) in
    let net, k = add_node ~name:"snk" net nsink in
    let net, _ = connect net (s, Out 0) (b, In 0) in
    let net, _ = connect net (b, Out 0) (k, In 0) in
    (name, net)
  in
  let emux =
    let net, sel = add_node ~name:"sel" empty (nsrc [ Value.Int 0; Value.Int 1 ]) in
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
    ("emux", net)
  in
  let shared name sched =
    let net, s0 = add_node ~name:"in0" empty (nsrc [ Value.Int 0 ]) in
    let net, s1 = add_node ~name:"in1" net (nsrc [ Value.Int 1 ]) in
    let unary name f =
      Func.make ~name ~arity:1 ~delay:1.0 ~area:1.0 (function
        | [ v ] -> f v
        | _ -> invalid_arg name)
    in
    let net, sh =
      add_node ~name:"sh" net
        (Shared { ways = 2; f = unary "F" Fun.id; sched; hinted = false })
    in
    let net, m = add_node ~name:"mux" net (Mux { ways = 2; early = true }) in
    let net, e = add_node ~name:"EB" net (Buffer { buffer = Eb; init = [ Value.Int 0 ] }) in
    let net, fk = add_node ~name:"fork" net (Fork 2) in
    let net, g =
      add_node ~name:"G" net (Func (unary "G" (fun v -> Value.Int (1 - Value.to_int v))))
    in
    let net, k = add_node ~name:"snk" net nsink in
    let net, _ = connect net (s0, Out 0) (sh, In 0) in
    let net, _ = connect net (s1, Out 0) (sh, In 1) in
    let net, _ = connect net (sh, Out 0) (m, In 0) in
    let net, _ = connect net (sh, Out 1) (m, In 1) in
    let net, _ = connect net (m, Out 0) (e, In 0) in
    let net, _ = connect net (e, Out 0) (fk, In 0) in
    let net, _ = connect net (fk, Out 0) (g, In 0) in
    let net, _ = connect net (g, Out 0) (m, Sel) in
    let net, _ = connect net (fk, Out 1) (k, In 0) in
    (name, net)
  in
  [ pipe "eb" Eb; pipe "eb0" Eb0; emux;
    shared "shared-external" Elastic_sched.Scheduler.External;
    shared "shared-sticky" Elastic_sched.Scheduler.Sticky ]

let chain_names = [ "fig1b"; "fig1c"; "fig1d"; "vl-slack"; "rs-slack" ]

let target_names =
  List.map fst (controllers ())
  @ List.concat_map (fun c -> [ c ^ ".source"; c ^ ".derived" ]) chain_names

(* Stored (states, transitions, complete) of each exploration at the
   default cap.  The three Fig. 1 chains are unbounded and stop at the
   cap; Explore finds deadlocks and starving channels only in a
   complete exploration, so for them only protocol violations are
   checked. *)
let expected =
  let capped = (20_001, 20_000, false) in
  [ ("eb", (10, 40, true)); ("eb0", (6, 24, true)); ("emux", (42, 672, true));
    ("shared-external", (28, 448, true)); ("shared-sticky", (28, 224, true));
    ("fig1b.source", capped); ("fig1b.derived", capped);
    ("fig1c.source", capped); ("fig1c.derived", capped);
    ("fig1d.source", capped); ("fig1d.derived", capped);
    ("vl-slack.source", (17, 17, true)); ("vl-slack.derived", (19, 19, true));
    ("rs-slack.source", (16, 16, true)); ("rs-slack.derived", (17, 17, true)) ]

let setup () =
  let zoo = Tracing.span "controllers" controllers in
  let chains = Tracing.span "Derivations.all" (fun () -> Derivations.all ()) in
  let sides =
    List.concat_map
      (fun (c : Derivations.chain) ->
         [ (c.Derivations.c_name ^ ".source", c.Derivations.c_source);
           (c.Derivations.c_name ^ ".derived", c.Derivations.c_derived) ])
      chains
  in
  (zoo @ sides, chains)

let run env =
  let pass (targets, chains) =
    if List.map fst targets <> target_names then H.problem "explore: unexpected target set";
    (* Each exploration, proof and check is one Calib segment: (measured,
       calibrated) seconds. *)
    let timed f = let v, dt, cal = Calib.timed ~domains:1 f in (v, (dt, cal)) in
    let explored =
      List.map
        (fun (name, net) ->
           let o, t = timed (fun () -> Tracing.span "Explore.explore" (fun () -> Explore.explore net)) in
           Tracing.span "verify" (fun () ->
               let counts = (o.Explore.explored, o.Explore.transitions, o.Explore.complete) in
               let clean =
                 if o.Explore.complete then Explore.clean o
                 else o.Explore.protocol_violations = []
               in
               let stored = List.assoc_opt name expected = Some counts in
               H.attempt (clean && stored) "explore %s: %s" name
                 (if clean then "state or transition count or completeness differs from the stored value"
                  else "violations found"));
           (name, o, t))
        targets
    in
    let proofs =
      List.map
        (fun (c : Derivations.chain) ->
           let r, t = timed (fun () -> Tracing.span "Derivations.verify" (fun () -> Derivations.verify c)) in
           H.attempt (Result.is_ok r) "prove %s: %s" c.Derivations.c_name
             (match r with Ok _ -> "" | Error d -> Diagnostic.to_string d);
           t)
        chains
    in
    let equivs =
      List.map
        (fun (c : Derivations.chain) ->
           let r, t =
             timed (fun () ->
                 Tracing.span "Equiv.check" (fun () ->
                     Equiv.check ~cycles:equiv_cycles c.Derivations.c_source c.Derivations.c_derived))
           in
           H.attempt (Result.is_ok r) "equiv %s: %s" c.Derivations.c_name
             (match r with Ok _ -> "" | Error m -> m);
           t)
        chains
    in
    let sum f = List.fold_left (fun a x -> a +. f x) 0.0 in
    let times = List.map (fun (_, _, t) -> t) explored in
    let explore_s = sum fst times in
    let count f = float_of_int (List.fold_left (fun a (_, o, _) -> a + f o) 0 explored) in
    let states = count (fun o -> o.Explore.explored) in
    let transitions = count (fun o -> o.Explore.transitions) in
    (* Engine steps: one per explored transition, plus both sides of
       every co-simulation. *)
    let steps = transitions +. float_of_int (2 * equiv_cycles * List.length chains) in
    let ops = List.length explored + List.length proofs + List.length equivs in
    { H.e2e =
        [ ("sim_cycles_per_s", steps /. sum snd (times @ equivs));
          ("ops_per_s", float_of_int ops /. sum snd (times @ proofs @ equivs)) ];
      layers =
        [ ("check.explore_s", explore_s);
          ("check.states_per_s", states /. explore_s);
          ("check.us_per_transition", 1e6 *. explore_s /. transitions);
          ("check.prove_s", sum fst proofs);
          ("core.equiv_s", sum fst equivs) ]
        @ List.concat_map
            (fun (name, o, _) ->
               [ ("model.explore." ^ name ^ ".states", float_of_int o.Explore.explored);
                 ("model.explore." ^ name ^ ".transitions", float_of_int o.Explore.transitions) ])
            explored;
      cycles = steps }
  in
  let measured = H.measure env ~domains:1 ~setup pass in
  H.report env measured [ ("core.derive_s", H.median (Tracing.durations "Derivations.all")) ]
