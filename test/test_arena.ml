open Elastic_netlist
open Elastic_sim
open Elastic_core
open Elastic_datapath
open Elastic_trace
open Elastic_metrics
open Helpers

(* The flat-arena evaluation backend (lib/sim/arena.ml): mode selection
   plumbing, byte-exact golden artefacts under [Arena], error parity
   with the reference backend, and the settle loop's allocation guard.
   Cross-backend trace/metrics equivalence over whole designs lives in
   {!Test_engine_equiv}; these are the arena-specific contracts. *)

(* --- mode selection -------------------------------------------------- *)

let test_mode_names () =
  List.iter
    (fun m ->
       Alcotest.(check (option string))
         (Engine.mode_name m)
         (Some (Engine.mode_name m))
         (Option.map Engine.mode_name
            (Engine.mode_of_string (Engine.mode_name m))))
    [ Engine.Reference; Engine.Arena ];
  Alcotest.(check bool) "parsing is case-insensitive" true
    (Engine.mode_of_string "ARENA" = Some Engine.Arena);
  Alcotest.(check bool) "arena is the default" true
    (Engine.default_mode = Engine.Arena);
  Alcotest.(check bool) "junk is rejected" true
    (Engine.mode_of_string "fastest" = None)

let tiny_net () =
  let b = builder () in
  let s = src_stream b ~name:"src" [ 1; 2; 3 ] in
  let k = sink b ~name:"snk" () in
  let _ = conn b (s, Out 0) (k, In 0) in
  b.net

(* --- error parity ---------------------------------------------------- *)

let modes = [ Engine.Reference; Engine.Arena ]

let rendered_error f =
  match f () with
  | () -> Alcotest.fail "expected a simulation error"
  | exception Engine.Simulation_error e ->
    (e.Engine.err_code, Engine.error_to_string e)

(* E110 (cycle budget): the error is raised before the backend runs,
   but its rendering flows through the same provenance plumbing — both
   modes must produce the identical string. *)
let test_e110_parity () =
  let net = tiny_net () in
  let errors =
    List.map
      (fun mode ->
         rendered_error (fun () ->
             let eng = Engine.create ~mode ~max_cycles:4 net in
             Engine.run eng 10))
      modes
  in
  List.iter
    (fun (code, msg) ->
       Alcotest.(check (option string)) "typed E110" (Some "E110") code;
       Alcotest.(check string) "same rendering" (snd (List.hd errors)) msg)
    errors

(* E102 (combinational cycle): the undetermined-channel sweep must name
   the same channels in the same order in every mode — the arena
   recovers them from its packed codes rather than the wire records. *)
let test_e102_parity () =
  let net =
    (List.find
       (fun (m : Elastic_lint.Mutate.t) -> m.Elastic_lint.Mutate.m_code = "E102")
       Elastic_lint.Mutate.catalogue)
      .Elastic_lint.Mutate.m_net ()
  in
  let errors =
    List.map
      (fun mode ->
         rendered_error (fun () ->
             let eng = Engine.create ~mode net in
             Engine.run eng 2))
      modes
  in
  List.iter
    (fun (code, msg) ->
       Alcotest.(check (option string)) "typed E102" (Some "E102") code;
       Alcotest.(check bool) "names an undetermined channel" true
         (Helpers.contains msg "undetermined channels:");
       Alcotest.(check string) "same rendering" (snd (List.hd errors)) msg)
    errors

(* A mux whose select stream goes out of range mid-run: the per-node
   [Invalid_argument] must surface as the same invariant error — node
   provenance included — from the packed evaluator as from the record
   backend.  (The arena recovers the node from its last-eval cursor.) *)
let test_invariant_parity () =
  let build () =
    let b = builder () in
    let sel = src_stream b ~name:"sel" [ 0; 1; 7 ] in
    let s0 = src_counter b ~name:"s0" () in
    let s1 = src_counter b ~name:"s1" () in
    let m = add b ~name:"mux" (Mux { ways = 2; early = false }) in
    let k = sink b ~name:"snk" () in
    let _ = conn b (sel, Out 0) (m, Sel) in
    let _ = conn b (s0, Out 0) (m, In 0) in
    let _ = conn b (s1, Out 0) (m, In 1) in
    let _ = conn b (m, Out 0) (k, In 0) in
    b.net
  in
  let errors =
    List.map
      (fun mode ->
         rendered_error (fun () ->
             let eng = Engine.create ~mode (build ()) in
             Engine.run eng 20))
      modes
  in
  List.iter
    (fun (_, msg) ->
       Alcotest.(check bool) "names the out-of-range select" true
         (Helpers.contains msg "select: index 7 out of range");
       Alcotest.(check string) "same rendering" (snd (List.hd errors)) msg)
    errors

(* --- observability parity -------------------------------------------- *)

(* The arena batches its eval accounting ([Profile.add_evals] once per
   settle); totals, per-node counters and the pass histogram must still
   equal the one-note_eval-per-eval stream of the record interpreter
   that ran the same schedule before the arena replaced it.  The pinned
   values were captured from that interpreter. *)
let test_profile_parity () =
  let ops = Examples.rs_ops ~error_rate_pct:10 ~seed:5 100 in
  let net = (Examples.rs_speculative ~ops).Examples.d_net in
  let eng = Engine.create ~mode:Engine.Arena net in
  Engine.run eng 150;
  let pa = Engine.profile eng in
  Alcotest.(check int) "total evals" 3800 (Profile.evals pa);
  Alcotest.(check int) "max passes" 4 (Profile.max_passes pa);
  Alcotest.(check (list (pair int int))) "pass histogram"
    [ (3, 141); (4, 9) ] (Profile.pass_histogram pa);
  Alcotest.(check (list (pair int int))) "busiest nodes"
    [ (1, 459); (8, 450); (4, 408); (5, 400); (2, 391); (11, 342);
      (9, 300); (10, 300); (0, 150); (3, 150) ]
    (Profile.top_nodes pa 10);
  let sum_nodes p =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Profile.top_nodes p 10_000)
  in
  Alcotest.(check int) "arena evals = sum of per-node counters"
    (Profile.evals pa) (sum_nodes pa)

(* Injected-channel reporting flows through the same override plumbing
   in every backend. *)
let test_injected_parity () =
  let ops = Examples.rs_ops ~error_rate_pct:5 ~seed:5 60 in
  let net = (Examples.rs_speculative ~ops).Examples.d_net in
  let ch = (List.hd (Netlist.channels net)).Netlist.ch_id in
  let injected mode =
    let open Elastic_fault in
    let plan =
      Fault.plan net
        [ Fault.flip_bit ~channel:ch ~cycle:5 1;
          Fault.stuck_stall ~channel:ch ~cycle:12 ~duration:4 ]
    in
    let eng = Engine.create ~mode net in
    Engine.set_injector eng (Some (Fault.injector plan));
    let log = ref [] in
    for _ = 1 to 30 do
      Engine.step eng ~choices:(fun nid ->
          Fault.choices plan ~cycle:(Engine.cycle eng) nid);
      Fault.observe plan eng;
      log := Engine.injected eng :: !log
    done;
    List.rev !log
  in
  Alcotest.(check (list (list int))) "per-cycle injected channels"
    (injected Engine.Reference) (injected Engine.Arena)

(* Two arena runs of the same design are bit-identical end to end —
   the preallocated buffers carry no state across [create]. *)
let test_arena_determinism () =
  let mk () =
    let ops = Examples.rs_ops ~error_rate_pct:10 ~seed:5 80 in
    let eng =
      Engine.create ~mode:Engine.Arena
        (Examples.rs_speculative ~ops).Examples.d_net
    in
    Engine.run eng 120;
    Engine.state_key eng
  in
  Alcotest.(check string) "state keys agree" (mk ()) (mk ())

(* --- golden artefacts under the arena backend ------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_vcd_golden_arena () =
  let net = (Figures.table1 ()).Figures.t1_net in
  let eng = Engine.create ~mode:Engine.Arena net in
  let r = Vcd.create net in
  Engine.set_observer eng (Some (Vcd.observe r));
  Engine.run eng 8;
  Alcotest.(check string) "table1 VCD byte-exact under arena"
    (read_file "table1.vcd.expected")
    (Vcd.contents r)

(* The E5/E6 experiment designs, rendered to Prometheus text off a
   deterministic tick clock, must match the committed fixtures
   byte-for-byte — eval counts and settle-seconds gauges included,
   because the clock is read exactly twice per cycle. *)
let test_prom_golden ~fixture net =
  let eng =
    Engine.create ~mode:Engine.Arena ~clock:(Clock.ticker ~step_ns:100L) net
  in
  let sampler = Sampler.create eng in
  Engine.set_observer eng (Some (Sampler.observe sampler));
  Engine.run eng 150;
  Alcotest.(check string)
    (fixture ^ ": prometheus render byte-exact under arena")
    (read_file fixture)
    (Prometheus.render (Sampler.sample sampler eng))

let test_prom_golden_e5 () =
  test_prom_golden ~fixture:"e5_vl_speculative.prom.expected"
    (Examples.vl_speculative
       ~ops:(Alu.operands ~error_rate_pct:10 ~seed:7 100)).Examples.d_net

let test_prom_golden_e6 () =
  test_prom_golden ~fixture:"e6_rs_speculative.prom.expected"
    (Examples.rs_speculative
       ~ops:(Examples.rs_ops ~error_rate_pct:10 ~seed:5 100)).Examples.d_net

(* --- allocation guard ------------------------------------------------ *)

(* The arena settle loop must not allocate: on a control-only pipeline
   every word allocated per cycle comes from the engine's fixed
   bookkeeping (resolved-signal snapshots, observers), which the
   reference backend shares.  Allocation counts are deterministic, so
   the bounds are exact machine-independent regression guards. *)
let words_per_cycle mode net =
  let eng = Engine.create ~mode net in
  Engine.run eng 200;
  let w0 = Gc.minor_words () in
  Engine.run eng 2000;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. 2000.

let test_settle_allocation_guard () =
  let b = builder () in
  let s = src_stream b ~name:"src" (List.init 64 (fun i -> i)) in
  let e1 = eb b ~name:"e1" () in
  let e2 = eb0 b ~name:"e2" () in
  let k = sink b ~name:"snk" () in
  let _ = conn b (s, Out 0) (e1, In 0) in
  let _ = conn b (e1, Out 0) (e2, In 0) in
  let _ = conn b (e2, Out 0) (k, In 0) in
  let arena = words_per_cycle Engine.Arena b.net in
  let reference = words_per_cycle Engine.Reference b.net in
  if arena > 180.0 then
    Alcotest.failf
      "arena allocates %.1f words/cycle on a control-only pipeline \
       (budget 180): the settle loop has started allocating" arena;
  if arena > reference -. 20.0 then
    Alcotest.failf
      "arena (%.1f words/cycle) no longer allocates less than reference \
       (%.1f): the flat settle path has regressed" arena reference

let suite =
  [ Alcotest.test_case "mode names round-trip" `Quick test_mode_names;
    Alcotest.test_case "E110 renders identically in all modes" `Quick
      test_e110_parity;
    Alcotest.test_case "E102 renders identically in all modes" `Quick
      test_e102_parity;
    Alcotest.test_case "invariant errors render identically in all modes"
      `Quick test_invariant_parity;
    Alcotest.test_case "profile matches pinned eval counts" `Quick
      test_profile_parity;
    Alcotest.test_case "injected channels agree with reference" `Quick
      test_injected_parity;
    Alcotest.test_case "arena runs are deterministic" `Quick
      test_arena_determinism;
    Alcotest.test_case "golden VCD is byte-exact under arena" `Quick
      test_vcd_golden_arena;
    Alcotest.test_case "E5 prometheus render matches golden" `Quick
      test_prom_golden_e5;
    Alcotest.test_case "E6 prometheus render matches golden" `Quick
      test_prom_golden_e6;
    Alcotest.test_case "arena settle loop does not allocate" `Quick
      test_settle_allocation_guard ]
