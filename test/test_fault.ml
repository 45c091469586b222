open Elastic_kernel
open Elastic_netlist
open Elastic_sim
open Elastic_core
open Elastic_fault

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)

let channel_into net node_name =
  let n =
    match Netlist.find_node net node_name with
    | Some n -> n
    | None -> Alcotest.failf "no node named %s" node_name
  in
  match
    List.find_opt
      (fun (c : Netlist.channel) -> c.Netlist.dst.Netlist.ep_node = n.Netlist.id)
      (Netlist.channels net)
  with
  | Some c -> c
  | None -> Alcotest.failf "nothing drives node %s" node_name

let alarmed ?(n = 60) () =
  Examples.rs_secded_setup ~ops:(Examples.rs_ops ~error_rate_pct:0 ~seed:11 n)

(* ------------------------------------------------------------------ *)
(* Fault model unit tests                                               *)

let test_flip_value () =
  let v =
    Value.Tuple
      [ Value.Tuple [ Value.Word 0L; Value.Int 0 ];
        Value.Tuple [ Value.Word 0L; Value.Int 0 ] ]
  in
  Alcotest.(check int) "width 144" 144 (Fault.value_width v);
  (* Bit 3 lands in operand a's data word. *)
  (match Fault.flip_value [ 3 ] v with
   | Value.Tuple [ Value.Tuple [ Value.Word w; _ ]; _ ] ->
     Alcotest.(check int64) "data bit" 8L w
   | _ -> Alcotest.fail "shape");
  (* Bit 64 lands in operand a's check byte; bit 72 in b's data. *)
  (match Fault.flip_value [ 64; 72 ] v with
   | Value.Tuple
       [ Value.Tuple [ Value.Word 0L; Value.Int c ];
         Value.Tuple [ Value.Word w; Value.Int 0 ] ] ->
     Alcotest.(check int) "check bit" 1 c;
     Alcotest.(check int64) "b data bit" 1L w
   | _ -> Alcotest.fail "shape");
  (* Flipping twice is the identity; out-of-range bits are ignored. *)
  Alcotest.(check bool) "involution" true
    (Value.equal v (Fault.flip_value [ 9 ] (Fault.flip_value [ 9 ] v)));
  Alcotest.(check bool) "out of range" true
    (Value.equal v (Fault.flip_value [ 999 ] v))

let test_describe () =
  let d, _, bus = alarmed () in
  let f = Fault.flip_bit ~channel:bus ~cycle:7 17 in
  let s = Fault.describe d.Examples.d_net f in
  List.iter
    (fun frag ->
       Alcotest.(check bool) (Fmt.str "mentions %S" frag) true
         (Helpers.contains s frag))
    [ "bit 17"; "cycle 7"; "node" ]

(* ------------------------------------------------------------------ *)
(* Structured engine errors                                             *)

let test_structured_error () =
  let d, _, _ = alarmed ~n:4 () in
  let eng = Engine.create d.Examples.d_net in
  (match Engine.sink_stream eng 999 with
   | exception Engine.Simulation_error e ->
     Alcotest.(check (option int)) "node id" (Some 999) e.Engine.err_node;
     Alcotest.(check bool) "message rendered" true
       (Helpers.contains (Engine.error_to_string e) "not a sink")
   | _ -> Alcotest.fail "expected Simulation_error");
  match Engine.signal eng 424242 with
  | exception Engine.Simulation_error e ->
    Alcotest.(check (option int)) "channel id" (Some 424242)
      e.Engine.err_channel
  | _ -> Alcotest.fail "expected Simulation_error"

(* ------------------------------------------------------------------ *)
(* Recovery classification on the §5.2 resilient adder                  *)

let test_single_flip_corrected () =
  let d, alarms, bus = alarmed () in
  let r =
    Recovery.check ~cycles:120 d.Examples.d_net ~alarms
      ~faults:[ Fault.flip_bit ~channel:bus ~cycle:10 17 ]
  in
  (match r.Recovery.classification with
   | Recovery.Corrected p ->
     Alcotest.(check int) "one-cycle replay penalty" 1 p
   | c ->
     Alcotest.failf "expected corrected, got %a" Recovery.pp_classification
       c);
  Alcotest.(check bool) "no fresh violations" true
    (r.Recovery.fresh_violations = [])

let test_double_flip_detected () =
  let d, alarms, bus = alarmed () in
  let r =
    Recovery.check ~cycles:120 d.Examples.d_net ~alarms
      ~faults:[ Fault.flip_bits ~channel:bus ~cycle:12 [ 3; 40 ] ]
  in
  match r.Recovery.classification with
  | Recovery.Detected why ->
    Alcotest.(check bool) "alarm provenance" true
      (Helpers.contains why "alarm")
  | c ->
    Alcotest.failf "expected detected, got %a" Recovery.pp_classification c

let test_control_glitch_detected () =
  let d, alarms, bus = alarmed () in
  let r =
    Recovery.check ~cycles:120 d.Examples.d_net ~alarms
      ~faults:(Fault.control_glitch ~channel:bus ~cycle:20)
  in
  match r.Recovery.classification with
  | Recovery.Detected why ->
    Alcotest.(check bool) "monitor provenance" true
      (Helpers.contains why "protocol monitor");
    Alcotest.(check bool) "cycle provenance" true
      (Helpers.contains why "cycle");
    Alcotest.(check bool) "violations recorded" true
      (r.Recovery.fresh_violations <> [])
  | c ->
    Alcotest.failf "expected detected, got %a" Recovery.pp_classification c

let test_crash_has_provenance () =
  (* Dropping the valid of a retried token on the early mux's output
     desynchronizes its anti-token bookkeeping; the engine must surface
     that as a structured error with node provenance, not a bare assert. *)
  let d, alarms, _ = alarmed () in
  let net = d.Examples.d_net in
  let ch = channel_into net "out" in
  let r =
    Recovery.check ~cycles:120 net ~alarms
      ~faults:(Fault.control_glitch ~channel:ch.Netlist.ch_id ~cycle:20)
  in
  match r.Recovery.classification with
  | Recovery.Crashed why ->
    Alcotest.(check bool) "cycle provenance" true
      (Helpers.contains why "cycle");
    Alcotest.(check bool) "node provenance" true
      (Helpers.contains why "node")
  | Recovery.Detected _ -> ()  (* monitors may beat the bookkeeping *)
  | c ->
    Alcotest.failf "expected crash or detection, got %a"
      Recovery.pp_classification c

let test_mispredict_corrected () =
  let d, alarms, _ = alarmed () in
  let net = d.Examples.d_net in
  let stage =
    match Netlist.find_node net "stage" with
    | Some n -> n.Netlist.id
    | None -> Alcotest.fail "no stage node"
  in
  let r =
    Recovery.check ~cycles:120 net ~alarms
      ~faults:[ Fault.mispredict ~node:stage ~cycle:15 1 ]
  in
  match r.Recovery.classification with
  | Recovery.Masked | Recovery.Corrected _ -> ()
  | c ->
    Alcotest.failf "expected benign replay, got %a"
      Recovery.pp_classification c

let test_duplicate_after_drain () =
  (* Forge a token on the drained source channel: the checker must see the
     spurious extra transfer. *)
  let d, alarms, bus = alarmed ~n:20 () in
  let r =
    Recovery.check ~cycles:120 d.Examples.d_net ~alarms
      ~faults:[ Fault.duplicate_token ~channel:bus ~cycle:60 ]
  in
  match r.Recovery.classification with
  | Recovery.Silent_corruption why ->
    Alcotest.(check bool) "spurious transfer" true
      (Helpers.contains why "spurious")
  | Recovery.Detected _ -> ()  (* also acceptable: a monitor may fire *)
  | c ->
    Alcotest.failf "expected corruption or detection, got %a"
      Recovery.pp_classification c

(* ------------------------------------------------------------------ *)
(* One golden reference, many checks                                    *)

(* The fault lists of the classification tests above, on one netlist:
   corrected, detected by alarm, detected by monitor, crashed (or
   detected), benign mispredict. *)
let classified_faults (d, _, src) =
  let net = d.Examples.d_net in
  let out = (channel_into net "out").Netlist.ch_id in
  let stage =
    match Netlist.find_node net "stage" with
    | Some n -> n.Netlist.id
    | None -> Alcotest.fail "no stage node"
  in
  [ [ Fault.flip_bit ~channel:src ~cycle:10 17 ];
    [ Fault.flip_bits ~channel:src ~cycle:12 [ 3; 40 ] ];
    Fault.control_glitch ~channel:src ~cycle:20;
    Fault.control_glitch ~channel:out ~cycle:20;
    [ Fault.mispredict ~node:stage ~cycle:15 1 ] ]

let test_check_against_golden () =
  let check_pair (d, alarms, _) faults =
    let net = d.Examples.d_net in
    let fresh = Recovery.check ~cycles:120 net ~alarms ~faults in
    let split =
      Recovery.check_against (Recovery.golden ~cycles:120 ~alarms net)
        ~faults
    in
    Alcotest.(check bool)
      (Fmt.str "%a: same report" Recovery.pp_classification
         fresh.Recovery.classification)
      true (fresh = split);
    Recovery.classification_label fresh.Recovery.classification
  in
  let d60 = alarmed () and ((_, _, bus20) as d20) = alarmed ~n:20 () in
  let labels = List.map (check_pair d60) (classified_faults d60) in
  let dup =
    check_pair d20 [ Fault.duplicate_token ~channel:bus20 ~cycle:60 ]
  in
  (* Every classification the suite reaches is covered. *)
  Alcotest.(check (list string)) "classifications"
    [ "corrected"; "detected"; "detected"; "crashed"; "corrected";
      "silent-corruption" ]
    (labels @ [ dup ])

let test_golden_reused () =
  let ((d, alarms, _) as setup) = alarmed () in
  let net = d.Examples.d_net in
  let golden = Recovery.golden ~cycles:120 ~alarms net in
  let scenarios = classified_faults setup in
  let fresh =
    List.map (fun faults -> Recovery.check ~cycles:120 net ~alarms ~faults)
      scenarios
  in
  (* Forwards, then backwards: no check may leave a trace in the golden
     that a later one sees. *)
  let forwards =
    List.map (fun faults -> Recovery.check_against golden ~faults) scenarios
  in
  let backwards =
    List.rev_map (fun faults -> Recovery.check_against golden ~faults)
      (List.rev scenarios)
  in
  Alcotest.(check bool) "forwards" true (forwards = fresh);
  Alcotest.(check bool) "backwards" true (backwards = fresh)

let test_bad_alarm_fails_fast () =
  let d, _, _ = alarmed () in
  let net = d.Examples.d_net in
  let src =
    match Netlist.find_node net "src" with
    | Some n -> n.Netlist.id
    | None -> Alcotest.fail "no src node"
  in
  match Recovery.golden ~alarms:[ (src, fun _ -> true) ] net with
  | _ -> Alcotest.fail "a source is not an alarm sink"
  | exception Engine.Simulation_error e ->
    Alcotest.(check (option int)) "node provenance" (Some src)
      e.Engine.err_node;
    Alcotest.(check int) "before the first cycle" 0 e.Engine.err_cycle;
    Alcotest.(check bool) "names the node" true
      (Helpers.contains e.Engine.err_msg "(src) is not a sink")

(* ------------------------------------------------------------------ *)
(* Campaigns                                                            *)

let test_campaign_deterministic_and_benign () =
  let d, alarms, bus = alarmed () in
  let net = d.Examples.d_net in
  let scenarios () =
    Campaign.random_bitflips ~net ~channel:bus ~seed:42
      ~count:25 ~from_cycle:2 ~to_cycle:60 ~bit_hi:144 ()
  in
  Alcotest.(check bool) "same seed, same scenarios" true
    (scenarios () = scenarios ());
  let s = Campaign.run ~cycles:120 net ~alarms ~scenarios:(scenarios ())
  in
  Alcotest.(check int) "all scenarios ran" 25 s.Campaign.total;
  Alcotest.(check bool) "single-bit faults are benign" true
    (Campaign.all_benign s);
  let s' = Campaign.run ~cycles:120 net ~alarms ~scenarios:(scenarios ())
  in
  Alcotest.(check bool) "same seed, same histogram" true
    (s.Campaign.histogram = s'.Campaign.histogram)

let test_campaign_double_flips_detected () =
  let d, alarms, bus = alarmed () in
  let net = d.Examples.d_net in
  let scenarios =
    Campaign.random_double_flips ~net ~channel:bus ~seed:7
      ~count:8 ~from_cycle:2 ~to_cycle:60 ~bit_lo:0 ~bit_hi:72 ()
  in
  let s = Campaign.run ~cycles:120 net ~alarms ~scenarios in
  Alcotest.(check int) "all detected" 8 (Campaign.count s "detected")

let suite =
  [ Alcotest.test_case "flip_value flattening" `Quick test_flip_value;
    Alcotest.test_case "describe provenance" `Quick test_describe;
    Alcotest.test_case "structured simulation errors" `Quick
      test_structured_error;
    Alcotest.test_case "single bit flip -> corrected(1)" `Quick
      test_single_flip_corrected;
    Alcotest.test_case "double bit flip -> detected" `Quick
      test_double_flip_detected;
    Alcotest.test_case "control glitch -> monitor detection" `Quick
      test_control_glitch_detected;
    Alcotest.test_case "crash carries node provenance" `Quick
      test_crash_has_provenance;
    Alcotest.test_case "forced mispredict -> benign replay" `Quick
      test_mispredict_corrected;
    Alcotest.test_case "duplicated token -> flagged" `Quick
      test_duplicate_after_drain;
    Alcotest.test_case "check = check_against golden, every class" `Quick
      test_check_against_golden;
    Alcotest.test_case "one golden reused across fault lists" `Quick
      test_golden_reused;
    Alcotest.test_case "non-sink alarm fails before simulating" `Quick
      test_bad_alarm_fails_fast;
    Alcotest.test_case "seeded campaign: deterministic, benign" `Quick
      test_campaign_deterministic_and_benign;
    Alcotest.test_case "double-flip campaign: all detected" `Quick
      test_campaign_double_flips_detected ]
