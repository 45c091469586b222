(* Shared helpers for building test netlists. *)

open Elastic_kernel
open Elastic_netlist

let ints l = List.map (fun i -> Value.Int i) l

let value = Alcotest.testable Value.pp Value.equal

(* Build a netlist in one pass with a mutable accumulator, which keeps
   test set-up readable. *)
type builder = { mutable net : Netlist.t }

let builder () = { net = Netlist.empty }

let add b ?name kind =
  let net, id = Netlist.add_node ?name b.net kind in
  b.net <- net;
  id

let conn b ?width (n1, p1) (n2, p2) =
  let net, id = Netlist.connect ?width b.net (n1, p1) (n2, p2) in
  b.net <- net;
  id

let src_stream b ?name l = add b ?name (Source (Stream (ints l)))

let src_counter b ?name () =
  add b ?name (Source (Counter { start = 0; step = 1 }))

let sink b ?name () = add b ?name (Sink Always_ready)

let sink_pattern b ?name pat = add b ?name (Sink (Stall_pattern pat))

let eb b ?name ?(init = []) () =
  add b ?name (Buffer { buffer = Eb; init })

let eb0 b ?name ?(init = []) () =
  add b ?name (Buffer { buffer = Eb0; init })

let run_net ?(monitor = true) ?cycles:(n = 100) net =
  let eng = Elastic_sim.Engine.create ~monitor net in
  Elastic_sim.Engine.run eng n;
  eng

let sink_values eng sink_id =
  Transfer.values (Elastic_sim.Engine.sink_stream eng sink_id)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* Violations excluding the liveness watchdog — for adversarial random
   environments where arbitrarily long stalls are legitimate. *)
let safety_violations eng =
  List.filter
    (fun (_, v) -> v.Elastic_kernel.Protocol.property <> "liveness")
    (Elastic_sim.Engine.violations eng)

let check_no_violations eng =
  let vs = Elastic_sim.Engine.violations eng in
  List.iter
    (fun (ch, v) ->
       Alcotest.failf "protocol violation on %s: %a" ch
         Elastic_kernel.Protocol.pp_violation v)
    vs;
  let sv = Elastic_sim.Engine.starvation_violations eng in
  List.iter (fun s -> Alcotest.failf "starvation: %s" s) sv

(* A JSONL artifact read back through the envelope reader: the header
   and the rows as raw JSON.  Any reader error, or a cut-off last line,
   fails the test. *)
let read_jsonl ~schema text =
  let module J = Elastic_metrics.Json in
  match J.Jsonl.read ~schema ~header:Result.ok ~row:Result.ok text with
  | Ok (header, rows, false) -> (header, rows)
  | Ok (_, _, true) -> Alcotest.fail "JSONL artifact ends in a cut-off line"
  | Error e -> Alcotest.failf "JSONL artifact: %s" (J.Jsonl.error_to_string e)
