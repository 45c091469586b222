open Elastic_kernel
open Elastic_sched
open Elastic_netlist
open Elastic_datapath
open Elastic_core
open Elastic_check
open Helpers

(* The static flow-equivalence prover: certificate verification
   (Flow.verify), direct structural mode (Flow.equiv_static), the
   E4xx refutations, and the guarantee that a rejected transformation
   (E301-E308) leaves both the netlist and the certificate chain
   exactly as they were. *)

let code_of (d : Diagnostic.t) = d.Diagnostic.code

let check_proved name source derived cert =
  match Flow.verify ~design:name ~source ~derived cert with
  | Ok p ->
    Alcotest.(check int)
      (name ^ ": proof covers every step")
      (Cert.length cert) p.Flow.p_steps;
    p
  | Error d -> Alcotest.fail (name ^ ": refuted: " ^ Diagnostic.to_string d)

let check_refuted name ~code source derived cert =
  match Flow.verify ~design:name ~source ~derived cert with
  | Ok _ -> Alcotest.fail (name ^ ": expected " ^ code ^ ", got a proof")
  | Error d -> Alcotest.(check string) (name ^ ": code") code (code_of d)

(* Fixture: src -> inc -> EB(100) -> dbl -> sink, plus a detached
   src -> EB(1,2) -> sink lane whose buffer overflows an Eb0. *)
let fixture () =
  let b = builder () in
  let s = src_stream b [ 1; 2; 3; 4; 5; 6 ] in
  let f = add b ~name:"inc" (Func (Func.inc ~step:1 ())) in
  let e = eb b ~name:"mid" ~init:[ Value.Int 100 ] () in
  let g =
    add b ~name:"dbl"
      (Func
         (Func.make ~name:"dbl" ~arity:1 ~delay:1.0 ~area:1.0 (function
            | [ v ] -> Value.Int (2 * Value.to_int v)
            | _ -> assert false)))
  in
  let k = sink b () in
  let c1 = conn b (s, Out 0) (f, In 0) in
  let _ = conn b (f, Out 0) (e, In 0) in
  let _ = conn b (e, Out 0) (g, In 0) in
  let c4 = conn b (g, Out 0) (k, In 0) in
  let s2 = src_counter b () in
  let fat = eb b ~name:"fat" ~init:[ Value.Int 1; Value.Int 2 ] () in
  let k2 = sink b () in
  let _ = conn b (s2, Out 0) (fat, In 0) in
  let _ = conn b (fat, Out 0) (k2, In 0) in
  (b.net, f, e, g, fat, (c1, c4))

(* ------------------------------------------------------------------ *)
(* Bundled derivations. *)

let bundled_suite =
  [ Alcotest.test_case "every bundled chain verifies statically" `Quick
      (fun () ->
         List.iter
           (fun (c : Derivations.chain) ->
              match Derivations.verify c with
              | Ok p ->
                Alcotest.(check int)
                  (c.Derivations.c_name ^ ": steps")
                  (Cert.length c.Derivations.c_cert)
                  p.Flow.p_steps
              | Error d ->
                Alcotest.fail
                  (c.Derivations.c_name ^ ": " ^ Diagnostic.to_string d))
           (Derivations.all ~ops:6 ())) ]

(* ------------------------------------------------------------------ *)
(* E301-E308: a rejected application records nothing and the already
   certified prefix still proves. *)

let reject_case name ~code op =
  Alcotest.test_case
    (Fmt.str "%s reject (%s) leaves chain and netlist untouched" code name)
    `Quick
    (fun () ->
       let net0, f, e, g, fat, (c1, _c4) = fixture () in
       let cert = Cert.create () in
       (* Certified prefix on the source channel: it must survive the
          rejected application below.  (Not on the sink feed — an empty
          buffer there would make retime_backward legal.) *)
       let net, _ = Transform.insert_bubble ~cert net0 ~channel:c1 in
       Alcotest.(check int) "one step before" 1 (Cert.recorded cert);
       (match op ~cert net (f, e, g, fat, c1) with
        | (_ : Netlist.t) ->
          Alcotest.fail (name ^ ": expected Diagnostic.Reject " ^ code)
        | exception Diagnostic.Reject d ->
          Alcotest.(check string) "code" code (code_of d));
       Alcotest.(check int) "still one step" 1 (Cert.recorded cert);
       (* The prefix certificate still proves source -> net: nothing
          about the rejected application leaked into either. *)
       ignore
         (check_proved name net0 net (Cert.certificate cert) : Flow.proof))

let reject_suite =
  [ reject_case "insert_fifo depth 0" ~code:"E301"
      (fun ~cert net (_, _, _, _, c1) ->
         fst (Transform.insert_fifo ~cert net ~channel:c1 ~depth:0));
    reject_case "remove_buffer with a token" ~code:"E302"
      (fun ~cert net (_, e, _, _, _) -> Transform.remove_buffer ~cert net e);
    reject_case "convert_buffer over capacity" ~code:"E303"
      (fun ~cert net (_, _, _, fat, _) ->
         Transform.convert_buffer ~cert net fat Eb0);
    reject_case "retime_forward without input buffers" ~code:"E304"
      (fun ~cert net (f, _, _, _, _) ->
         fst (Transform.retime_forward ~cert net ~through:f));
    reject_case "retime_backward without an empty output buffer"
      ~code:"E305"
      (fun ~cert net (_, _, g, _, _) ->
         fst (Transform.retime_backward ~cert net ~through:g));
    reject_case "shannon on a non-mux" ~code:"E306"
      (fun ~cert net (f, _, _, _, _) ->
         fst (Transform.shannon ~cert net ~mux:f));
    reject_case "early_evaluation on a non-mux" ~code:"E307"
      (fun ~cert net (f, _, _, _, _) ->
         Transform.early_evaluation ~cert net ~mux:f);
    reject_case "share of distinct functions" ~code:"E308"
      (fun ~cert net (f, _, g, _, _) ->
         fst
           (Transform.share ~cert net ~blocks:[ f; g ]
              ~sched:Scheduler.Round_robin)) ]

(* ------------------------------------------------------------------ *)
(* Forged / mismatched certificates and the E4xx refutations. *)

let forged_step kind ~before ~after =
  { Cert.kind; lemma = Cert.lemma_of kind; conditions = [];
    added_nodes = []; removed_nodes = []; before; after }

let refutation_suite =
  [ Alcotest.test_case "E401: empty certificate, differing netlists"
      `Quick
      (fun () ->
         let src = (Figures.fig1a ()).Figures.net in
         let dst = (Figures.fig1b ()).Figures.net in
         check_refuted "empty-cert" ~code:"E401" src dst
           { Cert.steps = [] });
    Alcotest.test_case "E401: chain does not start at the claimed source"
      `Quick
      (fun () ->
         let cert = Cert.create () in
         let dst = (Figures.fig1b ~cert ()).Figures.net in
         let wrong_src = (Figures.fig1c ()).Figures.net in
         check_refuted "wrong-source" ~code:"E401" wrong_src dst
           (Cert.certificate cert));
    Alcotest.test_case "E402: forged step with a failing side condition"
      `Quick
      (fun () ->
         let net, _, e, _, _, _ = fixture () in
         (* "mid" holds a token, so removing it has no lemma. *)
         let step =
           forged_step (Cert.Remove_buffer { node = e }) ~before:net
             ~after:net
         in
         check_refuted "forged-remove" ~code:"E402" net net
           { Cert.steps = [ step ] });
    Alcotest.test_case "E403: recorded result disagrees with the replay"
      `Quick
      (fun () ->
         let net, _, _, _, _, (c1, _) = fixture () in
         (* Claim a bubble insertion that allegedly changed nothing. *)
         let step =
           forged_step (Cert.Bubble { channel = c1 }) ~before:net ~after:net
         in
         check_refuted "forged-bubble" ~code:"E403" net net
           { Cert.steps = [ step ] });
    Alcotest.test_case "E403: final replica differs from claimed derived"
      `Quick
      (fun () ->
         let cert = Cert.create () in
         let src = (Figures.fig1a ()).Figures.net in
         ignore (Figures.fig1b ~cert () : Figures.handles);
         (* The chain is honest but the claim [derived = source] is not. *)
         check_refuted "wrong-derived" ~code:"E403" src src
           (Cert.certificate cert));
    Alcotest.test_case
      "E405: Eb0 -> Eb conversion on the anti-token path voids the lemma"
      `Quick
      (fun () ->
         let d =
           Examples.vl_speculative
             ~ops:(Alu.operands ~error_rate_pct:25 ~seed:1 6)
         in
         let net = d.Examples.d_net in
         let b =
           match Netlist.find_node net "EB0r" with
           | Some n -> n.Netlist.id
           | None -> Alcotest.fail "no EB0r recovery buffer"
         in
         let cert = Cert.create () in
         let slow = Transform.convert_buffer ~cert net b Eb in
         (match
            Flow.verify ~design:"crawl" ~source:net ~derived:slow
              (Cert.certificate cert)
          with
          | Ok _ -> Alcotest.fail "expected E405, got a proof"
          | Error d ->
            Alcotest.(check string) "code" "E405" (code_of d);
            Alcotest.(check bool) "names the W104 rule" true
              (contains (Diagnostic.to_string d) "W104"))) ]

(* ------------------------------------------------------------------ *)
(* Direct structural mode and the JSONL report. *)

let structural_suite =
  [ Alcotest.test_case "equiv_static proves buffer-insertion slack" `Quick
      (fun () ->
         let net, _, _, _, _, (c1, c4) = fixture () in
         let slack, _ = Transform.insert_bubble net ~channel:c1 in
         let slack, _ =
           Transform.insert_fifo slack ~channel:c4 ~depth:2
         in
         match Flow.equiv_static ~design:"slack" net slack with
         | Ok p ->
           Alcotest.(check bool) "structural mode" true
             (p.Flow.p_mode = `Structural);
           Alcotest.(check int) "three buffers spliced" 3 p.Flow.p_steps
         | Error d -> Alcotest.fail (Diagnostic.to_string d));
    Alcotest.test_case "E404: a token-holding insertion is not slack"
      `Quick
      (fun () ->
         let net, _, _, _, _, (c1, _) = fixture () in
         let changed, _ =
           Transform.insert_buffer net ~channel:c1 ~buffer:Eb
             ~init:[ Value.Int 7 ]
         in
         match Flow.equiv_static ~design:"token" net changed with
         | Ok _ -> Alcotest.fail "expected E404"
         | Error d -> Alcotest.(check string) "code" "E404" (code_of d));
    Alcotest.test_case "jsonl report carries the proof/v1 schema" `Quick
      (fun () ->
         let cert = Cert.create () in
         let src = (Figures.fig1a ()).Figures.net in
         let dst = (Figures.fig1b ~cert ()).Figures.net in
         let c = Cert.certificate cert in
         let out =
           Flow.jsonl ~design:"fig1b" ~cert:c
             (Flow.verify ~design:"fig1b" ~source:src ~derived:dst c)
         in
         Alcotest.(check bool) "schema tag" true
           (contains out "elastic-speculation/proof/v1");
         Alcotest.(check bool) "proved" true (contains out "proved");
         Alcotest.(check bool) "lemma named" true
           (contains out "bubble-insertion");
         let _, steps = read_jsonl ~schema:Flow.schema out in
         Alcotest.(check int) "header + one line per step"
           (1 + Cert.length c) (1 + List.length steps));
    Alcotest.test_case "jsonl report names the refuting diagnostic" `Quick
      (fun () ->
         let src = (Figures.fig1a ()).Figures.net in
         let dst = (Figures.fig1b ()).Figures.net in
         let out =
           Flow.jsonl ~design:"bad"
             (Flow.verify ~design:"bad" ~source:src ~derived:dst
                { Cert.steps = [] })
         in
         Alcotest.(check bool) "refuted" true (contains out "refuted");
         Alcotest.(check bool) "code" true (contains out "E401")) ]

(* ------------------------------------------------------------------ *)
(* Random legal chains.  Rejected attempts must leave the chain
   untouched; whatever survives must verify. *)

let attempt cert netref f =
  let before = Cert.recorded cert in
  try netref := f !netref
  with Diagnostic.Reject _ ->
    Alcotest.(check int) "reject leaves the chain untouched" before
      (Cert.recorded cert)

(* Speculation recipe prefixes on Fig. 1(a), padded with slack on the
   sink feed (never on the mux arms: an Eb bubble there would create
   the W104 anti-token crawl once the mux evaluates early, and the
   verifier would rightly void the lemma). *)
type spec_case = {
  s_pre : int;  (* bubbles on the sink feed first *)
  s_stages : int;  (* 0-3: shannon, + early-eval, + share *)
  s_fifo : int;  (* FIFO depth appended after, 0 = none *)
  s_convert : bool;  (* convert the first inserted buffer to Eb0 *)
}

let gen_spec =
  let open QCheck.Gen in
  let* s_pre = int_bound 2 in
  let* s_stages = int_bound 3 in
  let* s_fifo = int_bound 2 in
  let* s_convert = QCheck.Gen.bool in
  return { s_pre; s_stages; s_fifo; s_convert }

let print_spec c =
  Fmt.str "pre=%d stages=%d fifo=%d convert=%b" c.s_pre c.s_stages c.s_fifo
    c.s_convert

let run_spec c =
  let h = Figures.fig1a () in
  let cert = Cert.create () in
  let net = ref h.Figures.net in
  let inserted = ref [] in
  let sink_feed () =
    match Netlist.channel_at !net h.Figures.sink (In 0) with
    | Some ch -> ch.Netlist.ch_id
    | None -> Alcotest.fail "no sink feed"
  in
  for _ = 1 to c.s_pre do
    let n, b = Transform.insert_bubble ~cert !net ~channel:(sink_feed ()) in
    net := n;
    inserted := !inserted @ [ b ]
  done;
  let copies = ref [] in
  if c.s_stages >= 1 then begin
    let n, cs = Transform.shannon ~cert !net ~mux:h.Figures.mux in
    net := n;
    copies := cs
  end;
  if c.s_stages >= 2 then
    net := Transform.early_evaluation ~cert !net ~mux:h.Figures.mux;
  if c.s_stages >= 3 then begin
    let sched =
      Scheduler.Noisy_oracle
        { sel = Figures.default_params.Figures.sel; accuracy_pct = 100;
          seed = 1 }
    in
    let n, _ = Transform.share ~cert !net ~blocks:!copies ~sched in
    net := n
  end;
  if c.s_fifo > 0 then begin
    let n, bs =
      Transform.insert_fifo ~cert !net ~channel:(sink_feed ())
        ~depth:c.s_fifo
    in
    net := n;
    inserted := !inserted @ bs
  end;
  (if c.s_convert then
     match !inserted with
     | b :: _ -> net := Transform.convert_buffer ~cert !net b Eb0
     | [] -> ());
  let certificate = Cert.certificate cert in
  ignore
    (check_proved (print_spec c) h.Figures.net !net certificate
     : Flow.proof);
  true

(* Random retiming chains on a linear pipeline with one token buffer:
   the token is retimed forward a random distance, then a bubble is
   pushed backward through the tail (which legally rejects when the
   token already sits on the last channel). *)
type ret_case = {
  r_len : int;  (* pipeline function blocks, 2-4 *)
  r_moves : int;  (* forward retimes, reduced mod r_len *)
  r_tail : bool;  (* bubble + backward retime at the end *)
  r_tok : int;  (* value of the retimed token *)
}

let gen_ret =
  let open QCheck.Gen in
  let* r_len = int_range 2 4 in
  let* r_moves = int_bound 6 in
  let* r_tail = QCheck.Gen.bool in
  let* r_tok = int_bound 1000 in
  return { r_len; r_moves; r_tail; r_tok }

let print_ret c =
  Fmt.str "len=%d moves=%d tail=%b tok=%d" c.r_len c.r_moves c.r_tail
    c.r_tok

let run_ret c =
  let b = builder () in
  let s = src_counter b () in
  let fs =
    List.init c.r_len (fun i ->
        add b ~name:(Fmt.str "f%d" i) (Func (Func.inc ~step:(i + 1) ())))
  in
  let k = sink b () in
  let tok = eb b ~name:"tok" ~init:[ Value.Int c.r_tok ] () in
  let f0 = List.hd fs in
  let _ = conn b (s, Out 0) (f0, In 0) in
  let _ = conn b (f0, Out 0) (tok, In 0) in
  let rec link prev = function
    | [] -> ignore (conn b (prev, Out 0) (k, In 0))
    | f :: rest ->
      ignore (conn b (prev, Out 0) (f, In 0));
      link f rest
  in
  link tok (List.tl fs);
  let source = b.net in
  let cert = Cert.create () in
  let net = ref source in
  let moves = c.r_moves mod c.r_len in
  List.iteri
    (fun i f ->
       if i >= 1 && i <= moves then
         attempt cert net (fun n ->
             fst (Transform.retime_forward ~cert n ~through:f)))
    fs;
  let last = List.nth fs (c.r_len - 1) in
  if c.r_tail then begin
    let feed =
      match Netlist.channel_at !net k (In 0) with
      | Some ch -> ch.Netlist.ch_id
      | None -> Alcotest.fail "no sink feed"
    in
    attempt cert net (fun n ->
        fst (Transform.insert_bubble ~cert n ~channel:feed));
    attempt cert net (fun n ->
        fst (Transform.retime_backward ~cert n ~through:last))
  end;
  ignore
    (check_proved (print_ret c) source !net (Cert.certificate cert)
     : Flow.proof);
  true

let qcheck_suite =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"qcheck: random speculation chains yield valid certificates"
         ~count:60
         (QCheck.make ~print:print_spec gen_spec)
         run_spec);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"qcheck: random retiming chains yield valid certificates"
         ~count:60
         (QCheck.make ~print:print_ret gen_ret)
         run_ret) ]

let suite =
  bundled_suite @ reject_suite @ refutation_suite @ structural_suite
  @ qcheck_suite
