(* A small structural gate builder on top of BLIF [.names] tables, plus
   the per-primitive controller equations (the same ones the simulator
   executes, SMV exports and Verilog implements). *)

type e = T | F | Var of string | Not of e | And of e list | Or of e list

type ctx = {
  buf : Buffer.t;
  mutable fresh : int;
  mutable inputs : string list;  (* reversed *)
  mutable outputs : string list;  (* reversed *)
  mutable latches : (string * string * bool) list;  (* input, output, init *)
}

let bpf ctx fmt = Fmt.kstr (Buffer.add_string ctx.buf) fmt

let fresh ctx =
  ctx.fresh <- ctx.fresh + 1;
  Fmt.str "g%d" ctx.fresh

let input ctx name = ctx.inputs <- name :: ctx.inputs

let output ctx name = ctx.outputs <- name :: ctx.outputs

let latch ctx ~d ~q ~init =
  ctx.latches <- (d, q, init) :: ctx.latches

(* Emit gates computing [e] into the net [out]. *)
let rec assign ctx out e =
  match e with
  | T -> bpf ctx ".names %s\n1\n" out
  | F -> bpf ctx ".names %s\n" out
  | Var v -> bpf ctx ".names %s %s\n1 1\n" v out
  | Not x ->
    let v = operand ctx x in
    bpf ctx ".names %s %s\n0 1\n" v out
  | And xs ->
    (match xs with
     | [] -> assign ctx out T
     | _ ->
       let vs = List.map (operand ctx) xs in
       bpf ctx ".names %s %s\n%s 1\n" (String.concat " " vs) out
         (String.make (List.length vs) '1'))
  | Or xs ->
    (match xs with
     | [] -> assign ctx out F
     | _ ->
       let vs = List.map (operand ctx) xs in
       bpf ctx ".names %s %s\n" (String.concat " " vs) out;
       List.iteri
         (fun i _ ->
            let cube =
              String.init (List.length vs) (fun j ->
                  if i = j then '1' else '-')
            in
            bpf ctx "%s 1\n" cube)
         vs)

and operand ctx e =
  match e with
  | Var v -> v
  | T | F | Not _ | And _ | Or _ ->
    let v = fresh ctx in
    assign ctx v e;
    v

(* Channel control nets. *)
let vp c = Fmt.str "vp_%d" c
let sp c = Fmt.str "sp_%d" c
let vm c = Fmt.str "vm_%d" c
let sm c = Fmt.str "sm_%d" c

(* Resolved boundary events of a channel (cancellation built in). *)
let token_in c = And [ Var (vp c); Not (Var (sp c)); Not (Var (vm c)) ]
let token_out c = And [ Var (vp c); Or [ Not (Var (sp c)); Var (vm c) ] ]
let anti_in c = And [ Var (vm c); Not (Var (sm c)); Not (Var (vp c)) ]
let anti_out c = And [ Var (vm c); Or [ Var (vp c); Not (Var (sm c)) ] ]

(* A one-hot register bank of [n] states with initial state [init];
   returns state nets and a function to define the next-state logic. *)
let one_hot ctx ~name ~n ~init =
  let qs = List.init n (fun i -> Fmt.str "%s_s%d" name i) in
  List.iteri
    (fun i q ->
       let d = Fmt.str "%s_d%d" name i in
       latch ctx ~d ~q ~init:(i = init))
    qs;
  (Array.of_list qs,
   fun i e -> assign ctx (Fmt.str "%s_d%d" name i) e)

let ch_at net node port =
  match Netlist.channel_at net node port with
  | Some c -> c.Netlist.ch_id
  | None -> invalid_arg "Blif.emit: missing channel"

let sanitize name =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
       | _ -> '_')
    name

let emit_node net ctx (n : Netlist.node) =
  let u = sanitize n.Netlist.name in
  match n.Netlist.kind with
  | Netlist.Source _ ->
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    let offer = Fmt.str "offer_%s" u in
    input ctx offer;
    let retry = Fmt.str "retry_%s" u in
    latch ctx ~d:(Fmt.str "%s_d" retry) ~q:retry ~init:false;
    assign ctx (vp o) (Or [ Var offer; Var retry ]);
    assign ctx (Fmt.str "%s_d" retry)
      (And [ Var (vp o); Not (token_out o) ]);
    assign ctx (sm o) F
  | Netlist.Sink _ ->
    let i = ch_at net n.Netlist.id (Netlist.In 0) in
    let stall = Fmt.str "stall_%s" u in
    input ctx stall;
    assign ctx (sp i) (Var stall);
    assign ctx (vm i) F
  | Netlist.Buffer { buffer = Netlist.Eb; init } ->
    let i = ch_at net n.Netlist.id (Netlist.In 0) in
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    (* One-hot occupancy -2..2 (states 0..4, empty = 2). *)
    let st, next = one_hot ctx ~name:u ~n:5 ~init:(2 + List.length init) in
    assign ctx (sp i) (Var st.(4));
    assign ctx (vm i) (Or [ Var st.(0); Var st.(1) ]);
    assign ctx (vp o) (Or [ Var st.(3); Var st.(4) ]);
    assign ctx (sm o) (Var st.(0));
    (* At most one event per boundary per cycle: delta in {-1,0,+1}. *)
    let inc = Fmt.str "%s_inc" u and dec = Fmt.str "%s_dec" u in
    let gain = Or [ token_in i; anti_out i ] in
    let lose = Or [ token_out o; anti_in o ] in
    assign ctx inc (And [ gain; Not lose ]);
    assign ctx dec (And [ lose; Not gain ]);
    let hold = And [ Not (Var inc); Not (Var dec) ] in
    for k = 0 to 4 do
      let parts =
        [ And [ Var st.(k); hold ] ]
        @ (if k > 0 then [ And [ Var st.(k - 1); Var inc ] ] else [])
        @ (if k < 4 then [ And [ Var st.(k + 1); Var dec ] ] else [])
      in
      next k (Or parts)
    done
  | Netlist.Buffer { buffer = Netlist.Eb0; init } ->
    let i = ch_at net n.Netlist.id (Netlist.In 0) in
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    let full = Fmt.str "full_%s" u in
    latch ctx ~d:(Fmt.str "%s_d" full) ~q:full ~init:(init <> []);
    assign ctx (vp o) (Var full);
    let leaving =
      And [ Var full; Or [ Not (Var (sp o)); Var (vm o) ] ]
    in
    assign ctx (sp i) (And [ Var full; Not leaving ]);
    assign ctx (vm i) (And [ Not (Var full); Var (vm o) ]);
    assign ctx (sm o) (And [ Not (Var full); Var (sm i) ]);
    assign ctx (Fmt.str "%s_d" full)
      (Or [ token_in i; And [ Var full; Not leaving ] ])
  | Netlist.Func f ->
    let ins =
      List.init f.Func.arity (fun k -> ch_at net n.Netlist.id (Netlist.In k))
    in
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    assign ctx (vp o) (And (List.map (fun c -> Var (vp c)) ins));
    let s_eff = And [ Var (sp o); Not (Var (vm o)) ] in
    List.iteri
      (fun k c ->
         let others =
           List.filteri (fun j _ -> j <> k) ins
           |> List.map (fun c' -> Var (vp c'))
         in
         assign ctx (sp c) (Not (And (others @ [ Not s_eff ]))))
      ins;
    let consumable =
      And
        (List.map (fun c -> Or [ Var (vp c); Not (Var (sm c)) ]) ins)
    in
    let kill = And [ Var (vm o); Not (Var (vp o)); consumable ] in
    List.iter (fun c -> assign ctx (vm c) kill) ins;
    assign ctx (sm o) (And [ Not (Var (vp o)); Not consumable ])
  | Netlist.Fork k ->
    let i = ch_at net n.Netlist.id (Netlist.In 0) in
    let outs =
      List.init k (fun j -> ch_at net n.Netlist.id (Netlist.Out j))
    in
    let done_ j = Fmt.str "%s_done%d" u j in
    let pend j = Fmt.str "%s_pend%d" u j in
    List.iteri
      (fun j o ->
         latch ctx ~d:(Fmt.str "%s_d" (done_ j)) ~q:(done_ j) ~init:false;
         (* Pending anti-tokens 0..2 one-hot. *)
         let st, next =
           one_hot ctx ~name:(pend j) ~n:3 ~init:0
         in
         let has_pend = Or [ Var st.(1); Var st.(2) ] in
         assign ctx (Fmt.str "%s_any" (pend j)) has_pend;
         let active =
           And [ Not (Var (done_ j)); Var st.(0) ]
         in
         assign ctx (vp o) (And [ Var (vp i); active ]);
         assign ctx (sm o) (Var st.(2));
         let t_out = token_out o in
         assign ctx (Fmt.str "%s_tout%d" u j) t_out;
         assign ctx (Fmt.str "%s_compl%d" u j)
           (Or [ Var (done_ j); has_pend; Var (Fmt.str "%s_tout%d" u j) ]);
         (* done: set on branch transfer, cleared when the token leaves *)
         assign ctx (Fmt.str "%s_d" (done_ j))
           (And
              [ Not (token_in i);
                Or [ Var (done_ j); Var (Fmt.str "%s_tout%d" u j) ] ]);
         (* pending counter: +1 on anti in, -1 when consumed *)
         let consume =
           Or
             [ And
                 [ token_in i; Not (Var (done_ j));
                   Not (Var (Fmt.str "%s_tout%d" u j)) ];
               anti_out i ]
         in
         let up = And [ anti_in o; Not consume ] in
         let down = And [ consume; Not (anti_in o) ] in
         let hold = And [ Not up; Not down ] in
         next 0 (Or [ And [ Var st.(0); hold ]; And [ Var st.(1); down ] ]);
         next 1
           (Or
              [ And [ Var st.(1); hold ]; And [ Var st.(0); up ];
                And [ Var st.(2); down ] ]);
         next 2 (Or [ And [ Var st.(2); hold ]; And [ Var st.(1); up ] ]))
      outs;
    assign ctx (sp i)
      (Not
         (And
            (List.mapi
               (fun j _ -> Var (Fmt.str "%s_compl%d" u j))
               outs)));
    assign ctx (vm i)
      (And
         (Not (Var (vp i))
          :: List.mapi (fun j _ -> Var (Fmt.str "%s_any" (pend j))) outs))
  | Netlist.Mux { ways; early } ->
    if ways <> 2 then
      invalid_arg "Blif.emit: only 2-way multiplexors are supported";
    let selc = ch_at net n.Netlist.id Netlist.Sel in
    let d0 = ch_at net n.Netlist.id (Netlist.In 0) in
    let d1 = ch_at net n.Netlist.id (Netlist.In 1) in
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    let selv = Fmt.str "selval_%s" u in
    input ctx selv;
    if not early then begin
      (* Control-wise a 3-input lazy join. *)
      let all = [ selc; d0; d1 ] in
      assign ctx (vp o) (And (List.map (fun c -> Var (vp c)) all));
      let s_eff = And [ Var (sp o); Not (Var (vm o)) ] in
      List.iteri
        (fun k c ->
           let others =
             List.filteri (fun j _ -> j <> k) all
             |> List.map (fun c' -> Var (vp c'))
           in
           assign ctx (sp c) (Not (And (others @ [ Not s_eff ]))))
        all;
      let consumable =
        And (List.map (fun c -> Or [ Var (vp c); Not (Var (sm c)) ]) all)
      in
      let kill = And [ Var (vm o); Not (Var (vp o)); consumable ] in
      List.iter (fun c -> assign ctx (vm c) kill) all;
      assign ctx (sm o) (And [ Not (Var (vp o)); Not consumable ])
    end
    else begin
      (* Anti-token queues 0..2 per input, one-hot. *)
      let mk_q j =
        let st, next = one_hot ctx ~name:(Fmt.str "%s_q%d" u j) ~n:3 ~init:0 in
        (st, next)
      in
      let q0, next0 = mk_q 0 in
      let q1, next1 = mk_q 1 in
      let qz q = Var q.(0) in
      let has_q q = Or [ Var q.(1); Var q.(2) ] in
      let sel_is j = if j = 1 then Var selv else Not (Var selv) in
      let vpsv =
        Or
          [ And [ sel_is 0; qz q0; Var (vp d0) ];
            And [ sel_is 1; qz q1; Var (vp d1) ] ]
      in
      assign ctx (vp o) (And [ Var (vp selc); vpsv ]);
      let fire =
        And [ Var (vp o); Or [ Not (Var (sp o)); Var (vm o) ] ]
      in
      assign ctx (Fmt.str "%s_fire" u) fire;
      let firev = Var (Fmt.str "%s_fire" u) in
      assign ctx (sp selc) (Not firev);
      assign ctx (vm selc) F;
      assign ctx (sm o) (Not (Var (vp o)));
      let per_input j q next d =
        let fresh_kill = And [ firev; sel_is (1 - j) ] in
        assign ctx (vm d) (Or [ has_q q; fresh_kill ]);
        (* stop unless selected-and-firing or killing *)
        assign ctx (sp d)
          (Not
             (Or
                [ has_q q; fresh_kill;
                  And [ Var (vp selc); sel_is j; firev ] ]));
        let up = And [ fresh_kill; Not (anti_out d) ] in
        let down = And [ anti_out d; Not fresh_kill ] in
        let hold = And [ Not up; Not down ] in
        next 0 (Or [ And [ Var q.(0); hold ]; And [ Var q.(1); down ] ]);
        next 1
          (Or
             [ And [ Var q.(1); hold ]; And [ Var q.(0); up ];
               And [ Var q.(2); down ] ]);
        next 2 (Or [ And [ Var q.(2); hold ]; And [ Var q.(1); up ] ])
      in
      per_input 0 q0 next0 d0;
      per_input 1 q1 next1 d1
    end
  | Netlist.Shared { ways; hinted; _ } ->
    if ways <> 2 then
      invalid_arg "Blif.emit: only 2-way shared modules are supported";
    let i0 = ch_at net n.Netlist.id (Netlist.In 0) in
    let i1 = ch_at net n.Netlist.id (Netlist.In 1) in
    let o0 = ch_at net n.Netlist.id (Netlist.Out 0) in
    let o1 = ch_at net n.Netlist.id (Netlist.Out 1) in
    let pred = Fmt.str "pred_%s" u in
    input ctx pred;
    (* A hinted module joins channel 0 with its hint stream. *)
    let hint_gate =
      if hinted then
        let h = ch_at net n.Netlist.id Netlist.Sel in
        Some (Var (vp h))
      else None
    in
    let way j i o granted =
      let gate =
        match hint_gate with
        | Some hv when j = 0 -> [ hv ]
        | Some _ | None -> []
      in
      assign ctx (vp o) (And ([ granted; Var (vp i) ] @ gate));
      let fire = And [ Var (vp o); Or [ Not (Var (sp o)); Var (vm o) ] ] in
      assign ctx (Fmt.str "%s_fire%d" u j) fire;
      let firev = Var (Fmt.str "%s_fire%d" u j) in
      assign ctx (sp i)
        (Or
           [ And [ granted; Not firev ];
             And [ Not granted; Not (Var (vm o)) ] ]);
      assign ctx (vm i)
        (Or
           [ And [ granted; Var (vm o); Not (Var (vp o)) ];
             And [ Not granted; Var (vm o) ] ]);
      assign ctx (sm o)
        (And [ Not (Var (vp o)); Var (sm i); Not (Var (vp i)) ])
    in
    way 0 i0 o0 (Not (Var pred));
    way 1 i1 o1 (Var pred);
    if hinted then begin
      let h = ch_at net n.Netlist.id Netlist.Sel in
      assign ctx (sp h)
        (Not (And [ Not (Var pred); Var (Fmt.str "%s_fire0" u) ]));
      assign ctx (vm h) F
    end
  | Netlist.Varlat _ ->
    let i = ch_at net n.Netlist.id (Netlist.In 0) in
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    (* States: 0 empty, 1 ready, 2 computing slow. *)
    let st, next = one_hot ctx ~name:u ~n:3 ~init:0 in
    let slow = Fmt.str "slowpick_%s" u in
    input ctx slow;
    assign ctx (vp o) (Var st.(1));
    let leaving = And [ Var st.(1); Not (Var (sp o)) ] in
    assign ctx (sp i)
      (Or [ Var st.(2); And [ Var st.(1); Var (sp o) ] ]);
    assign ctx (vm i) F;
    assign ctx (sm o) (Not (Var st.(1)));
    let tin = token_in i in
    next 0
      (Or
         [ And [ Var st.(0); Not tin ];
           And [ leaving; Not tin ] ]);
    next 1
      (Or
         [ And [ tin; Not (Var slow) ]; Var st.(2);
           And [ Var st.(1); Not leaving ] ]);
    next 2 (And [ tin; Var slow ])

let emit ppf ~model net =
  Netlist.validate_exn net;
  let ctx =
    { buf = Buffer.create 4096; fresh = 0; inputs = []; outputs = [];
      latches = [] }
  in
  List.iter (emit_node net ctx) (Netlist.nodes net);
  (* Expose every channel's control bits for observability. *)
  List.iter
    (fun (c : Netlist.channel) ->
       List.iter (output ctx)
         [ vp c.Netlist.ch_id; sp c.Netlist.ch_id; vm c.Netlist.ch_id;
           sm c.Netlist.ch_id ])
    (Netlist.channels net);
  Fmt.pf ppf ".model %s@." (sanitize model);
  Fmt.pf ppf ".inputs %s@."
    (String.concat " " (List.rev ctx.inputs));
  Fmt.pf ppf ".outputs %s@."
    (String.concat " " (List.rev ctx.outputs));
  List.iter
    (fun (d, q, init) ->
       Fmt.pf ppf ".latch %s %s re clk %d@." d q (if init then 1 else 0))
    (List.rev ctx.latches);
  Fmt.pf ppf "%s" (Buffer.contents ctx.buf);
  Fmt.pf ppf ".end@."

let to_string ~model net = Fmt.str "%a" (fun ppf () -> emit ppf ~model net) ()

let save path ~model net =
  Out_channel.with_open_text path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      emit ppf ~model net;
      Format.pp_print_flush ppf ())
