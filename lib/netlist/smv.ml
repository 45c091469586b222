(* Flat control-abstract SMV model.  Three sections are accumulated while
   walking the nodes: state variables + nondeterministic inputs, the
   combinational channel equations (DEFINE), and the sequential updates
   (ASSIGN next).  Channel wire names: vp_<id>, sp_<id>, vm_<id>,
   sm_<id>. *)

let sanitize name =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
       | _ -> '_')
    name

type sections = {
  vars : Buffer.t;
  ivars : Buffer.t;
  defines : Buffer.t;
  assigns : Buffer.t;
  fairness : Buffer.t;
  specs : Buffer.t;
}

let bpf b fmt = Fmt.kstr (Buffer.add_string b) fmt

let wire field (c : Netlist.channel) = Fmt.str "%s_%d" field c.Netlist.ch_id

let ch_at net node port =
  match Netlist.channel_at net node port with
  | Some c -> c
  | None -> invalid_arg "Smv.emit: missing channel"

(* Boundary events of a channel, with cancellation resolved. *)
let ev_token_in c =
  Fmt.str "(%s & !%s & !%s)" (wire "vp" c) (wire "sp" c) (wire "vm" c)

let ev_token_out c =
  Fmt.str "(%s & (!%s | %s))" (wire "vp" c) (wire "sp" c) (wire "vm" c)

let ev_anti_in c =
  Fmt.str "(%s & !%s & !%s)" (wire "vm" c) (wire "sm" c) (wire "vp" c)

let ev_anti_out c =
  Fmt.str "(%s & (%s | !%s))" (wire "vm" c) (wire "vp" c) (wire "sm" c)

let emit_node net s (n : Netlist.node) =
  let u = sanitize n.Netlist.name in
  match n.Netlist.kind with
  | Netlist.Source _ ->
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    bpf s.ivars "    offer_%s : boolean;\n" u;
    bpf s.vars "    retry_%s : boolean;\n" u;
    bpf s.defines "    %s := retry_%s | offer_%s;\n" (wire "vp" o) u u;
    bpf s.defines "    %s := FALSE;\n" (wire "sm" o);
    bpf s.assigns "    init(retry_%s) := FALSE;\n" u;
    bpf s.assigns "    next(retry_%s) := %s & !%s;\n" u (wire "vp" o)
      (ev_token_out o);
    (* The environment eventually offers (needed for channel liveness). *)
    bpf s.fairness "FAIRNESS offer_%s;\n" u
  | Netlist.Sink _ ->
    let i = ch_at net n.Netlist.id (Netlist.In 0) in
    bpf s.ivars "    stall_%s : boolean;\n" u;
    bpf s.defines "    %s := stall_%s;\n" (wire "sp" i) u;
    bpf s.defines "    %s := FALSE;\n" (wire "vm" i);
    bpf s.fairness "FAIRNESS !stall_%s;\n" u
  | Netlist.Buffer { buffer = Netlist.Eb; init } ->
    let i = ch_at net n.Netlist.id (Netlist.In 0) in
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    bpf s.vars "    n_%s : -2..2;\n" u;
    bpf s.defines "    %s := n_%s >= 2;\n" (wire "sp" i) u;
    bpf s.defines "    %s := n_%s < 0;\n" (wire "vm" i) u;
    bpf s.defines "    %s := n_%s > 0;\n" (wire "vp" o) u;
    bpf s.defines "    %s := n_%s <= -2;\n" (wire "sm" o) u;
    bpf s.assigns "    init(n_%s) := %d;\n" u (List.length init);
    bpf s.assigns
      "    next(n_%s) := n_%s + toint(%s) + toint(%s) - toint(%s) - \
       toint(%s);\n"
      u u (ev_token_in i) (ev_anti_out i) (ev_token_out o) (ev_anti_in o)
  | Netlist.Buffer { buffer = Netlist.Eb0; init } ->
    let i = ch_at net n.Netlist.id (Netlist.In 0) in
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    bpf s.vars "    full_%s : boolean;\n" u;
    bpf s.defines "    %s := full_%s;\n" (wire "vp" o) u;
    bpf s.defines "    leaving_%s := full_%s & (!%s | %s);\n" u u
      (wire "sp" o) (wire "vm" o);
    bpf s.defines "    %s := full_%s & !leaving_%s;\n" (wire "sp" i) u u;
    bpf s.defines "    %s := !full_%s & %s;\n" (wire "vm" i) u (wire "vm" o);
    bpf s.defines "    %s := !full_%s & %s;\n" (wire "sm" o) u (wire "sm" i);
    bpf s.assigns "    init(full_%s) := %s;\n" u
      (if init = [] then "FALSE" else "TRUE");
    bpf s.assigns
      "    next(full_%s) := case %s : TRUE; leaving_%s : FALSE; TRUE : \
       full_%s; esac;\n"
      u (ev_token_in i) u u
  | Netlist.Func f ->
    let ins =
      List.init f.Func.arity (fun k -> ch_at net n.Netlist.id (Netlist.In k))
    in
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    let conj field =
      String.concat " & " (List.map (fun c -> wire field c) ins)
    in
    bpf s.defines "    %s := %s;\n" (wire "vp" o) (conj "vp");
    bpf s.defines "    seff_%s := %s & !%s;\n" u (wire "sp" o) (wire "vm" o);
    List.iteri
      (fun k c ->
         let others =
           List.filteri (fun j _ -> j <> k) ins
           |> List.map (fun c' -> wire "vp" c')
         in
         let others =
           match others with [] -> "TRUE" | _ -> String.concat " & " others
         in
         bpf s.defines "    %s := !(%s & !seff_%s);\n" (wire "sp" c) others u)
      ins;
    let consumable =
      String.concat " & "
        (List.map
           (fun c -> Fmt.str "(%s | !%s)" (wire "vp" c) (wire "sm" c))
           ins)
    in
    bpf s.defines "    cons_%s := %s;\n" u consumable;
    List.iter
      (fun c ->
         bpf s.defines "    %s := %s & !%s & cons_%s;\n" (wire "vm" c)
           (wire "vm" o) (wire "vp" o) u)
      ins;
    bpf s.defines "    %s := !%s & !cons_%s;\n" (wire "sm" o) (wire "vp" o) u
  | Netlist.Fork k ->
    let i = ch_at net n.Netlist.id (Netlist.In 0) in
    let outs =
      List.init k (fun j -> ch_at net n.Netlist.id (Netlist.Out j))
    in
    List.iteri
      (fun j o ->
         bpf s.vars "    done_%s_%d : boolean;\n" u j;
         bpf s.vars "    pend_%s_%d : 0..2;\n" u j;
         bpf s.defines "    active_%s_%d := !done_%s_%d & pend_%s_%d = 0;\n"
           u j u j u j;
         bpf s.defines "    %s := %s & active_%s_%d;\n" (wire "vp" o)
           (wire "vp" i) u j;
         bpf s.defines "    %s := pend_%s_%d >= 2;\n" (wire "sm" o) u j;
         bpf s.defines "    tout_%s_%d := %s;\n" u j (ev_token_out o);
         bpf s.defines
           "    compl_%s_%d := done_%s_%d | pend_%s_%d != 0 | tout_%s_%d;\n"
           u j u j u j u j)
      outs;
    let all f =
      String.concat " & "
        (List.mapi (fun j _ -> Fmt.str "%s_%s_%d" f u j) outs)
    in
    bpf s.defines "    %s := !(%s);\n" (wire "sp" i) (all "compl");
    bpf s.defines "    allpend_%s := %s;\n" u
      (String.concat " & "
         (List.mapi (fun j _ -> Fmt.str "pend_%s_%d != 0" u j) outs));
    bpf s.defines "    %s := !%s & allpend_%s;\n" (wire "vm" i) (wire "vp" i)
      u;
    List.iteri
      (fun j o ->
         bpf s.assigns "    init(done_%s_%d) := FALSE;\n" u j;
         bpf s.assigns "    init(pend_%s_%d) := 0;\n" u j;
         bpf s.assigns
           "    next(done_%s_%d) := case %s : FALSE; tout_%s_%d : TRUE; \
            TRUE : done_%s_%d; esac;\n"
           u j (ev_token_in i) u j u j;
         bpf s.assigns
           "    next(pend_%s_%d) := pend_%s_%d + toint(%s) - toint(%s & \
            !(done_%s_%d | tout_%s_%d)) - toint(%s);\n"
           u j u j (ev_anti_in o) (ev_token_in i) u j u j (ev_anti_out i))
      outs
  | Netlist.Mux { ways; early } ->
    let sel = ch_at net n.Netlist.id Netlist.Sel in
    let ins =
      List.init ways (fun j -> ch_at net n.Netlist.id (Netlist.In j))
    in
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    if not early then begin
      (* A plain mux is control-wise the (ways+1)-input lazy join. *)
      let all = sel :: ins in
      let conj field =
        String.concat " & " (List.map (fun c -> wire field c) all)
      in
      bpf s.defines "    %s := %s;\n" (wire "vp" o) (conj "vp");
      bpf s.defines "    seff_%s := %s & !%s;\n" u (wire "sp" o)
        (wire "vm" o);
      List.iteri
        (fun k c ->
           let others =
             List.filteri (fun j _ -> j <> k) all
             |> List.map (fun c' -> wire "vp" c')
             |> String.concat " & "
           in
           bpf s.defines "    %s := !(%s & !seff_%s);\n" (wire "sp" c)
             others u)
        all;
      let consumable =
        String.concat " & "
          (List.map
             (fun c -> Fmt.str "(%s | !%s)" (wire "vp" c) (wire "sm" c))
             all)
      in
      bpf s.defines "    cons_%s := %s;\n" u consumable;
      List.iter
        (fun c ->
           bpf s.defines "    %s := %s & !%s & cons_%s;\n" (wire "vm" c)
             (wire "vm" o) (wire "vp" o) u)
        all;
      bpf s.defines "    %s := !%s & !cons_%s;\n" (wire "sm" o) (wire "vp" o)
        u
    end
    else begin
      (* Data abstraction: the select value is a nondeterministic input
         latched across retries (a real select is persistent data). *)
      bpf s.ivars "    pick_%s : 0..%d;\n" u (ways - 1);
      bpf s.vars "    held_%s : 0..%d;\n" u (ways - 1);
      bpf s.vars "    retry_%s : boolean;\n" u;
      bpf s.defines "    sv_%s := retry_%s ? held_%s : pick_%s;\n" u u u u;
      List.iteri
        (fun j _ ->
           bpf s.vars "    q_%s_%d : 0..2;\n" u j)
        ins;
      let q_sv =
        Fmt.str "case %s esac"
          (String.concat " "
             (List.mapi (fun j _ -> Fmt.str "sv_%s = %d : q_%s_%d;" u j u j)
                ins))
      in
      bpf s.defines "    qsv_%s := %s;\n" u q_sv;
      let vp_sv =
        Fmt.str "case %s esac"
          (String.concat " "
             (List.mapi
                (fun j c -> Fmt.str "sv_%s = %d : %s;" u j (wire "vp" c))
                ins))
      in
      bpf s.defines "    vpsv_%s := %s;\n" u vp_sv;
      bpf s.defines "    %s := %s & qsv_%s = 0 & vpsv_%s;\n" (wire "vp" o)
        (wire "vp" sel) u u;
      bpf s.defines "    fire_%s := %s & (!%s | %s);\n" u (wire "vp" o)
        (wire "sp" o) (wire "vm" o);
      bpf s.defines "    %s := !fire_%s;\n" (wire "sp" sel) u;
      bpf s.defines "    %s := FALSE;\n" (wire "vm" sel);
      bpf s.defines "    %s := !%s;\n" (wire "sm" o) (wire "vp" o);
      List.iteri
        (fun j c ->
           bpf s.defines
             "    %s := q_%s_%d != 0 | (fire_%s & sv_%s != %d);\n"
             (wire "vm" c) u j u u j;
           bpf s.defines
             "    %s := case q_%s_%d != 0 : FALSE; sv_%s = %d & %s : \
              !fire_%s; TRUE : !(fire_%s & sv_%s != %d); esac;\n"
             (wire "sp" c) u j u j (wire "vp" sel) u u u j)
        ins;
      bpf s.assigns "    init(retry_%s) := FALSE;\n" u;
      bpf s.assigns "    next(retry_%s) := %s & !fire_%s;\n" u
        (wire "vp" sel) u;
      bpf s.assigns "    init(held_%s) := 0;\n" u;
      bpf s.assigns "    next(held_%s) := sv_%s;\n" u u;
      List.iteri
        (fun j c ->
           bpf s.assigns "    init(q_%s_%d) := 0;\n" u j;
           bpf s.assigns
             "    next(q_%s_%d) := q_%s_%d + toint(fire_%s & sv_%s != %d) \
              - toint(%s);\n"
             u j u j u u j (ev_anti_out c))
        ins
    end
  | Netlist.Shared { ways; hinted; _ } ->
    let ins =
      List.init ways (fun j -> ch_at net n.Netlist.id (Netlist.In j))
    in
    let outs =
      List.init ways (fun j -> ch_at net n.Netlist.id (Netlist.Out j))
    in
    (* Nondeterministic scheduler with the leads-to property expressed as
       fairness on every grant (the paper's verification setup). *)
    bpf s.ivars "    pred_%s : 0..%d;\n" u (ways - 1);
    for j = 0 to ways - 1 do
      bpf s.fairness "FAIRNESS pred_%s = %d;\n" u j
    done;
    if hinted then begin
      let h = ch_at net n.Netlist.id Netlist.Sel in
      bpf s.defines "    %s := !(pred_%s = 0 & fire_%s_0);\n" (wire "sp" h)
        u u;
      bpf s.defines "    %s := FALSE;\n" (wire "vm" h)
    end;
    List.iteri
      (fun j (i, o) ->
         bpf s.defines "    %s := pred_%s = %d & %s;\n" (wire "vp" o) u j
           (wire "vp" i);
         bpf s.defines "    fire_%s_%d := %s & (!%s | %s);\n" u j
           (wire "vp" o) (wire "sp" o) (wire "vm" o);
         bpf s.defines
           "    %s := pred_%s = %d ? !fire_%s_%d : !%s;\n" (wire "sp" i) u j
           u j (wire "vm" o);
         bpf s.defines
           "    %s := pred_%s = %d ? (%s & !%s) : %s;\n" (wire "vm" i) u j
           (wire "vm" o) (wire "vp" o) (wire "vm" o);
         bpf s.defines "    %s := !%s & %s & !%s;\n" (wire "sm" o)
           (wire "vp" o) (wire "sm" i) (wire "vp" i))
      (List.combine ins outs)
  | Netlist.Varlat _ ->
    let i = ch_at net n.Netlist.id (Netlist.In 0) in
    let o = ch_at net n.Netlist.id (Netlist.Out 0) in
    (* 0 = empty, 1 = ready, 2 = computing the slow path. *)
    bpf s.vars "    st_%s : 0..2;\n" u;
    bpf s.ivars "    slowpick_%s : boolean;\n" u;
    bpf s.defines "    %s := st_%s = 1;\n" (wire "vp" o) u;
    bpf s.defines "    leaving_%s := st_%s = 1 & !%s;\n" u u (wire "sp" o);
    bpf s.defines
      "    %s := case st_%s = 2 : TRUE; st_%s = 1 : !leaving_%s; TRUE : \
       FALSE; esac;\n"
      (wire "sp" i) u u u;
    bpf s.defines "    %s := FALSE;\n" (wire "vm" i);
    bpf s.defines "    %s := st_%s != 1;\n" (wire "sm" o) u;
    bpf s.assigns "    init(st_%s) := 0;\n" u;
    bpf s.assigns
      "    next(st_%s) := case %s : (slowpick_%s ? 2 : 1); st_%s = 2 : 1; \
       leaving_%s : 0; TRUE : st_%s; esac;\n"
      u (ev_token_in i) u u u u

let emit ppf net =
  Netlist.validate_exn net;
  let s =
    { vars = Buffer.create 512; ivars = Buffer.create 256;
      defines = Buffer.create 1024; assigns = Buffer.create 512;
      fairness = Buffer.create 128; specs = Buffer.create 512 }
  in
  List.iter (emit_node net s) (Netlist.nodes net);
  List.iter
    (fun (c : Netlist.channel) ->
       let vp = wire "vp" c and sp = wire "sp" c in
       let vm = wire "vm" c and sm = wire "sm" c in
       bpf s.specs "-- channel %s\n" c.Netlist.ch_name;
       let persistent =
         match (Netlist.node net c.Netlist.src.ep_node).Netlist.kind with
         | Netlist.Shared _ -> false
         | Netlist.Source _ | Netlist.Sink _ | Netlist.Buffer _
         | Netlist.Func _ | Netlist.Fork _ | Netlist.Mux _
         | Netlist.Varlat _ -> true
       in
       if persistent then
         bpf s.specs "LTLSPEC G ((%s & %s & !%s) -> X %s)\n" vp sp vm vp;
       bpf s.specs "LTLSPEC G ((%s & %s & !%s) -> X %s)\n" vm sm vp vm;
       bpf s.specs "LTLSPEC G !(%s & !%s & %s)\n" vp vm sm;
       bpf s.specs "LTLSPEC G !(%s & !%s & %s)\n" vm vp sp;
       bpf s.specs "LTLSPEC G F ((%s & (!%s | %s)) | (%s & (!%s | %s)) | \
                    !(%s | %s))\n"
         vp sp vm vm sm vp vp vm)
    (Netlist.channels net);
  Fmt.pf ppf "-- Generated by elastic-speculation (control abstraction)@.";
  Fmt.pf ppf "MODULE main@.";
  if Buffer.length s.vars > 0 then
    Fmt.pf ppf "VAR@.%s" (Buffer.contents s.vars);
  if Buffer.length s.ivars > 0 then
    Fmt.pf ppf "IVAR@.%s" (Buffer.contents s.ivars);
  if Buffer.length s.defines > 0 then
    Fmt.pf ppf "DEFINE@.%s" (Buffer.contents s.defines);
  if Buffer.length s.assigns > 0 then
    Fmt.pf ppf "ASSIGN@.%s" (Buffer.contents s.assigns);
  Fmt.pf ppf "%s" (Buffer.contents s.fairness);
  Fmt.pf ppf "%s" (Buffer.contents s.specs)

let to_string net = Fmt.str "%a" emit net

let save path net =
  Out_channel.with_open_text path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      emit ppf net;
      Format.pp_print_flush ppf ())
