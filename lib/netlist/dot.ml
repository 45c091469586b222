let node_attrs (n : Netlist.node) =
  match n.Netlist.kind with
  | Netlist.Source _ -> "shape=invtriangle,style=filled,fillcolor=lightblue"
  | Netlist.Sink _ -> "shape=triangle,style=filled,fillcolor=lightblue"
  | Netlist.Buffer { init; _ } ->
    if init = [] then "shape=box,style=dashed"
    else "shape=box,style=filled,fillcolor=gold"
  | Netlist.Func _ -> "shape=ellipse"
  | Netlist.Fork _ -> "shape=point,width=0.15"
  | Netlist.Mux { early; _ } ->
    if early then "shape=trapezium,style=filled,fillcolor=palegreen"
    else "shape=trapezium"
  | Netlist.Shared _ -> "shape=doubleoctagon,style=filled,fillcolor=salmon"
  | Netlist.Varlat _ -> "shape=component,style=filled,fillcolor=khaki"

let label (n : Netlist.node) =
  match n.Netlist.kind with
  | Netlist.Buffer { buffer; init } ->
    Fmt.str "%s\\n%s:%d" n.Netlist.name
      (Netlist.buffer_kind_name buffer)
      (List.length init)
  | Netlist.Source _ | Netlist.Sink _ | Netlist.Func _ | Netlist.Fork _
  | Netlist.Mux _ | Netlist.Shared _ | Netlist.Varlat _ ->
    Fmt.str "%s\\n%s" n.Netlist.name (Netlist.kind_name n.Netlist.kind)

let emit ppf t =
  Fmt.pf ppf "digraph elastic {@.  rankdir=LR;@.";
  List.iter
    (fun (n : Netlist.node) ->
       Fmt.pf ppf "  n%d [label=\"%s\",%s];@." n.Netlist.id (label n)
         (node_attrs n))
    (Netlist.nodes t);
  List.iter
    (fun (c : Netlist.channel) ->
       Fmt.pf ppf "  n%d -> n%d [label=\"%a>%a\"];@." c.Netlist.src.ep_node
         c.Netlist.dst.ep_node Netlist.pp_port c.Netlist.src.ep_port
         Netlist.pp_port c.Netlist.dst.ep_port)
    (Netlist.channels t);
  Fmt.pf ppf "}@."

let to_string t = Fmt.str "%a" emit t

let save path t =
  Out_channel.with_open_text path (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      emit ppf t;
      Format.pp_print_flush ppf ())
