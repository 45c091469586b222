open Elastic_kernel
open Elastic_netlist
open Elastic_sim

type classification =
  | Masked
  | Corrected of int
  | Detected of string
  | Silent_corruption of string
  | Deadlock of string
  | Crashed of string

type report = {
  classification : classification;
  fault_desc : string list;
  ref_transfers : int;
  faulted_transfers : int;
  fresh_violations : (string * Protocol.violation) list;
}

let classification_label = function
  | Masked -> "masked"
  | Corrected _ -> "corrected"
  | Detected _ -> "detected"
  | Silent_corruption _ -> "silent-corruption"
  | Deadlock _ -> "deadlock"
  | Crashed _ -> "crashed"

let pp_classification ppf = function
  | Masked -> Fmt.pf ppf "masked"
  | Corrected p -> Fmt.pf ppf "corrected (penalty %d cycle%s)" p
                     (if p = 1 then "" else "s")
  | Detected why -> Fmt.pf ppf "detected: %s" why
  | Silent_corruption why -> Fmt.pf ppf "SILENT CORRUPTION: %s" why
  | Deadlock why -> Fmt.pf ppf "deadlock: %s" why
  | Crashed why -> Fmt.pf ppf "crashed: %s" why

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%a@,faults:@,%a@,transfers: %d reference, %d faulted"
    pp_classification r.classification
    Fmt.(list ~sep:cut (fmt "  %s"))
    r.fault_desc r.ref_transfers r.faulted_transfers;
  if r.fresh_violations <> [] then
    Fmt.pf ppf "@,monitor violations:@,%a"
      Fmt.(
        list ~sep:cut (fun ppf (name, v) ->
            pf ppf "  channel %s: %a" name Protocol.pp_violation v))
      r.fresh_violations;
  Fmt.pf ppf "@]"

(* Violations introduced by the fault: present in the faulted run but not
   (same channel, same property) in the reference run.  Designs are
   normally monitor-clean, but this keeps the checker usable on ones with
   pre-existing noise. *)
let fresh_violations ~ref_viols ~flt_viols =
  let key (name, (v : Protocol.violation)) = (name, v.Protocol.property) in
  List.filter
    (fun fv -> not (List.exists (fun rv -> key rv = key fv) ref_viols))
    flt_viols

type golden = {
  g_net : Netlist.t;
  g_cycles : int;
  g_alarms : (Netlist.node_id * (Value.t -> bool)) list;
  g_sinks : (Netlist.node * Transfer.entry list) list;
      (* data sinks in netlist order, with their reference streams *)
  g_transfers : int;
  g_violations : (string * Protocol.violation) list;
  g_starvation : string list;
  g_alarm_trips : int;
}

let alarm_trips alarms eng =
  List.fold_left
    (fun acc (nid, pred) ->
       let entries = Transfer.entries (Engine.sink_stream eng nid) in
       acc + List.length (List.filter (fun e -> pred e.Transfer.value) entries))
    0 alarms

let golden ?(cycles = 300) ?(alarms = []) net =
  let sinks =
    List.filter
      (fun (n : Netlist.node) ->
         match n.Netlist.kind with
         | Netlist.Sink _ -> true
         | _ -> false)
      (Netlist.nodes net)
  in
  (* A misnamed alarm would otherwise surface only after the whole run,
     or never when an earlier verdict short-circuits the alarm count. *)
  List.iter
    (fun (nid, _) ->
       match
         List.find_opt
           (fun (n : Netlist.node) -> n.Netlist.id = nid)
           (Netlist.nodes net)
       with
       | Some { Netlist.kind = Netlist.Sink _; _ } -> ()
       | found ->
         let name =
           match found with
           | Some n -> Fmt.str " (%s)" n.Netlist.name
           | None -> ""
         in
         raise
           (Engine.Simulation_error
              { Engine.err_cycle = 0; err_node = Some nid; err_channel = None;
                err_code = None;
                err_msg = Fmt.str "alarm node %d%s is not a sink" nid name }))
    alarms;
  let refe = Engine.create ~monitor:true net in
  for _ = 1 to cycles do
    Engine.step refe
  done;
  let g_sinks =
    List.filter_map
      (fun (n : Netlist.node) ->
         if List.mem_assoc n.Netlist.id alarms then None
         else
           Some (n, Transfer.entries (Engine.sink_stream refe n.Netlist.id)))
      sinks
  in
  { g_net = net;
    g_cycles = cycles;
    g_alarms = alarms;
    g_sinks;
    g_transfers =
      List.fold_left (fun a (_, es) -> a + List.length es) 0 g_sinks;
    g_violations = Engine.violations refe;
    g_starvation = Engine.starvation_violations refe;
    g_alarm_trips = alarm_trips alarms refe }

let check_against ?(settle = 60) ?observer g ~faults =
  let net = g.g_net in
  let plan = Fault.plan net faults in
  let flt = Engine.create ~monitor:true net in
  Engine.set_injector flt (Some (Fault.injector plan));
  (match observer with
   | None -> ()
   | Some attach -> attach flt);
  (* The first [g_cycles] cycles mirror the reference run; the [settle]
     more let the faulted engine drain: a replayed token arrives late, so
     give it a settle window before declaring transfers lost. *)
  let crash =
    match
      for _ = 1 to g.g_cycles + settle do
        Engine.step
          ~choices:(fun nid ->
              Fault.choices plan ~cycle:(Engine.cycle flt) nid)
          flt;
        Fault.observe plan flt
      done
    with
    | () -> None
    | exception Engine.Simulation_error e -> Some (Engine.error_to_string e)
    | exception e -> Some (Printexc.to_string e)
  in
  let faulted_transfers =
    List.fold_left
      (fun a ((n : Netlist.node), _) ->
         a + Transfer.length (Engine.sink_stream flt n.Netlist.id))
      0 g.g_sinks
  in
  let fresh =
    fresh_violations ~ref_viols:g.g_violations
      ~flt_viols:(Engine.violations flt)
  in
  let fresh_starvation =
    List.filter
      (fun s -> not (List.mem s g.g_starvation))
      (Engine.starvation_violations flt)
  in
  let monitor_detection () =
    match fresh with
    | (name, v) :: _ ->
      let endpoints =
        List.find_opt
          (fun (c : Netlist.channel) -> c.Netlist.ch_name = name)
          (Netlist.channels net)
      in
      let prov =
        match endpoints with
        | Some c ->
          Fmt.str " (channel id %d, node %d -> node %d)" c.Netlist.ch_id
            c.Netlist.src.Netlist.ep_node c.Netlist.dst.Netlist.ep_node
        | None -> ""
      in
      Some
        (Fmt.str "protocol monitor on channel %s%s: %s at cycle %d" name
           prov v.Protocol.property v.Protocol.cycle)
    | [] ->
      (match fresh_starvation with
       | s :: _ -> Some (Fmt.str "starvation watchdog: %s" s)
       | [] ->
         let trips = alarm_trips g.g_alarms flt - g.g_alarm_trips in
         if trips > 0 then
           Some
             (Fmt.str "alarm sink tripped %d time%s" trips
                (if trips = 1 then "" else "s"))
         else None)
  in
  let compare_sink ((n : Netlist.node), re) =
    let fe = Transfer.entries (Engine.sink_stream flt n.Netlist.id) in
    let rec go i lag rs fs =
      match (rs, fs) with
      | [], [] -> `Lag lag
      (* Example workloads are finite streams, so once the reference has
         drained, anything extra the faulted run delivered is a spurious
         (duplicated or forged) token. *)
      | [], (_ :: _ as extra) ->
        let k = List.length extra in
        `Mismatch
          (Fmt.str "sink %s: %d spurious extra transfer%s" n.Netlist.name k
             (if k = 1 then "" else "s"))
      | _ :: _, [] -> `Short (List.length rs)
      | r :: rs', f :: fs' ->
        if not (Value.equal r.Transfer.value f.Transfer.value) then
          `Mismatch
            (Fmt.str "sink %s transfer %d: expected %s, got %s"
               n.Netlist.name i
               (Value.to_string r.Transfer.value)
               (Value.to_string f.Transfer.value))
        else go (i + 1) (max lag (f.Transfer.cycle - r.Transfer.cycle)) rs'
               fs'
    in
    go 0 0 re fe
  in
  let classification =
    match crash with
    | Some why -> Crashed why
    | None ->
      (match monitor_detection () with
       | Some why -> Detected why
       | None ->
         let results = List.map compare_sink g.g_sinks in
         let mismatch =
           List.find_map
             (function `Mismatch m -> Some m | _ -> None)
             results
         in
         (match mismatch with
          | Some m -> Silent_corruption m
          | None ->
            let short =
              List.find_map
                (function `Short k -> Some k | _ -> None)
                results
            in
            (match short with
             | Some k ->
               Deadlock
                 (Fmt.str
                    "%d transfer%s still missing %d cycles after the \
                     fault window"
                    k
                    (if k = 1 then "" else "s")
                    settle)
             | None ->
               let lag =
                 List.fold_left
                   (fun a -> function `Lag l -> max a l | _ -> a)
                   0 results
               in
               if lag = 0 then Masked else Corrected lag)))
  in
  { classification;
    fault_desc = List.map (Fault.describe net) faults;
    ref_transfers = g.g_transfers;
    faulted_transfers;
    fresh_violations = fresh }

let check ?cycles ?settle ?alarms ?observer net ~faults =
  check_against ?settle ?observer (golden ?cycles ?alarms net) ~faults
