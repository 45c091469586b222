open Elastic_kernel
open Elastic_netlist
module Json = Elastic_metrics.Json

let schema = "elastic-speculation/trace/v1"

let event_json net (e : Event.t) =
  let subject_fields =
    match e.Event.ev_subject with
    | Event.Chan cid ->
      [ ("ch", Json.Int cid);
        ("at", Json.Str (Netlist.channel net cid).Netlist.ch_name) ]
    | Event.Node nid ->
      [ ("n", Json.Int nid);
        ("at", Json.Str (Netlist.node net nid).Netlist.name) ]
  in
  let kind_fields =
    match e.Event.ev_kind with
    | Event.Transfer (Some v) -> [ ("v", Json.Str (Value.to_string v)) ]
    | Event.Transfer None -> []
    | Event.Stall | Event.Anti | Event.Cancel | Event.Inject -> []
    | Event.Occupancy { before; after } ->
      [ ("before", Json.Int before); ("after", Json.Int after) ]
    | Event.Predict { way } | Event.Serve { way }
    | Event.Mispredict { way } ->
      [ ("way", Json.Int way) ]
    | Event.Replay { penalty } -> [ ("penalty", Json.Int penalty) ]
    | Event.Violation { property } -> [ ("prop", Json.Str property) ]
  in
  Json.Obj
    (("c", Json.Int e.Event.ev_cycle)
     :: ("k", Json.Str (Event.kind_label e.Event.ev_kind))
     :: subject_fields
     @ kind_fields)

let to_string net evs =
  Json.Jsonl.to_string ~schema
    [ ("events", Json.Int (List.length evs)) ]
    (List.map (event_json net) evs)

let save path net evs =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string net evs))
