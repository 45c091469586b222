open Elastic_netlist

(** JSONL (one JSON object per line) export of an event stream, written
    through the shared artifact envelope {!Elastic_metrics.Json.Jsonl}.

    Line 1 is the header
    {v {"schema":"elastic-speculation/trace/v1","events":N} v}
    followed by one object per event.  Field schema (documented in
    EXPERIMENTS.md): [c] cycle, [k] kind label, [ch]/[n] channel or node
    id, [at] resolved name, plus kind-specific fields [v] (payload,
    rendered with [Value.to_string]), [way], [penalty], [before]/[after],
    [prop]. *)

(** ["elastic-speculation/trace/v1"]. *)
val schema : string

val to_string : Netlist.t -> Event.t list -> string

val save : string -> Netlist.t -> Event.t list -> unit
