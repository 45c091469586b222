(** Span ledger exports.

    Three renderings of one merged span list:

    - {!jsonl}: the versioned machine-readable ledger in the
      {!Elastic_metrics.Json.Jsonl} envelope (schema {!schema}) — a
      header line naming the schema, campaign, trace id and span count,
      then one {!Span.to_json} object per line;
    - {!chrome_json}: Chrome trace-event JSON (the ["traceEvents"]
      array form) loadable in Perfetto / [chrome://tracing], one named
      track per worker, ["X"] complete events with microsecond
      timestamps sorted monotonically;
    - {!folded}: collapsed stacks ([campaign;shard;attempt;settle N])
      with self-time values in microseconds, aggregated by kind path,
      ready for [flamegraph.pl] / speedscope. *)

(** ["elastic-speculation/spans/v1"]. *)
val schema : string

(** Earliest span start, the time base every export subtracts; [0L]
    for an empty list. *)
val base_ns : Span.t list -> int64

val jsonl : ?campaign:string -> Span.t list -> string

val write_jsonl : path:string -> ?campaign:string -> Span.t list -> unit

val chrome_json :
  ?process_name:string -> Span.t list -> Elastic_metrics.Json.t

val write_chrome :
  path:string -> ?process_name:string -> Span.t list -> unit

val folded : Span.t list -> string

val write_folded : path:string -> Span.t list -> unit
