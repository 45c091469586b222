(** The campaign status document, a single versioned object tagged
    through {!Elastic_metrics.Json.Jsonl.tag} (schema {!schema}).

    One JSON shape serves two sources: the telemetry server's live
    [GET /status] (rendered from a {!Progress} plane mid-campaign) and
    the shell's [runner status --json] (rendered from a {!Checkpoint}
    after the fact).  Core fields are identical so dashboards and CI
    validators parse both without caring which side produced them:

    - [schema], [source] ("live" | "checkpoint" | "idle"), [campaign];
    - shard counts: [shards], [pending], [running], [completed],
      [failed] — always summing to [shards] — plus [resumed] and
      [retried];
    - [attempts], [elapsed_seconds], [eta_seconds] (null when unknown);
    - watchdog health: [healthy], [stalls];
    - [workers]: per-worker utilization objects (empty without a span
      collector);
    - [slowest]: the slowest completed shard, or null. *)

(** ["elastic-speculation/status/v1"]; readers check it with
    {!Elastic_metrics.Json.Jsonl.check}. *)
val schema : string

(** Live form.  [None] renders an idle document (zero shards, healthy).
    @param healthy watchdog verdict (default [true]).
    @param stalls watchdog stall count (default [0]).
    @param utilization per-worker busy fractions from
      [Elastic_obs.Collector.utilization]. *)
val of_progress :
  ?healthy:bool ->
  ?stalls:int ->
  ?utilization:(int * float) list ->
  Progress.t option ->
  Elastic_metrics.Json.t

(** Post-hoc form from a checkpoint file.  Only completed shards reach
    a checkpoint, so shards absent from it count as [pending] (the
    resume work list) and [running]/[failed] are zero. *)
val of_checkpoint : Checkpoint.t -> Elastic_metrics.Json.t
