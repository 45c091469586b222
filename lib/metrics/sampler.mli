open Elastic_sim

(** Engine instrumentation: a {!Metrics} registry populated from the
    engine's allocation-free end-of-cycle observer hook
    ({!Engine.set_observer}), plus a windowed JSONL time series.

    Metric families (Prometheus naming, [elastic_] prefix):
    - engine: [elastic_engine_cycles_total], [..._node_evals_total],
      [..._convergence_retry_cycles_total], the [..._settle_passes]
      histogram, [..._settle_seconds] and [..._stored_tokens] gauges,
      [..._protocol_violations_total];
    - per channel ([channel] label): [elastic_channel_transfers_total],
      [..._stall_cycles_total], [..._anti_cycles_total],
      [..._kills_total];
    - per buffer ([node] label): [elastic_buffer_occupancy] gauge;
    - per scheduler ([node] label): [elastic_sched_serves_total],
      [..._mispredictions_total], [..._prediction_changes_total], the
      [..._replay_penalty_cycles] histogram and the [..._accuracy]
      gauge;
    - per sink ([sink] label): [elastic_sink_throughput] gauge
      (tokens/cycle since creation);
    - faults: [elastic_fault_injections_total], and
      [elastic_fault_recovery_total] ([class] label) via
      {!note_recovery}.

    Counters and histograms are updated every cycle with constant work
    per channel/scheduler; gauges (and the optional window callback)
    are refreshed only at window boundaries, so the per-cycle cost
    stays flat.  With no sampler attached the engine hot path is
    untouched — the metrics-off guarantee is the observer-off
    guarantee, and the instrument updates themselves are
    allocation-free (GC-guarded in the test suite). *)

type t

(** One emitted window: the cycle count at emission, the window length
    in cycles, and the {e cumulative} snapshot at that point (rates are
    a consumer-side subtraction, as with Prometheus scrapes). *)
type row = {
  r_cycle : int;
  r_window : int;
  r_samples : Metrics.sample list;
}

(** [create eng] builds a sampler (not yet installed — use {!attach},
    or compose {!observe} into an existing observer).
    @param registry register instruments into an existing registry
    (default: a fresh one).
    @param window emit a {!row} every [window] cycles (default [0]: no
    windowing; gauges then refresh on every cycle).
    @param on_window window callback. *)
val create :
  ?registry:Metrics.t -> ?window:int -> ?on_window:(row -> unit) ->
  Engine.t -> t

(** [attach eng] = {!create} + [Engine.set_observer]. *)
val attach :
  ?registry:Metrics.t -> ?window:int -> ?on_window:(row -> unit) ->
  Engine.t -> t

(** The observer body, exposed for composition with a tracer or VCD
    recorder (the engine has a single observer slot). *)
val observe : t -> Engine.t -> unit

val registry : t -> Metrics.t

(** Snapshot with gauges freshly refreshed from the engine. *)
val sample : t -> Engine.t -> Metrics.sample list

(** ["elastic-speculation/metrics/v1"]. *)
val schema : string

(** One JSONL line (no trailing newline): a self-contained row tagged
    with {!schema} through {!Json.Jsonl.tag}, so every line of a
    metrics series is a versioned document ({!Json.Jsonl.check});
    histograms are summarized as count/sum/min/max/p50/p90/p99. *)
val jsonl_of_row : row -> string

(** Count a recovery classification into
    [elastic_fault_recovery_total{class="..."}]. *)
val note_recovery :
  Metrics.t -> Elastic_fault.Recovery.classification -> unit
