(** Structured spans: the unit of the campaign run ledger.

    A span is one finished, named interval on the injectable monotonic
    {!Elastic_sim.Clock} — a campaign, a shard, one attempt at a shard,
    or a phase inside an attempt (reference run, compile, settle,
    checkpoint write, backoff sleep).  Spans carry a trace id shared by
    every span of one run, their own id, a parent id forming the
    [campaign -> shard -> attempt -> phase] hierarchy, a track (the
    worker/domain that produced them) and typed attributes (worker id,
    retry count, failure classification, deadline margin, ...).

    Spans are plain immutable records: the recording side
    ({!Recorder}) keeps them in a preallocated ring, the export side
    ({!Export}) renders them to JSONL, Chrome trace-event JSON and
    collapsed flamegraph stacks. *)

type kind =
  | Campaign
  | Shard
  | Attempt
  | Reference_run
      (** a campaign's fault-free golden run, in the attempt that
          computed it *)
  | Compile  (** engine construction: netlist -> schedule/arena *)
  | Settle  (** combinational settle phases of a simulation window *)
  | Checkpoint_write
  | Backoff_sleep

(** Stable lowercase label ([campaign], [checkpoint-write], ...) used by
    every export format. *)
val kind_name : kind -> string

type attr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  sp_trace : int;  (** shared by all spans of one collector/run *)
  sp_id : int;  (** unique within the trace *)
  sp_parent : int;  (** {!no_parent} for roots *)
  sp_kind : kind;
  sp_name : string;
  sp_track : int;  (** worker/domain id; one export track per value *)
  sp_start_ns : int64;  (** monotonic clock reading *)
  sp_end_ns : int64;
  sp_attrs : (string * attr) list;
}

val no_parent : int

(** Duration in nanoseconds, never negative. *)
val duration_ns : t -> int64

val duration_seconds : t -> float

val attr_to_json : attr -> Elastic_metrics.Json.t

(** One span as a JSON object ([id], [parent], [track], [kind], [name],
    [start_ns], [dur_ns], [attrs]); [start_ns] is made relative to
    [base_ns] so exported ledgers start near zero. *)
val to_json : base_ns:int64 -> t -> Elastic_metrics.Json.t

(** One-line human rendering for [spans dump]. *)
val pp : base_ns:int64 -> Format.formatter -> t -> unit
