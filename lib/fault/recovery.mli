open Elastic_kernel
open Elastic_netlist

(** Recovery verification: compare a faulted run against an unfaulted
    reference run of the same netlist and classify the outcome by
    transfer-stream equivalence-modulo-delay (values must match in
    order; cycle stamps may lag — the recovery penalty).

    Classification precedence: [Crashed] (the faulted engine raised) >
    [Detected] (a protocol monitor, the starvation watchdog, or a
    user-declared alarm sink flagged the fault) > [Silent_corruption]
    (a data sink delivered a wrong value) > [Deadlock] (transfers
    missing after the settle window) > [Corrected] (equivalent modulo a
    positive delay) > [Masked] (streams identical including stamps). *)

type classification =
  | Masked
  | Corrected of int  (** Max extra delay, in cycles, at any data sink. *)
  | Detected of string  (** Provenance of the first detection. *)
  | Silent_corruption of string
  | Deadlock of string
  | Crashed of string

type report = {
  classification : classification;
  fault_desc : string list;  (** One line per injected fault. *)
  ref_transfers : int;  (** Data-sink transfers in the reference run. *)
  faulted_transfers : int;
  fresh_violations : (string * Protocol.violation) list;
      (** Monitor violations present in the faulted run only. *)
}

val classification_label : classification -> string

val pp_classification : Format.formatter -> classification -> unit

val pp_report : Format.formatter -> report -> unit

(** {1 Reference run and checks against it}

    A check compares a faulted run against the fault-free run of the
    same netlist.  The fault-free side depends only on the netlist, the
    cycle count and the alarms, so a campaign computes it once with
    {!val:golden} and checks every scenario with {!check_against};
    {!check} does both for a single scenario. *)

(** The fault-free reference of one campaign setup: the netlist, the
    cycle count and the alarms it was run with, each data sink's
    transfer entries, the data-sink transfer total, the monitor
    violations, the starvation-watchdog messages and the alarm-trip
    count of the reference run.  Abstract so that a check can only use
    it with the setup it was computed from; immutable, so one value may
    be shared by any number of checks, across domains too (the alarm
    predicates it holds are called from each of them and must be
    pure). *)
type golden

(** [golden net] runs the fault-free engine (protocol monitors on) for
    [cycles] (default 300) cycles.  The checker assumes a {e finite}
    workload that this run drains: transfers beyond the reference
    stream are reported as spurious (corruption), not run-ahead.

    @param alarms sink nodes that are error {e detectors} rather than
    data outputs: their streams are excluded from equivalence checking
    and a fault counts as [Detected] when the predicate holds for more
    faulted-run values than reference-run values.
    @raise Elastic_sim.Engine.Simulation_error before simulating
    anything when an alarm id is not a sink of [net] (cycle 0, the
    node id as provenance), and with the engine's own provenance when
    the reference run itself fails. *)
val golden :
  ?cycles:int ->
  ?alarms:(Netlist.node_id * (Value.t -> bool)) list ->
  Netlist.t ->
  golden

(** [check_against g ~faults] simulates only the faulted engine: the
    golden's cycle count with [faults] injected, then [settle] (default
    60) more cycles to let it drain, and classifies the run against
    [g].  The report is the one {!check} gives for the same setup.

    @param observer called once with the faulted engine before the
    first cycle, so a tracer (e.g. [Elastic_trace.Tracer.attach]) can be
    installed and the injected fault's propagation recorded. *)
val check_against :
  ?settle:int ->
  ?observer:(Elastic_sim.Engine.t -> unit) ->
  golden ->
  faults:Fault.t list ->
  report

(** [check net ~faults] is
    [check_against ?settle ?observer (golden ?cycles ?alarms net) ~faults]:
    one scenario, with its own reference run. *)
val check :
  ?cycles:int ->
  ?settle:int ->
  ?alarms:(Netlist.node_id * (Value.t -> bool)) list ->
  ?observer:(Elastic_sim.Engine.t -> unit) ->
  Netlist.t ->
  faults:Fault.t list ->
  report
