open Elastic_netlist

(** Static analysis over elastic netlists.

    A registry of rules, each a pure function of the netlist graph (no
    simulation), producing typed {!Diagnostic.t} findings: structural
    well-formedness (E001-E004, delegated to {!Netlist.diagnostics}),
    reachability (W005/W006), SELF invariants (E101-E103, W104) and
    speculation-specific checks (W201, I200-I202).  Transform
    preconditions (E301-E308) live in {!module:Precheck} and are raised,
    not collected.  See EXPERIMENTS.md for the full rule catalogue. *)

type rule = {
  code : string;  (** Stable rule code, e.g. ["E102"]. *)
  slug : string;  (** Human-friendly name, e.g. ["comb-cycle"]. *)
  severity : Diagnostic.severity;
  what : string;  (** One-line description of the invariant. *)
  paper : string;  (** Paper section / figure the invariant comes from. *)
  check : Netlist.t -> Diagnostic.t list;
}

(** All registered rules, in code order.  Precheck codes (E3xx) are not
    rules: they guard transformations and never fire on a standing
    netlist. *)
val registry : rule list

(** Find a rule by code or slug (case-insensitive). *)
val find_rule : string -> rule option

type report = {
  diags : Diagnostic.t list;  (** Severity-major, registry order. *)
  rules_run : int;
  gated : bool;
      (** True when structural errors (E001-E004) were found and the
          graph rules were skipped: they assume a well-formed graph. *)
}

(** [run net] executes every enabled rule.  [only] restricts to the given
    codes/slugs; [disable] removes codes/slugs from the enabled set.  If
    any structural error exists (enabled or not) the graph-level rules
    are skipped and [gated] is set. *)
val run : ?only:string list -> ?disable:string list -> Netlist.t -> report

val errors : report -> Diagnostic.t list

val warnings : report -> Diagnostic.t list

val infos : report -> Diagnostic.t list

(** No error-severity findings (warnings and infos allowed). *)
val clean : report -> bool

(** Human-readable report, one line per diagnostic plus a summary. *)
val render : report -> string

(** ["elastic-speculation/lint/v1"]. *)
val schema : string

(** JSONL report in the {!Elastic_metrics.Json.Jsonl} envelope, schema
    {!schema}: a header object (design, sizes, rule and severity
    counts) followed by one object per diagnostic. *)
val jsonl : design:string -> Netlist.t -> report -> string

(** Apply every machine-applicable fix-it in the report (insert-bubble,
    convert-buffer, set-init; [Note]s are skipped).  Returns the patched
    netlist and the number of fixes applied; a fix whose target has
    become stale is skipped. *)
val apply_fixes : Netlist.t -> report -> Netlist.t * int
