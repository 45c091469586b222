(** Campaign-to-task adapters for the {!Runner}.

    {!Elastic_fault.Campaign.run} checks scenarios one after another in
    one process; [of_campaign] turns the same scenario list into one
    {!Runner.task} per scenario so the runner can shard it.  The tasks
    share one {!type:Elastic_fault.Recovery.golden} reference of the shared
    (immutable) netlist; each task runs
    {!Elastic_fault.Recovery.check_against} on it and returns a fresh
    registry snapshot — counters for scenarios, injections and
    per-class recovery outcomes, plus a correction-penalty histogram —
    so the runner's index-order merge reproduces the sequential
    campaign's histogram exactly, at any worker count. *)

(** [of_campaign ~name net ~scenarios] — task ids are
    ["<name>/<index>"] (stable across runs: the checkpoint resume key).
    [cycles] and [alarms] go to [Recovery.golden], [settle] to
    [Recovery.check_against].

    Nothing is simulated here.  The first task to run computes the
    golden reference and publishes it in a domain-safe once-cell that
    every task of this call reads, across runs of the same task list
    too; workers that race compute the same value.  A reference run
    that raises is not cached: each task that needs it retries it and
    fails with the same exception [Recovery.check] raises, and a
    resume that adopts every shard from a checkpoint computes it not
    at all.  With spans on ([Runner.run ~obs]) the task that computed
    it records a [reference-run] span under its attempt, and its
    compile/settle phase spans (from the faulted engine's profile)
    start where that span ends.

    The task body calls [ctx.check_deadline] before each check, so
    shard/campaign wall-clock budgets land between simulations, never
    mid-cycle. *)
val of_campaign :
  ?cycles:int ->
  ?settle:int ->
  ?alarms:
    (Elastic_netlist.Netlist.node_id * (Elastic_kernel.Value.t -> bool))
      list ->
  name:string ->
  Elastic_netlist.Netlist.t ->
  scenarios:Elastic_fault.Fault.t list list ->
  Runner.task list

(** Rebuild a {!Elastic_fault.Campaign.summary}-style histogram
    (classification label -> count, sorted by label) from merged runner
    samples — the equivalence suite compares this against the
    sequential campaign's histogram. *)
val classification_histogram :
  Elastic_metrics.Metrics.sample list -> (string * int) list
