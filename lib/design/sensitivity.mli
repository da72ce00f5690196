(** Sensitivity analysis: how much slack each part of a schedulable
    system has, and which parts break first under growth.

    Probe analyses run through one {!Analysis.Engine} session per
    search (scaling probes rebind demands only, so the compiled IR is
    shared throughout).  Pass [engine] to reuse a session you already
    hold — it must be a session over the given system's model; its
    parameters are adopted.  Without [engine], a fresh session is built
    from [params].

    Scaling probes run through a {!Regions.Probe_ladder} — probes along
    one task's factor axis form a dominance chain, so the bisection's
    points certify and warm-seed each other with bit-identical verdicts
    (see {!Design.Param_search}).  [ladder] shares a store across calls;
    {!all_task_margins} shares one over all its per-task searches. *)

type task_margin = {
  txn : int;
  task : int;
  name : string;
  factor : Rational.t;
      (** largest factor this task's WCET tolerates, others fixed
          (capped at 64) *)
}

val task_scaling :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  ?ladder:Regions.Probe_ladder.t ->
  ?precision:int ->
  Transaction.System.t ->
  txn:int ->
  task:int ->
  Rational.t
(** Largest dyadic factor by which the WCET (and proportionally the
    BCET) of one task can be multiplied while the whole system stays
    schedulable; below 1 when the system is already infeasible.  Capped
    at 64. *)

val all_task_margins :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  ?precision:int ->
  Transaction.System.t ->
  task_margin list
(** {!task_scaling} for every task, sorted most-critical (smallest
    factor) first. *)

val transaction_slack :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  Transaction.System.t ->
  (string * Analysis.Report.bound * Rational.t) list
(** Per transaction: name, end-to-end response bound, and deadline;
    slack is [deadline - response] when finite.  Unlike the probe-based
    searches, this keeps the session's full parameters (including
    history). *)

val pp_margins : Format.formatter -> task_margin list -> unit
