(** Analysis sessions: the model compiled once, analysed many times.

    An engine session binds together everything one analysis run needs —
    the {!Model.t}, the compiled {!Ir.t} (participant sets and
    mixed-radix scenario layouts, built per site on first use), the
    {!Params.t} and the scenario {!Rta.counters} — as one immutable
    value.  Creating the session pays the per-model compilation cost
    once; every subsequent {!analyze} or design-space probe reuses the
    compiled state.

    Sessions are cheap persistent values: {!with_overrides} and
    {!with_model} derive new sessions sharing whatever remains valid
    (the IR survives any model with the same placement and priorities;
    a transaction's scaled constants survive any model where its own
    constants are unchanged).
    An analysis runs on the domain that calls it; independent analyses
    may run concurrently on sessions derived with {!with_model}.

    Reports do not depend on how a session was obtained: a one-shot
    session, a reused one and a rebound one analyse the same model to
    the same report, bit for bit — the IR only reorganises static
    structure, and exact arithmetic does the rest.  The test suite
    asserts this over random workloads. *)

type t
(** One analysis session.  Immutable apart from the counters it
    carries, which are diagnostics.  Analysing the same session twice
    yields identical reports. *)

(** {1 Events}

    Structured progress notifications, emitted to the session's [sink]
    as the analysis runs.  The CLI's [--trace FILE] serialises them with
    {!event_to_json}, one object per line. *)

type event =
  | Compiled of { txns : int; tasks : int; exact_scenarios : int }
      (** Emitted by {!create}: the model was compiled into an IR.
          [exact_scenarios] is {!Ir.exact_scenarios} — the size of the
          scenario space an unpruned exact analysis would face per
          sweep. *)
  | Kernel_compiled of { scale : int }
      (** Emitted by {!create} right after [Compiled] when the integer
          timeline kernel is enabled and the model fits it: analyses
          will run on scaled native ints with denominator [scale]. *)
  | Kernel_fallback of { reason : string }
      (** The integer kernel is enabled but will not (or no longer) be
          used: ["unrepresentable"] at {!create} when the denominator
          LCM or a scaled constant leaves the headroom-checked native
          range, ["overflow"] mid-{!analyze} when checked int arithmetic
          overflowed — the analysis transparently reruns on the rational
          path and the session stops attempting the kernel. *)
  | Analysis_started of { variant : Params.variant }
  | Delta of { dirty : int; total : int; carried : int }
      (** Emitted before every warm plan's run — by {!analyze_delta},
          {!analyze_pinned} and {!analyze_seeded}: [dirty] tasks sit on
          the dirty frontier and will be iterated, [carried] tasks ride
          on their previously converged responses, [total = dirty +
          carried] is the task count of the model.  Followed by the warm
          run's ordinary [Analysis_started] / [Sweep] / [Finished]
          stream (and, on a warm fallback, by a second full cold
          stream). *)
  | Seeded of { distance : Rational.t; iterations : int; saved : int }
      (** Emitted by {!analyze_seeded} after a warm run: the outer fixed
          point was seeded from a converged report at a dominating
          (easier) parameter point at L1 parameter [distance],
          [iterations] outer sweeps were run, and [saved] is the seed
          trajectory length beyond them — a proxy for the cold sweeps
          the warm start skipped (the exact cold count would cost the
          cold run the seeding avoids). *)
  | Sweep of { iteration : int; recomputed : int; carried : int }
      (** One outer Jacobi iteration finished; [recomputed] tasks read
          a dirty row ({!Ir.stale}), [carried] reused their previous
          response. *)
  | Finished of { iterations : int; converged : bool; schedulable : bool }

type sink = event -> unit

val event_to_json : event -> string
(** One-line JSON rendering (no trailing newline), suitable for JSON
    Lines trace files. *)

(** {1 Session construction} *)

val create :
  ?params:Params.t ->
  ?counters:Rta.counters ->
  ?sink:sink ->
  Model.t ->
  t
(** Compile [m] into a session.  [params] defaults to {!Params.default},
    [counters] to a fresh set.
    Emits [Compiled] to [sink], followed — when
    [params.{!Params.int_kernel}] — by [Kernel_compiled] or
    [Kernel_fallback] according to whether the model admits an integer
    timebase ({!Ir.timebase}). *)

val create_system :
  ?params:Params.t ->
  ?counters:Rta.counters ->
  ?sink:sink ->
  Transaction.System.t ->
  t
(** [create] over {!Model.of_system}. *)

val with_overrides :
  ?params:Params.t ->
  ?keep_history:bool ->
  ?counters:Rta.counters ->
  ?sink:sink ->
  t ->
  t
(** Derived session over the same model: absent arguments keep the
    original's values, [keep_history] patches just that field of the
    effective params (the common verdict-only probe:
    [with_overrides e ~keep_history:false]).  The compiled IR is always
    shared: the model is the same by construction. *)

val with_model : t -> Model.t -> t
(** Re-bind the session to another model.  The compiled IR is reused
    when [m] is {!Ir.compatible} — same task placement and priorities,
    the design-space case where only demands or platform bounds moved —
    and recompiled otherwise.

    The rebind aligns [m]'s transactions with the session's current
    model — by position when both share one transaction array, by name
    (first index) otherwise — and finds the clean ones: same period,
    deadline, release jitter, blocking, task chain and platform bounds.
    The scaled tables keep each clean transaction's row, moved exactly
    onto the new lattice when the scale changed, and convert only new
    or changed rows ({!Timebase.of_model} [~carry]), so they equal a
    fresh build.  The session keeps the alignment for
    {!Delta.plan}. *)

(** {1 Accessors} *)

val model : t -> Model.t

val ir : t -> Ir.t
(** The session's compiled IR.  {!with_model} keeps it, physically,
    exactly when the new model is {!Ir.compatible} — long-lived callers
    (the admission-control service) compare [ir] before and after a
    rebind to report how often it recompiled. *)

val params : t -> Params.t

val counters : t -> Rta.counters
(** Cumulative scenario accounting across every analysis this session
    (and sessions derived from it) ran. *)

val memo_stats : t -> Memo.stats option
(** Always [None]: the analysis keeps no interference memo ({!Memo}). *)

val kernel_scale : t -> int option
(** The denominator of the integer timeline this session's analyses run
    on, or [None] when they run on rationals — because the kernel is
    disabled, the model has no representable timebase, or a previous
    analysis overflowed and poisoned the kernel for this session. *)

val timebase : t -> int Timebase.t option
(** The scaled tables the integer timeline reads: {!Timebase.of_model}
    of the session's model under its horizon factor, whether built
    fresh or carried across {!with_model}.  [None] when the kernel is
    disabled or the model has no representable timebase. *)

(** {1 Holistic analysis} *)

val analyze : t -> Report.t
(** The holistic offset-based analysis (Section 3.2): outer Jacobi
    fixed point on the jitters, inner busy-period recurrences per
    scenario, under the session's params, on the calling domain.
    Emits [Analysis_started], one [Sweep] per outer iteration and
    [Finished].  The report is the same for every [prune] and
    [int_kernel] setting.

    The fixed point is the core of {!Fixpoint}, run on {!Fixpoint.Scaled} when
    the session carries an integer timebase (see {!kernel_scale}) —
    scaled native ints, converted back to rationals at the report
    boundary — and on {!Fixpoint.Exact} otherwise: same sweeps, same
    events, same report, bit for bit.  A checked-arithmetic overflow
    mid-run aborts the scaled run, emits [Kernel_fallback], bumps
    {!Rta.kernel_fallbacks} and transparently reruns on
    {!Fixpoint.Exact}; later analyses on this session skip the kernel.
    @raise Rational.Overflow when the exact rationals overflow native
    ints too. *)

(** {1 Delta re-analysis}

    {!analyze} pays a full outer fixed point — every task recomputed
    from the bottom — even when the session's model differs from a
    previously analysed one by a single admitted or revoked fragment.
    {!analyze_delta} instead diffs the two models into a changed
    transaction set, closes it under the rows each site reads
    ({!Ir.dirty_closure}), pins every clean transaction's jitter row
    and responses at the previous converged values and iterates only
    the dirty frontier — O(affected) instead of O(system), with the
    same report bit for bit.  Design, convergence argument and fallback
    conditions: docs/INCREMENTAL.md. *)

type delta_outcome =
  | Delta_warm of { dirty : int; total : int; carried : int }
      (** The warm fixed point converged; [carried] of [total] tasks
          reused their previous responses without recomputation. *)
  | Delta_cold of { reason : string }
      (** The analysis ran cold.  [reason] is one of
          ["previous-not-converged"], ["refined-best-case"], ["history-requested"], ["all-dirty"]
          (planning refused) or ["warm-not-converged"] (the warm run
          early-exited or hit the iteration cap and was rerun cold). *)

(** The planning half of {!analyze_delta}, exposed for tests and
    benchmarks that want to inspect the dirty frontier without running
    the analysis. *)
module Delta : sig
  type plan

  val plan :
    t -> prev_model:Model.t -> prev_report:Report.t -> (plan, string) result
  (** Align [prev_model]'s transactions with the session's — with the
      alignment {!with_model} made when [prev_model] is the model the
      session was rebound from, computed the same way otherwise — seed
      the changed ones (different period, deadline, jitter, blocking,
      task chain or platform bounds — plus every survivor whose sites
      read a removed transaction's row), and close the seed with
      {!Ir.dirty_closure}.  Clean transactions carry their
      [prev_report] rows.  [Error reason] when warm analysis is
      unsound or pointless — the [Delta_cold] reasons above, except
      ["warm-not-converged"]. *)

  val warm : plan -> Timeline.warm
  (** The warm start the plan runs: the dirty rows, the seed jitters
      and responses, and the previous report's rows of the clean
      transactions. *)

  val dirty_tasks : plan -> int
  (** Tasks on the dirty frontier (to be iterated). *)

  val total_tasks : plan -> int
  (** Task count of the session's model. *)
end

val analyze_delta :
  t -> prev_model:Model.t -> prev_report:Report.t -> Report.t * delta_outcome
(** {!analyze}, warm-started from a previous converged analysis.
    [prev_report] must be the report of analysing [prev_model] (any
    converged pair works — it does not have to be the session's own
    history).  The returned report is bit-identical to [analyze t] in
    [results], [converged] and [schedulable]; [outer_iterations] (and
    [history], were it kept — warm plans require
    [params.keep_history = false]) count the warm run's shorter
    trajectory.  Emits [Delta] before a warm run; plans that fail and
    warm runs that do not converge fall back to the cold path
    transparently ({!Rta.delta_fallbacks}).  On a kernel session the
    warm start is scaled onto the integer timeline when the previous
    values lie on its lattice, and runs on exact rationals otherwise.
    @raise Rational.Overflow like {!analyze}. *)

(** {1 Probe analysis}

    {!analyze_delta} warms the fixed point across *model edits* at a
    fixed parameter point; design probes move the *parameter point* of
    one structure — platform bounds and demands — and have two warm
    starts, both planned by {!Seeded.plan}:

    - {b pinned} ({!analyze_pinned}): against any converged report of
      the same structure, every transaction whose own constants are
      unchanged, whose converged jitters are its cold starting ones
      (the release jitter on the first task, 0 on the others) and whose
      sites read only such transactions keeps its report row; the rest
      iterate from bottom.  A pinned row sits at its fixed point from a
      cold run's first sweep on, so the run {e is} the cold run —
      results, convergence, verdict and iteration count — and never
      reruns.  A probe that moves one platform re-iterates only what
      that platform's change can reach.
    - {b seeded} ({!analyze_seeded}): a converged report at a point
      that {e dominates} the target (per-resource rate ≥, delay ≤,
      burstiness equal; per-task demands no larger, the worst case
      shrinking at least as much as the best case) lies pointwise below
      the target's least fixed point, so its jitters are a sound Kleene
      seed for the rows the pinned rule does not keep: the warm
      iterates are squeezed between the cold iterates and the fixed
      point.  Lemma and proof: docs/THEORY.md. *)

(** The dominance tests and the probe planner, exposed for the
    {!Regions.Probe_ladder} (which indexes converged probes by
    dominance) and for tests. *)
module Seeded : sig
  val dominates : seed:Model.t -> Model.t -> bool
  (** [dominates ~seed target]: same structure (transactions, chains,
      placement, priorities, periods, deadlines, jitters, blocking) and
      [seed] is coordinatewise easier — per resource α ≥, Δ ≤, β equal
      (the verdict is not monotone in β: a larger burstiness grows the
      jitters); per task Cb no larger and C shrinking by at least as
      much as Cb.  Reflexive. *)

  val gap : seed:Model.t -> Model.t -> Rational.t
  (** L1 gap between the two parameter points (bounds and demands),
      assuming [dominates ~seed] already holds (meaningless otherwise).
      The ladder picks the nearest dominating seed — fewest warm sweeps
      to close the gap. *)

  val plan :
    t ->
    base_model:Model.t ->
    base_report:Report.t ->
    seeded:bool ->
    (Delta.plan, string) result
  (** The warm start of a probe of the session's model against a
      converged analysis of [base_model], aligned by position: a
      transaction is dirty when its own constants differ from
      [base_model]'s (period, deadline, release jitter, blocking, task
      chain or the bounds of its platforms) or its [base_report]
      jitters are not its cold starting ones, and the set is closed
      with {!Ir.dirty_closure}; every other row is pinned at its
      [base_report] row.  Unseeded, the dirty rows start from bottom;
      [seeded], from [base_report]'s jitters rounded down onto the
      integer lattice ([base_model] must dominate the session's
      model).  [Error reason] when the plan would be unsound or
      pointless: ["reference-not-converged"] / ["seed-not-converged"],
      ["refined-best-case"], ["history-requested"],
      ["reference-structure-mismatch"] /
      ["seed-structure-mismatch"], ["seed-not-dominating"], and
      ["all-dirty"] for an unseeded plan that pins nothing. *)
end

val analyze_pinned :
  t ->
  reference_model:Model.t ->
  reference_report:Report.t ->
  Report.t * delta_outcome
(** {!analyze} with the rows the change from a converged reference
    cannot reach pinned ({!Seeded.plan} unseeded).  The report is
    [analyze t]'s bit for bit — [results], [converged], [schedulable]
    and [outer_iterations], whether or not the run converges — so a
    warm run is never rerun cold; only the [Delta] event, the [Sweep]
    counts and the scenario counters show the carry.  A plan that
    refuses runs cold ([Delta_cold] with the plan's reason).  Counted by
    {!Rta.delta_runs}.
    @raise Rational.Overflow like {!analyze}. *)

val analyze_seeded :
  ?verdict_only:bool ->
  t ->
  seed_model:Model.t ->
  seed_report:Report.t ->
  Report.t * delta_outcome
(** {!analyze}, warm-started from a converged analysis of a dominating
    parameter point.  Planning refuses — and the call transparently
    runs cold, returning [Delta_cold] with reason
    ["seed-not-converged"], ["refined-best-case"],
    ["history-requested"], ["seed-structure-mismatch"] or
    ["seed-not-dominating"] — whenever the squeeze argument does not
    apply; a non-dominating seed is never silently used.  A warm run
    pins what {!Seeded.plan} pins and starts every other row from the
    seed's jitters, rounded *down* onto the integer lattice on a kernel
    session (pinned rows hold their cold starting values, already on
    it); it emits [Delta] before the run and [Seeded] after it (the
    seed distance and iterations saved).  Pinned rows are at their
    fixed point from the first sweep, so the run is the one that
    iterates every row from the seed.  A converged warm run returns the
    cold report bit for bit ([Delta_warm]).  A warm run that does not
    converge is rerun cold ([Delta_cold "warm-not-converged"]) —
    unless [verdict_only] is set, in which case the warm report is
    returned as-is: its [schedulable] verdict is provably the cold
    verdict (a warm early exit overran a deadline the fixed point also
    overruns; a warm iteration cap implies the cold cap), but its
    response iterates are only cold-identical when [converged].
    Boolean probes ({!Design.Param_search} bisection) use
    [verdict_only]; report-returning probes (region corner samples)
    use the default.  Counted by {!Rta.delta_runs} /
    {!Rta.delta_fallbacks} alongside delta re-analysis. *)

(** {1 Classical baselines}

    The classical and EDF tests model independent single-task
    transactions on one platform; these views select exactly those
    transactions of the session's model whose only task runs on
    [resource], with the platform bound and horizon of the session. *)

val classical : t -> resource:int -> (Classical.task * Report.bound) list
(** {!Classical.response_times} over the session's single-task
    transactions on [resource]. *)

val classical_schedulable : t -> resource:int -> bool

val edf_schedulable : t -> resource:int -> bool
(** {!Edf.schedulable} over the same view (priorities ignored). *)
