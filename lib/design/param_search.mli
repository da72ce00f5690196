(** Platform parameter synthesis — the optimisation problem the paper
    leaves as future work (Section 5): "the search for the optimal
    platform parameters would allow a better utilization of the
    resources".

    A {!family} ties the free rate α to the full (α, Δ, β) triple of a
    concrete reservation mechanism (e.g. a periodic server of fixed
    period: shrinking the budget both lowers the rate and lengthens the
    delay).  Schedulability is monotone along a family — more rate and
    less delay never hurt — so minimal rates are found by bracketing
    search on a dyadic grid, and a whole system is optimised by
    coordinate descent across its platforms.

    Every search runs its probe analyses through one
    {!Analysis.Engine} session: the probes only rebind demands or
    platform bounds, never task placement or priorities, so the
    compiled IR is shared across the entire search
    ({!Analysis.Engine.with_model}).  Pass [engine] to reuse a session
    you already hold — it must be a session over the given system's
    model; its parameters are adopted (history is forced off for the
    probes, which only read the verdict).  Without [engine], a fresh
    probe session is built from [params].

    The bracketing searches bisect sequentially on the calling domain,
    one probe analysis per step: a search's probe sequence, and so its
    answer, is fixed by the system, the precision and the ladder it runs
    through, never by the host's core count.

    Every boolean probe runs through a {!Regions.Probe_ladder}:
    converged probes at dominating (easier) parameter points certify or
    warm-seed later ones, with verdicts bit-identical to cold probes
    (docs/PERFORMANCE.md, bench X17).  Pass [ladder] to share one store
    across several searches over the same system — the region + query
    workload of bench X17 — or leave it out for a private, per-search
    ladder. *)

type family = {
  describe : string;
  bound_of_rate : Rational.t -> Platform.Linear_bound.t;
}

val periodic_server_family : period:Rational.t -> family
(** A server granting [α·P] every [P]: Δ = 2P(1−α), β = 2αP(1−α). *)

val fixed_latency_family : delta:Rational.t -> beta:Rational.t -> family
(** Only the rate varies; delay and burstiness stay fixed (the abstract
    setting of the paper's Table 2). *)

val probe_engine :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  Transaction.System.t ->
  Analysis.Engine.t
(** The probe session every search here (and {!Sensitivity}) runs on:
    [engine] with [params] when given, else a fresh session over the
    system, with the history off either way. *)

val schedulable_with :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  ?ladder:Regions.Probe_ladder.t ->
  Transaction.System.t ->
  bounds:Platform.Linear_bound.t array ->
  bool
(** Schedulability of the system with its platform bounds replaced. *)

val min_rate :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  ?ladder:Regions.Probe_ladder.t ->
  ?precision:int ->
  Transaction.System.t ->
  resource:int ->
  family:family ->
  Rational.t option
(** Least rate on the grid [k/2{^precision}] (default precision 10) that
    keeps the system schedulable when platform [resource] is realised by
    [family], other platforms unchanged.  [None] if even rate 1 fails. *)

val minimize_rates :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  ?ladder:Regions.Probe_ladder.t ->
  ?precision:int ->
  Transaction.System.t ->
  families:family array ->
  Rational.t array option
(** Coordinate descent: repeatedly shrinks each platform's rate to its
    current minimum until a fixed point.  Returns the per-platform rates,
    or [None] when the system is unschedulable even at full rates.  The
    result is a local optimum of Σα (the joint problem is not convex). *)

val balance_rates :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  ?ladder:Regions.Probe_ladder.t ->
  ?precision:int ->
  Transaction.System.t ->
  families:family array ->
  Rational.t array option
(** Like {!minimize_rates} but shrinks all platforms together, one grid
    step at a time in round-robin, so no platform is starved by another
    being minimised first.  Slower (one analysis per step) but finds
    substantially more balanced optima on coupled systems; the default
    [precision] is 6. *)

val breakdown_utilization :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  ?ladder:Regions.Probe_ladder.t ->
  ?precision:int ->
  Transaction.System.t ->
  Rational.t
(** Largest factor on the grid by which every execution demand can be
    scaled while the system stays schedulable — the classical
    breakdown-utilisation metric.  Below 1 when the system is not
    schedulable as given; capped at 64. *)

val max_delta :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  ?ladder:Regions.Probe_ladder.t ->
  ?precision:int ->
  ?limit:Rational.t ->
  Transaction.System.t ->
  resource:int ->
  Rational.t option
(** Largest delay Δ the given platform tolerates (rate and burstiness
    unchanged) while the system stays schedulable; searched on the dyadic
    grid up to [limit] (default: the largest transaction deadline).
    [None] when the system is unschedulable as given. *)

(** {1 Region-backed mode}

    Instead of one bisection (≈ [precision] analyses) per question,
    compute platform [resource]'s whole (α, Δ) schedulability region
    once ({!Regions.Cell}) and answer any number of membership,
    min-rate or max-delay questions from it — O(tree depth) or O(log)
    per answer, with a probe fallback inside uncertified boundary
    slivers that keeps every answer exact.  Bench X16 gates the
    crossover: one region build plus 100 queries beats 100
    bisections by ≥ 5×. *)

type region_mode = {
  cells : Regions.Cell.t;
  frontier : Regions.Frontier.t;  (** certified Pareto staircase *)
  refined : Regions.Frontier.point list;
      (** affine-predicted frontier vertices (reported, never used to
          answer queries) *)
  region_probe : alpha:Rational.t -> delta:Rational.t -> bool;
      (** one analysis at an explicit point, on the shared session *)
  ladder : Regions.Probe_ladder.t;
      (** the probe ladder the build (and every later
          [region_member]/[region_probe] fallback) runs through;
          {!Regions.Probe_ladder.stats} reports its hit/seed counts *)
}

val region :
  ?engine:Analysis.Engine.t ->
  ?params:Analysis.Params.t ->
  ?ladder:Regions.Probe_ladder.t ->
  ?precision:int ->
  ?limit:Rational.t ->
  ?sink:(Regions.Cell.event -> unit) ->
  Transaction.System.t ->
  resource:int ->
  region_mode
(** Build the region of platform [resource] over
    [α ∈ \[2{^-precision}, 1\] × Δ ∈ \[0, limit\]] (precision defaults
    to 6, [limit] to the largest transaction deadline), with the
    platform's β held at its current value.  Probes share one engine
    session exactly like the bisection searches. *)

val region_member : region_mode -> alpha:Rational.t -> delta:Rational.t -> bool
(** Is the system schedulable with [resource] at [(alpha, delta)]?
    Certified cells answer without analysis; boundary points run one
    probe.  Agrees with a cold analysis at every point. *)

val region_max_delta : region_mode -> alpha:Rational.t -> Rational.t option
(** Largest certified-feasible Δ at [alpha] ({!Regions.Frontier.max_delta}):
    within one cell width below {!max_delta}'s bisection answer. *)

val region_min_alpha : region_mode -> delta:Rational.t -> Rational.t option
(** Smallest certified-feasible α at [delta]; within a cell width of
    {!min_rate}'s bisection answer (the two grids differ: the region
    spans [α ∈ \[2{^-precision}, 1\]], the bisection [k/2{^precision}],
    so either side may certify the finer point). *)
