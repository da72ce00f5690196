(** Exact (α, Δ) schedulability regions as adaptive cell trees.

    The region of a platform is the set of supply parameters (rate α,
    delay Δ, burstiness β fixed) under which every transaction keeps its
    deadline.  Schedulability is antitone in (α⁻¹, Δ) — every response
    bound of the analysis is affine with nonnegative coefficients in
    those coordinates per scenario structure, and least fixed points of
    monotone maps preserve the ordering ({!Symbolic}, docs/REGIONS.md) —
    so a whole rectangle is classified by two probe analyses:

    - worst corner (a_lo, d_hi) schedulable ⇒ the cell is [Feasible];
    - best corner (a_hi, d_lo) unschedulable ⇒ the cell is [Infeasible];
    - otherwise the deadline frontier crosses the cell: subdivide at the
      midpoints, down to the grid [precision].

    Cells still mixed at full depth are [Boundary]: for those the
    builder reconstructs each transaction's slack [R − D] as an affine
    form from three corner samples and validates it on the fourth
    ({!Symbolic.fit}); when every transaction validates, the cell
    carries the exact half-plane constraints of the frontier inside it.
    Classification of query points never trusts the reconstruction:
    {!member} answers certified cells in O(tree depth) and falls back to
    one probe analysis inside boundary cells, so region answers agree
    with a cold analysis at every point, by construction.

    Probes are memoized by exact parameter point — corners are shared
    between up to four neighbouring cells — and every probe reuses one
    engine session via {!Analysis.Engine.with_model} (only the platform
    bound array changes, so the compiled IR stays warm). *)

module Q = Rational

type verdict = Feasible | Infeasible | Boundary

type constraint_ = { c_txn : string; c_slack : Symbolic.t }
(** Validated affine slack of transaction [c_txn]: the cell's points
    with [c_slack ≤ 0] for every constraint are exactly the schedulable
    ones, under the validated-reconstruction assumption. *)

type leaf = {
  l_box : Symbolic.box;
  l_verdict : verdict;
  l_constraints : constraint_ list;
      (** non-empty only for [Boundary] leaves whose reconstruction
          validated on all four corners *)
}

type stats = {
  cells : int;  (** leaves in the tree *)
  feasible : int;
  infeasible : int;
  boundary : int;
  refined : int;  (** boundary leaves with validated constraints *)
  probes : int;  (** analyses actually run *)
  probe_hits : int;  (** corner samples served by the memo *)
}

type t

val resource : t -> int
val beta : t -> Q.t
val precision : t -> int
val domain : t -> Symbolic.box
val stats : t -> stats

type sample = {
  s_schedulable : bool;
  s_slacks : (string * Q.t option) list;
      (** per transaction: last-task response minus deadline, [None]
          when the response diverged *)
}

type event =
  | Probed of { alpha : Q.t; delta : Q.t; schedulable : bool }
  | Classified of { box : Symbolic.box; verdict : verdict; refined : bool }
  | Built of { cells : int; probes : int }

val event_to_json : event -> string
(** One-line JSON rendering for JSON Lines trace files. *)

val sample_of_report : Analysis.Model.t -> Analysis.Report.t -> sample
(** Reduce a report over [model] to the verdict and per-transaction
    slacks a corner sample carries.  The report must be *cold-exact*
    for its point (a plain {!Analysis.Engine.analyze} or a
    {!Probe_ladder.analyze}): boundary refinement fits the slack
    iterates of non-converged corners too. *)

val build :
  ?sink:(event -> unit) ->
  ?precision:int ->
  sample:(alpha:Q.t -> delta:Q.t -> sample) ->
  resource:int ->
  beta:Q.t ->
  limit:Q.t ->
  unit ->
  t
(** Build the region over [α ∈ \[2{^-precision}, 1\] × Δ ∈ \[0, limit\]]
    (default precision 6).  [sample] is memoized by exact point; the
    builder never probes the same corner twice.  Cells are walked
    breadth-first with each generation in dominance order — lowest
    [d_lo] first, highest [a_hi] breaking ties, i.e. easiest box first
    — so a warm-seeding [sample] (a {!Probe_ladder}) meets easier
    points before the harder points they can seed.  The order does not
    affect the result: verdicts, counts and the tree are those of any
    other walk. *)

val classify : t -> alpha:Q.t -> delta:Q.t -> verdict
(** O(tree depth) lookup.  Points outside the built domain are
    [Boundary] (uncertified). *)

val predicted : t -> alpha:Q.t -> delta:Q.t -> bool option
(** The validated-constraint prediction inside a refined boundary cell;
    [None] when the point's cell is certified or carries no validated
    constraints. *)

val member : t -> probe:(alpha:Q.t -> delta:Q.t -> bool) -> alpha:Q.t -> delta:Q.t -> bool
(** Certified answer where the tree has one, one [probe] otherwise —
    exact everywhere. *)

val fold_leaves : t -> init:'a -> f:('a -> leaf -> 'a) -> 'a
