(** Dominance-indexed store of converged probe analyses.

    Design-space sweeps ({!Design.Param_search} bisection and
    descent, {!Design.Sensitivity} scaling searches, {!Cell} region
    builds) analyse hundreds of models that differ only in platform
    bounds or demands.  The ladder keeps the Pareto frontiers of the
    probes already answered — the hardest points found schedulable and
    the easiest found unschedulable — and serves later probes from
    them, three ways, all exact:

    - {b certificates}: verdict monotonicity under dominance — a probe
      dominated by a stored infeasible point is infeasible, a probe
      dominating a stored feasible point is feasible — answers boolean
      probes with zero analyses;
    - {b seeding}: otherwise the nearest stored report at a dominating
      (easier) point warms the probe's outer fixed point through
      {!Engine.analyze_seeded};
    - {b pinned}: no usable neighbour — the probe runs against the
      ladder's {e reference}, the most recent converged probe, through
      {!Engine.analyze_pinned}: every transaction the platform change
      cannot reach keeps the reference's row and the rest iterate from
      bottom, which is the cold run bit for bit.  Only the first probe
      of a ladder (or one after a run of non-converged probes, or of
      another structure) runs plain {!Engine.analyze}.  Seeded runs
      pin the same rows against their seed.

    Verdicts and converged reports are bit-identical to cold probes in
    every case (asserted by the test suite and bench X17); only the
    work to reach them changes.  The reference is one model and one
    report, replaced under the ladder's lock: any converged report of
    the same structure is an exact reference, so which probe wrote it
    last only changes how much a later probe pins.  Callers order their probe batches
    easiest-first (dominance order) so each probe finds its
    predecessors already stored.

    Entries dominated in their store's direction are pruned on insert:
    everything they could certify or seed, their dominator certifies or
    seeds at least as well (the L1 seed distance is additive along the
    dominance order, so the nearest dominating seed always survives).
    The scans therefore stay proportional to the frontier staircase,
    not to the number of probes run — the ladder pays for itself even
    on workloads whose cold analysis takes only microseconds.

    One domain drives a ladder: the design searches probe sequentially
    on the calling domain, and a serving shard builds regions on its
    own domain (the store keeps its mutex all the same).  Under a
    monotone predicate the answers are order-independent.  Under a
    non-monotone one — the analysis' verdict is not always monotone in
    the platform parameters (ROADMAP item 1) — a certificate can answer
    a probe that a cold analysis would answer otherwise, so an answer
    can depend on which probes the ladder stored before it. *)

type t

type stats = {
  probes : int;  (** Probes answered, by any path. *)
  seeded : int;  (** Probes answered by a warm seeded run. *)
  cold : int;
      (** Probes answered by an unseeded analysis: cold, or pinned
          against the reference — the cold run bit for bit. *)
  cert_feasible : int;  (** Feasibility certificates (zero analyses). *)
  cert_infeasible : int;  (** Infeasibility certificates. *)
  entries : int;
      (** Points on the two stored Pareto frontiers (feasible +
          infeasible). *)
}

val create : ?enabled:bool -> unit -> t
(** A fresh empty ladder.  [~enabled:false] makes both probe entry
    points plain cold passthroughs that still count {!stats} — the cold
    reference the tests and benches X16/X17 compare against. *)

val schedulable : t -> Analysis.Engine.t -> Analysis.Model.t -> bool
(** Boolean probe: the verdict of analysing [m] on a session derived
    from [engine] ({!Analysis.Engine.with_model}).  Certificates first,
    then verdict-only seeding, then a pinned run against the reference.
    Always the cold verdict. *)

val analyze : t -> Analysis.Engine.t -> Analysis.Model.t -> Analysis.Report.t
(** Report probe: the full report of analysing [m], bit-identical to
    cold ({!Analysis.Engine.analyze_seeded} in default mode reruns cold
    whenever the warm run does not converge; a pinned run is the cold
    run).  Never answered by certificate: a feasibility-certified probe
    is seeded, any other runs pinned against the reference.  Used where
    iterate values are consumed — region corner slacks. *)

val stats : t -> stats
