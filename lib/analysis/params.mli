(** Analysis configuration. *)

type variant =
  | Exact
      (** Section 3.1.1: every scenario vector ν is examined.  Complexity
          is the product of the interfering-task counts per transaction —
          exponential; reserve for small systems and for validating the
          reduced analysis. *)
  | Reduced
      (** Section 3.1.2: interference of remote transactions is upper
          bounded by the scenario maximum W{^*}; only the scenarios of
          the task's own transaction are enumerated.  Polynomial and
          never less pessimistic than {!Exact}. *)

type best_case =
  | Simple
      (** The paper's formula: sum of best-case computation times
          [max 0 (Cb/α − β)] of the preceding tasks. *)
  | Refined
      (** Redell-style lower bound that also counts interference that is
          guaranteed under zero release jitter of the interferers.  Meant
          for comparison experiments; see {!Best_case}. *)

type t = {
  variant : variant;
  best_case : best_case;
  horizon_factor : int;
      (** Busy periods longer than [horizon_factor * max period deadline]
          of the transaction under analysis are declared divergent. *)
  max_outer_iterations : int;
      (** Cap on the dynamic-offset fixed-point iterations (Section 3.2). *)
  early_exit : bool;
      (** Stop the outer iteration as soon as some transaction's
          end-to-end response exceeds its deadline.  Responses grow
          monotonically with the jitters, so the unschedulable verdict is
          already decided; the remaining iterations would only refine the
          numbers of a failing system (sometimes very slowly).  Reports
          produced by an early exit carry [converged = false]. *)
  prune : bool;
      (** Branch-and-bound pruning of the exact scenario enumeration
          ({!Fixpoint.Make}): sub-spaces of the mixed-radix scenario
          product whose optimistic bound (fixed digits at their actual
          demand, free digits at the scenario maximum W{^*}) cannot beat
          the best response found so far are skipped.  Pruning only discards
          scenarios provably ≤ the running maximum, so the returned
          bound is the exact same rational — reports are bit-identical
          (asserted by the test suite and bench X10).  No effect on the
          [Reduced] variant.  Disable only to benchmark the pruning
          itself. *)
  incremental : bool;
      (** Incremental outer fixed point ({!Engine.analyze}): between Jacobi
          sweeps, only tasks whose interference inputs (the jitter or
          offset row of some transaction in their dependency set) changed
          are recomputed; the rest carry their previous response forward.
          The recurrence is the same function of the same rows, so the
          iterates — and hence convergence, history and the final fixed
          point — are unchanged.  Disable only for benchmarking. *)
  keep_history : bool;
      (** Record the per-iteration jitter/response matrices in
          {!Report.t.history} (the paper's Table 3).  Design-space and
          sensitivity loops discard the history, so they run their
          probe analyses with [keep_history = false] and skip the
          per-sweep deep copies.  [Report.t.history] is [[]] when
          off. *)
  int_kernel : bool;
      (** Run the fixed-point core on the integer timeline
          ({!Fixpoint.Scaled}) when the model admits one ({!Timebase}):
          scaled native ints, converted back to rationals only at report
          boundaries.  Values on the integer timeline are exact, so
          reports are bit-identical to {!Fixpoint.Exact} (asserted by
          the test suite and bench X12); models whose timeline does not
          fit native ints — or that overflow mid-analysis — silently run
          exact instead ({!Rta.kernel_fallbacks} counts the
          mid-analysis case).  Disable only to benchmark the kernel
          itself. *)
  steal : bool;
      (** Let the domain pool's range scheduler steal blocks of the
          exact scenario enumeration between slots
          ({!Parallel.Pool.run_ranges}): a slot whose chunk was pruned
          away takes half of the largest remaining chunk instead of
          idling.  The enumeration joins scenario maxima commutatively
          over exact values, so the block geometry never changes the
          report — reports are bit-identical with stealing on or off
          (asserted by the test suite and bench X14).  Disable only to
          benchmark the scheduler itself. *)
  warm_probes : bool;
      (** Let design-space probe sweeps ({!Design.Param_search},
          {!Design.Sensitivity}, {!Regions.Cell} builds) seed each
          probe's outer fixed point from the nearest previously
          converged probe at a dominating (easier) parameter point,
          through {!Engine.analyze_seeded} and a
          {!Regions.Probe_ladder}.  A dominated seed lies pointwise
          below the target's least fixed point, so the warm iteration
          converges to the same fixed point — verdicts and converged
          reports are bit-identical to cold probes (asserted by the
          test suite and bench X17).  Plain {!Engine.analyze} calls
          ignore this switch.  Disable only to benchmark the ladder
          itself ([--no-warm-probes] on the CLI). *)
}

val default : t
(** [Reduced], [Simple], horizon factor 64, at most 256 outer
    iterations, early exit on, pruning on, incremental
    sweeps on, history kept, integer kernel on, work stealing on, warm
    probes on. *)

val exact : t
(** [default] with [variant = Exact]. *)
