(** Analysis configuration.

    There are no other switches: the outer fixed point always carries
    clean tasks forward between sweeps, stops at the first deadline miss
    under the [Simple] best case and gives up after a fixed number of
    sweeps ({!Fixpoint.Scaled.analyze}); an analysis always runs on the
    domain that calls it; design-space probes always go through a
    {!Regions.Probe_ladder}. *)

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
  prune : bool;
      (** Branch-and-bound pruning of the exact scenario enumeration
          ({!Fixpoint}): sub-spaces of the mixed-radix scenario
          product whose optimistic bound (fixed digits at their actual
          demand, free digits at the scenario maximum W{^*}) cannot beat
          the best response found so far are skipped.  Pruning only discards
          scenarios provably ≤ the running maximum, so the returned
          bound is the exact same rational — reports are bit-identical
          (asserted by the test suite and bench X10).  No effect on the
          [Reduced] variant.  Off, the enumeration is exhaustive: the
          reference the identity tests and bench X10 compare against. *)
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
          mid-analysis case).  Off, every analysis runs on
          {!Fixpoint.Exact}: the reference the identity tests compare
          against. *)
}

val default : t
(** [Reduced], [Simple], horizon factor 64, pruning on, history kept,
    integer kernel on. *)

val exact : t
(** [default] with [variant = Exact]. *)
