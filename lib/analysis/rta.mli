(** Scenario accounting for the worst-case response-time analysis of
    one task under static offsets and jitters (Sections 3.1.1 and 3.1.2,
    extended to abstract platforms by Section 3.2).

    The analysis itself is {!Fixpoint.Scaled.analyze}: it examines the
    busy periods started by every scenario —

    - {!Params.Exact}: one scenario per combination of initiating tasks
      across all transactions with interfering tasks (Eq. 12);
    - {!Params.Reduced}: scenarios range over the task's own transaction
      only, remote transactions contribute their scenario maximum W{^*}
      (Eq. 15–16)

    — with the exact enumeration pruned by branch and bound (see
    {!Params.prune} and docs/THEORY.md).  This module counts scenarios
    for benchmarks, tests and the CLI. *)

(** Scenario accounting, shared by benchmarks and the CLI.  One unit is
    one remote scenario vector ν of Eq. 12 ([Reduced] counts 1 per
    call).  The counts are cumulative across calls and safe to read
    concurrently; they are diagnostics only — never part of a
    {!Report.t} — because the visited/pruned split depends on the
    pruning switch even though the reported bounds do not. *)
type counters

val counters : unit -> counters
(** A fresh set of zeroed counters. *)

val total_scenarios : counters -> int
(** Scenario units in the spaces examined so far (visited or not). *)

val visited_scenarios : counters -> int
(** Scenario units actually evaluated ([<= total_scenarios] with
    pruning, [= total_scenarios] without).  With pruning, a visited
    scenario evaluates only the own initiators whose bound in the
    enclosing blocks can still beat the incumbent (docs/THEORY.md). *)

val pruned_scenarios : counters -> int
(** Scenario units discarded by a bound test.  Every unit of a pruned
    enumeration is visited or pruned (the scenario a search evaluates
    first, its seed or hint, is counted visited even when its block is
    pruned afterwards). *)

val bound_evaluations : counters -> int
(** Optimistic block bounds computed (the overhead side of pruning). *)

type scenario_counter = Total | Visited | Pruned | Bounds

val record : counters -> scenario_counter -> int -> unit
(** Add to one of the scenario counts above (bumped by the site
    analysis; safe from any domain). *)

val kernel_runs : counters -> int
(** Analyses the engine started on the integer timeline
    ({!Fixpoint.Scaled}), whether or not they completed there. *)

val kernel_fallbacks : counters -> int
(** Kernel analyses aborted by a mid-analysis overflow and rerun on
    {!Fixpoint.Exact}.  Always [<= kernel_runs]. *)

val record_kernel_run : counters -> unit
(** Bumped by {!Engine.analyze} when it enters the kernel path. *)

val record_kernel_fallback : counters -> unit
(** Bumped by {!Engine.analyze} when a kernel run overflows. *)

val delta_runs : counters -> int
(** Warm delta analyses ({!Engine.analyze_delta}) that were planned and
    started — the previous converged point was carried across and only
    the dirty frontier iterated. *)

val delta_fallbacks : counters -> int
(** Warm delta runs that did not converge cleanly and were rerun on the
    cold path.  Always [<= delta_runs]. *)

val record_delta_run : counters -> unit
(** Bumped by {!Engine.analyze_delta} when a warm plan is executed. *)

val record_delta_fallback : counters -> unit
(** Bumped by {!Engine.analyze_delta} when a warm run falls back. *)

val scenario_count : Model.t -> Params.t -> a:int -> b:int -> int
(** Number of scenarios the chosen variant examines for task [(a, b)]
    (Eq. 12 for [Exact]; [N_a + 1] for [Reduced]). *)
