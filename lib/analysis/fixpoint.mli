(** The fixed-point core of the holistic analysis (Section 3), written
    once and compiled once per numeric domain.

    The core holds every recurrence: the compiled demand kernels of
    Eqs. 7–11, the busy-period fixed point of
    Eqs. 13–16, the simple and refined best cases, the response time of
    one site (reduced, exhaustive exact, and branch-and-bound exact),
    and the outer Jacobi iteration on the dynamic offsets with
    incremental sweeps and warm starts.  Its source (fixpoint_core.ml
    and .mli, written over a module [N : Timeline.S]) is not a module of
    its own: the build writes it into one compilation unit per domain,
    with that domain's arithmetic defined as [N] in front of it
    (lib/analysis/dune), so each instance calls its arithmetic directly
    instead of through a functor argument.  The two instances are
    {!Exact} on rationals and {!Scaled} on overflow-checked scaled ints.
    Every step of one is the image of the other's under v ↦ v·scale, so
    both return the same report bit for bit; {!Engine} runs {!Scaled}
    and falls back to {!Exact} when the model leaves native-int
    range. *)

module Exact = Fixpoint_exact
(** The core on exact rationals; [Exact.N] is timeline_exact.ml. *)

module Scaled = Fixpoint_scaled
(** The core on scaled ints; [Scaled.N] is timeline_scaled.ml, whose
    [add], [sub], [mul_int] and [eval] raise [Rational.Overflow] on
    exactly the inputs where [Rational.Checked] would. *)
