(** Fixed-point iteration for the busy-period recurrences.

    All recurrences of Section 3 have the form [w = f w] with [f]
    monotone non-decreasing and piecewise constant between job-release
    points, so iterating from below either reaches the least fixed point
    exactly (exact arithmetic: equality is decidable) or grows past any
    bound when the platform is overloaded.  A view of
    {!Fixpoint.Exact.fixpoint}, on exact rationals. *)

val fixpoint :
  horizon:Rational.t -> (Rational.t -> Rational.t) -> Rational.t ->
  Rational.t option
(** [fixpoint ~horizon f w0] iterates [f] from [w0] until two consecutive
    values are equal ([Some w]) or the iterate exceeds [horizon]
    ([None]).
    @raise Invalid_argument if an iterate decreases, which would mean the
    recurrence is not monotone (an internal error). *)
