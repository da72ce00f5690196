(** Interference terms of the holistic analysis on abstract platforms
    (Equations 7–11, 15 and 17 of the paper), on exact rationals.

    These are views of {!Fixpoint.Exact} — the demand kernels every
    analysis runs — for tests and hand computations against the paper;
    they rebuild the model's constant tables on every call.

    All offsets passed in are raw (possibly exceeding the period); they
    are reduced modulo the period internally, as the paper does.
    Execution demands are scaled by the rate of the platform of the task
    under analysis — only tasks on that platform interfere (Eq. 17). *)

val hp : Model.t -> i:int -> a:int -> b:int -> int list
(** {!Ir.hp}: the tasks of transaction [i] that can interfere with
    [(a, b)] (Eq. 17). *)

val phase :
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  k:int ->
  j:int ->
  Rational.t
(** ϕ{^k}{_i,j} (Eq. 10): first activation of τ{_i,j} after the start of
    a busy period initiated by τ{_i,k} released at its maximum jitter.
    The result lies in (0, T{_i}]. *)

val jobs :
  jitter:Rational.t ->
  phase:Rational.t ->
  period:Rational.t ->
  t:Rational.t ->
  int
(** Number of jobs contributing to a busy period of length [t]:
    ⌊(J + ϕ)/T⌋ delayed jobs released at the start plus ⌈(t − ϕ)/T⌉
    jobs activated inside (Eq. 8), clamped at 0. *)

val contribution :
  ?hp_list:int list ->
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  k:int ->
  a:int ->
  b:int ->
  t:Rational.t ->
  Rational.t
(** W{^k}{_i}(τ{_a,b}, t) (Eq. 11): worst-case demand, in time on the
    platform of τ{_a,b} (i.e. scaled by 1/α), of the interfering tasks of
    transaction [i] when τ{_i,k} initiates the busy period.  [hp_list]
    short-circuits the {!hp} computation. *)

val w_star :
  ?hp_list:int list ->
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  a:int ->
  b:int ->
  t:Rational.t ->
  Rational.t
(** W{^*}{_i}(τ{_a,b}, t) (Eq. 15): the scenario maximum of
    {!contribution} over the interfering tasks of transaction [i]; [0]
    when none interfere. *)
