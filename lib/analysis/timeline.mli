(** Numeric timelines: the two domains the fixed-point core runs on,
    and the types its two instances share.

    Every recurrence of the holistic analysis (Section 3) adds,
    subtracts and integer-multiplies time values, compares them, and
    takes floors and ceilings of quotients by a period — plain job
    counts.  {!S} is exactly that vocabulary, plus conversions to and
    from {!Rational} and the per-term loop of the demand kernel.  The
    fixed-point core is written once over a module [N : S]
    (fixpoint_core.ml), and the build compiles it once per domain, with
    that domain's [N] defined in front of it in the same compilation
    unit (lib/analysis/dune):

    - {!Fixpoint.Exact}: exact rationals (timeline_exact.ml) — the
      reference, and the fallback;
    - {!Fixpoint.Scaled}: native ints on the lattice (1/L)·Z of a
      {!Timebase.t} (timeline_scaled.ml), every operation
      overflow-checked (raising [Rational.Overflow]).

    Lattice values are exact, so both instances compute the same
    rationals bit for bit — see docs/THEORY.md.  This module has no
    implementation: it holds types only. *)

type 'v kernel = {
  period : 'v;  (** period T{_i} of the interfering transaction *)
  phase : 'v array;  (** ϕ{^k}{_i,j} per term (Eq. 10) *)
  delayed : int array;  (** ⌊(J{_i,j} + ϕ{^k}{_i,j})/T{_i}⌋ per term *)
  cost : 'v array;  (** C{_i,j}/α per term *)
}
(** A compiled demand curve W{^k}{_i}(τ{_a,b}, ·) (Eq. 11) in
    structure-of-arrays layout: the t-independent half of Eq. 8 is
    hoisted per term, so an evaluation walks flat arrays and pays one
    division per term.  Valid while the jitter and offset rows of
    transaction [i] it was compiled from are unchanged. *)

(** The arithmetic of one domain.  [Fixpoint.Exact.N] and
    [Fixpoint.Scaled.N] are its two implementations. *)
module type S = sig
  type t

  val zero : t

  val add : t -> t -> t

  val sub : t -> t -> t

  val mul_int : int -> t -> t
  (** [mul_int n v] is [n·v]. *)

  val compare : t -> t -> int

  val equal : t -> t -> bool

  val floor_div : t -> t -> int
  (** [floor_div x y] is ⌊x/y⌋ for [y > 0]. *)

  val ceil_div : t -> t -> int
  (** [ceil_div x y] is ⌈x/y⌉ for [y > 0]. *)

  val modulo : t -> t -> t
  (** [modulo x y] is [x − y·⌊x/y⌋], in [\[0, y)], for [y > 0]. *)

  val of_q : scale:int -> Rational.t -> t
  (** The value of a rational on a timeline of denominator [scale].
      @raise Rational.Overflow when it is off the lattice. *)

  val floor_of_q : scale:int -> Rational.t -> t
  (** The greatest lattice value [<=] the rational. *)

  val to_q : scale:int -> t -> Rational.t

  val eval : t kernel -> t -> t
  (** [eval k t] is the demand W{^k}{_i}(τ{_a,b}, t) of the compiled
      curve: per term, ⌊(J + ϕ)/T⌋ delayed jobs plus ⌈(t − ϕ)/T⌉
      jobs released inside the window, clamped at 0, times the
      cost. *)
end

type warm = {
  dirty : bool array;
      (** per transaction; clean rows are pinned at [jit]/[resp] *)
  jit : Rational.t array array;  (** seed jitters *)
  resp : Report.bound array array;  (** carried responses (clean rows) *)
  rows : Report.task_result array array;
      (** the previous report's rows of the clean transactions, which
          the warm run returns as they are (never read on dirty rows) *)
  floor : bool;
      (** round the seed jitters down onto a scaled lattice ([true] for
          seeded starts, whose pinned rows hold their cold starting
          values, already on it) instead of requiring them on it
          ([false], delta and pinned starts) *)
}
(** A warm start for the outer fixed point, as {!Engine.Delta} and
    {!Engine.Seeded} plan it (docs/INCREMENTAL.md, docs/THEORY.md), in
    rationals: each instance lifts it onto its own timeline. *)
