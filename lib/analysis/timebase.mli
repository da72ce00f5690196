(** The constant tables of a model on a numeric timeline — what the
    fixed-point core ({!Fixpoint}) reads instead of the model.

    Let [scale] be the lcm of the denominators of every rational the
    analysis can reach in a model: periods, deadlines, release jitters,
    blocking terms, the platform-transformed demands C/α and Cb/α and
    the supply parameters Δ and β.  All those values lie on the lattice
    (1/scale)·Z, and the lattice is closed under the recurrences of the
    holistic analysis (sums, differences, integer multiples, and floors
    and ceilings of quotients — which are plain integers).  Representing
    each value by its scaled numerator [v·scale] therefore lets the
    fixed points run on native ints ({!Fixpoint.Scaled}), bit-exactly:
    {!Rational.of_scaled} at the report boundary recovers the very
    rationals the exact computation ({!Fixpoint.Exact}) would have
    produced.  See docs/THEORY.md for the closure argument and
    docs/PERFORMANCE.md for the headroom and fallback rules. *)

type 'v t = {
  scale : int;  (** the common denominator lcm [L]; [1] for exact tables *)
  row_scale : int array;
      (** per transaction, the lcm of its own row's denominators — a
          divisor of [scale]; [1]s in exact tables *)
  period : 'v array;  (** per transaction *)
  deadline : 'v array;
  release_jitter : 'v array;
  horizon : 'v array;
      (** busy-period horizon [horizon_factor · max(period, deadline)],
          per transaction *)
  base : 'v array array;  (** per site (a, b): [Δ + blocking] *)
  beta : 'v array array;
  c : 'v array array;  (** worst-case demand in platform time, [C/α] *)
  cb : 'v array array;  (** best-case demand in platform time, [Cb/α] *)
}

type quotients
(** The rational C/α and Cb/α rows of a model, each computed on first
    use.  Normalising these quotients is the costly part of a table
    build, so an {!Engine} session computes them once and shares them
    between the scaled and the exact tables; a row {!of_model} carries
    over is never computed. *)

val quotients : Model.t -> quotients

val of_model :
  ?quotients:quotients ->
  ?carry:int t * int array ->
  Model.t ->
  horizon_factor:int ->
  int t option
(** The scaled tables, or [None] when the model has no usable integer
    timeline: the denominator lcm overflows, or some scaled constant
    (including the horizon) exceeds [max_int / 2{^10}].  The 10-bit
    headroom absorbs the sums and job-count products of ordinary
    busy-period evaluations; the {!Fixpoint.Scaled} operations are
    overflow-checked regardless, so [Some] is a fast-path eligibility
    verdict, not a guarantee ({!Engine} falls back to {!Fixpoint.Exact}
    on a mid-analysis overflow).

    [carry = (prev, kept)] builds from earlier tables: transaction [a]
    keeps [prev]'s row [kept.(a)] when that index is [>= 0] and is
    converted from the model otherwise.  The caller guarantees that a
    kept row's constants — period, deadline, release jitter, blocking,
    demands and its platforms' (α, Δ, β) — are those [prev] was built
    from, under the same [horizon_factor] ({!Engine.with_model} keeps
    exactly the rows its alignment found clean).  A kept row keeps its
    [row_scale] and its scaled values; when the scale moves from [L] to
    [L′], each value moves exactly as v·L′ = (v·L / (L/g))·(L′/g) with
    g = gcd(L, L′) — the row's denominators divide both — under the
    same overflow and headroom checks.  The result, [None] included,
    is [of_model m] without [carry]. *)

val exact :
  ?quotients:quotients -> Model.t -> horizon_factor:int -> Rational.t t
(** The same tables as exact rationals ([scale = 1]). *)

val scale : 'v t -> int

val to_q : int t -> int -> Rational.t
(** [to_q t v] is the rational the scaled value [v] denotes. *)
