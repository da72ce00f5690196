(** Exact rational arithmetic on native integers.

    All quantities in the schedulability analysis (times, cycles, rates)
    are rationals: the fixed-point equations of the holistic analysis take
    floors and ceilings of quotients such as [(t - phi) / T], and those hit
    exact integer boundaries (e.g. [(J + phi) / T = 1] in the paper's
    Table 3).  Floating point would make the job counts flip
    nondeterministically at such boundaries; exact arithmetic keeps the
    analysis reproducible.

    Values are kept normalised: positive denominator, [gcd num den = 1].
    The numerator and denominator are native [int]s; every arithmetic
    operation is overflow-checked and raises {!Overflow} instead of
    wrapping.  With the magnitudes used by the analysis (periods up to a
    few thousand, denominators from platform rates) intermediate values
    stay far below 2{^62}. *)

type t = private { num : int; den : int }

exception Overflow

exception Division_by_zero

(** {1 Construction} *)

val make : int -> int -> t
(** [make num den] is the normalised rational [num/den].
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t

val zero : t

val one : t

val minus_one : t

val of_decimal_string : string -> t
(** Parses ["12"], ["-3.25"], ["0.8"], or ["7/5"] into an exact rational.
    @raise Invalid_argument on malformed input, a zero denominator
    included (["2/0"]).
    @raise Overflow when a part does not fit a native int, e.g. a
    fraction of more than 18 digits. *)

(** {1 Arithmetic} *)

val add : t -> t -> t

val sub : t -> t -> t

val mul : t -> t -> t

val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val neg : t -> t

val abs : t -> t

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val mul_int : t -> int -> t

val div_int : t -> int -> t

(** {1 Comparison} *)

val compare : t -> t -> int

val equal : t -> t -> bool

val sign : t -> int

val min : t -> t -> t

val max : t -> t -> t

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val ( = ) : t -> t -> bool

val ( <> ) : t -> t -> bool

val ( + ) : t -> t -> t

val ( - ) : t -> t -> t

val ( * ) : t -> t -> t

val ( / ) : t -> t -> t

val ( ~- ) : t -> t

(** {1 Integer rounding} *)

val floor : t -> int
(** Greatest integer [<= t].  [floor (make (-1) 2) = -1]. *)

val ceil : t -> int
(** Least integer [>= t]. *)

val floor_q : t -> t

val ceil_q : t -> t

val is_integer : t -> bool

val gcd_q : t -> t -> t
(** Greatest rational [g > 0] dividing both arguments into integers:
    [gcd (a/b) (c/d) = gcd(a·d, c·b) / (b·d)].  [gcd_q x zero = abs x].
    Used for hyperperiod computation. *)

val lcm_q : t -> t -> t
(** Least positive common integer multiple of two rationals.
    @raise Division_by_zero if either argument is zero. *)

val fmod : t -> t -> t
(** [fmod x y] for [y > 0] is [x - y * floor (x / y)], in [\[0, y)].
    This is the positive modulus used by the phase equation (Eq. 7).
    @raise Division_by_zero if [y] is zero.
    @raise Invalid_argument if [y < 0]. *)

(** {1 Scaled-int timebase}

    A set of rationals whose denominators all divide a common scale [L]
    lies on the lattice (1/L)·Z; representing each value by its scaled
    numerator [v·L] turns the analysis recurrences into plain integer
    arithmetic (the integer timeline kernels, see docs/PERFORMANCE.md).
    The helpers below compute [L], move values on and off the lattice,
    and provide the overflow-checked int operations the kernels use —
    every overflow raises {!Overflow} so callers can fall back to the
    rational path instead of computing a wrong result. *)

val lcm_den : int -> t -> int
(** [lcm_den acc x] is the least common multiple of [acc] and the
    denominator of [x] — fold it over a value set to obtain the common
    scale.  @raise Overflow when the lcm exceeds [max_int].
    @raise Invalid_argument if [acc <= 0]. *)

val to_scaled : scale:int -> t -> int
(** [to_scaled ~scale x] is the exact integer [x·scale].
    @raise Overflow if the denominator of [x] does not divide [scale]
    (the value is off the lattice) or the product overflows.
    @raise Invalid_argument if [scale <= 0]. *)

val of_scaled : scale:int -> int -> t
(** [of_scaled ~scale v] is the normalised rational [v/scale] — the
    exact inverse of {!to_scaled}, used at report boundaries. *)

module Checked : sig
  val ( + ) : int -> int -> int

  val ( - ) : int -> int -> int

  val ( * ) : int -> int -> int
end
(** Overflow-checked native-int arithmetic; each operator raises
    {!Overflow} instead of wrapping.  Division and modulus need no
    checked variants: the kernels only divide by positive scaled
    periods. *)

(** {1 Conversion and printing} *)

val to_float : t -> float

val to_string : t -> string
(** ["5"], ["-3/4"]; integers print without denominator. *)

val pp : Format.formatter -> t -> unit

val pp_decimal : Format.formatter -> t -> unit
(** Decimal rendering with up to 4 fractional digits (rounded to
    nearest), for table output. *)
