(* Exact rationals: the [N] of [Fixpoint.Exact] ({!Timeline.S} on
   [Rational.t]).  Not a module of the library: the build defines it in
   front of the fixed-point core, in the same compilation unit (see
   dune).

   The per-term loop of Eq. 8/11 is the innermost loop of every
   busy-period fixed point.  Per term, it counts the ⌊(J + ϕ)/T⌋
   delayed jobs (hoisted at compile time) plus ⌈(t − ϕ)/T⌉ jobs
   released inside, clamped at 0 so the evaluation at t = 0 equals the
   t → 0+ limit — fixed-point iterations seeded at 0 then count the jobs
   released at the critical instant instead of stalling.  The clamp is
   an int comparison: [Stdlib.max] is polymorphic. *)

module Q = Rational

type t = Q.t

let zero = Q.zero
let add = Q.add
let sub = Q.sub
let mul_int n v = Q.mul_int v n
let compare = Q.compare
let equal = Q.equal
let floor_div x y = Q.floor (Q.div x y)
let ceil_div x y = Q.ceil (Q.div x y)
let modulo = Q.fmod
let of_q ~scale:_ v = v
let floor_of_q ~scale:_ v = v
let to_q ~scale:_ v = v

let eval (k : t Timeline.kernel) t =
  let acc = ref Q.zero in
  for idx = 0 to Array.length k.phase - 1 do
    let inside = Q.ceil Q.((t - k.phase.(idx)) / k.period) in
    let jobs = k.delayed.(idx) + if inside > 0 then inside else 0 in
    if jobs > 0 then acc := Q.(!acc + mul_int k.cost.(idx) jobs)
  done;
  !acc
