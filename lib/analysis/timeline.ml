module Q = Rational

type 'v kernel = {
  period : 'v;
  phase : 'v array;
  delayed : int array;
  cost : 'v array;
}

module type S = sig
  type t

  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul_int : int -> t -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val floor_div : t -> t -> int
  val ceil_div : t -> t -> int
  val modulo : t -> t -> t
  val of_q : scale:int -> Q.t -> t
  val floor_of_q : scale:int -> Q.t -> t
  val to_q : scale:int -> t -> Q.t
  val eval : t kernel -> t -> t
end

(* The per-term loop of Eq. 8/11 is the one piece written per domain:
   it is the innermost loop of every busy-period fixed point, and a
   direct loop over the concrete arrays beats calls through a functor
   argument.  Both loops compute, per term, the ⌊(J + ϕ)/T⌋ delayed jobs
   (hoisted at compile time) plus ⌈(t − ϕ)/T⌉ jobs released inside,
   clamped at 0 so the evaluation at t = 0 equals the t → 0+ limit —
   fixed-point iterations seeded at 0 then count the jobs released at
   the critical instant instead of stalling. *)

module Exact = struct
  type t = Q.t

  let zero = Q.zero
  let add = Q.add
  let sub = Q.sub
  let mul_int n v = Q.mul_int v n
  let compare = Q.compare
  let equal = Q.equal
  let hash = Q.hash
  let floor_div x y = Q.floor (Q.div x y)
  let ceil_div x y = Q.ceil (Q.div x y)
  let modulo = Q.fmod
  let of_q ~scale:_ v = v
  let floor_of_q ~scale:_ v = v
  let to_q ~scale:_ v = v

  let eval k t =
    let acc = ref Q.zero in
    for idx = 0 to Array.length k.phase - 1 do
      let inside = Stdlib.max 0 (Q.ceil Q.((t - k.phase.(idx)) / k.period)) in
      let jobs = Stdlib.max 0 (k.delayed.(idx) + inside) in
      acc := Q.(!acc + mul_int k.cost.(idx) jobs)
    done;
    !acc
end

module Scaled = struct
  type t = int

  let zero = 0
  let add = Q.Checked.( + )
  let sub = Q.Checked.( - )
  let mul_int = Q.Checked.( * )
  let compare = Int.compare
  let equal = Int.equal
  let hash = Hashtbl.hash

  let floor_div x y =
    let q = x / y in
    if x mod y < 0 then q - 1 else q

  let ceil_div x y = if x > 0 then 1 + ((x - 1) / y) else -(-x / y)

  let modulo x y =
    let r = x mod y in
    if r < 0 then r + y else r

  let of_q ~scale v = Q.to_scaled ~scale v
  let floor_of_q ~scale v = Q.floor Q.(v * of_int scale)
  let to_q ~scale v = Q.of_scaled ~scale v

  let eval k t =
    let acc = ref 0 in
    let period = k.period and phase = k.phase and delayed = k.delayed in
    let cost = k.cost in
    for idx = 0 to Array.length phase - 1 do
      let inside = Stdlib.max 0 (ceil_div (t - phase.(idx)) period) in
      let jobs = Stdlib.max 0 (delayed.(idx) + inside) in
      acc := Q.Checked.(!acc + (jobs * cost.(idx)))
    done;
    !acc
end
