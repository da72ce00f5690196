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
  val memo_min_terms : int
end

(* The per-term loop of Eq. 8/11 is the one piece written per domain:
   it is the innermost loop of every busy-period fixed point.  Both
   loops compute, per term, the ⌊(J + ϕ)/T⌋ delayed jobs (hoisted at
   compile time) plus ⌈(t − ϕ)/T⌉ jobs released inside, clamped at 0 so
   the evaluation at t = 0 equals the t → 0+ limit — fixed-point
   iterations seeded at 0 then count the jobs released at the critical
   instant instead of stalling.

   The build compiles every module with [-opaque], so nothing is
   inlined across modules: [Stdlib.max] would be a call to the
   polymorphic comparison, [Rational.Checked] an indirect call and a
   helper of this module an out-of-line call.  The clamps are therefore
   int comparisons, and the scaled loop spells out its ceiling division
   and the overflow checks of [Rational.mul_exn] and [add_exn]. *)

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
      let inside = Q.ceil Q.((t - k.phase.(idx)) / k.period) in
      let jobs = k.delayed.(idx) + (if inside > 0 then inside else 0) in
      if jobs > 0 then acc := Q.(!acc + mul_int k.cost.(idx) jobs)
    done;
    !acc

  (* A hit replays an exact rational sum of several terms, each a
     division and a product on fractions: worth a hashtable probe from
     a handful of terms on. *)
  let memo_min_terms = 4
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

  (* The overflow checks raise on exactly the inputs where
     [Rational.Checked] would: a product of operands below 2^31 fits,
     larger ones are checked by division as in [mul_exn], and a sum
     overflows when both operands' signs differ from its own, as in
     [add_exn]. *)
  let eval k t =
    let acc = ref 0 in
    let period = k.period and phase = k.phase and delayed = k.delayed in
    let cost = k.cost in
    for idx = 0 to Array.length phase - 1 do
      let x = t - phase.(idx) in
      let inside = if x > 0 then 1 + ((x - 1) / period) else 0 in
      let jobs = delayed.(idx) + inside in
      if jobs > 0 then begin
        let c = cost.(idx) in
        let w = jobs * c in
        if (jobs lor c) lsr 31 <> 0 && c <> 0 && w / c <> jobs then
          raise Q.Overflow;
        let s = !acc + w in
        if (!acc lxor s) land (w lxor s) < 0 then raise Q.Overflow;
        acc := s
      end
    done;
    !acc

  (* With the loop above, a hashtable probe costs more than the terms it
     would skip: the integer timeline never memoises. *)
  let memo_min_terms = max_int
end
