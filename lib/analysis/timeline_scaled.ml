(* Scaled numerators on native ints: the [N] of [Fixpoint.Scaled]
   ({!Timeline.S} on [int]).  Not a module of the library: the build
   defines it in front of the fixed-point core, in the same compilation
   unit (see dune), so the core calls these operations directly, and
   ocamlopt expands the [@inline] ones in place.  Nothing here may call
   into another module on the core's paths: the build compiles with
   [-opaque], which inlines nothing across modules, so a
   [Rational.Checked] operator or [Stdlib.max] would be an indirect
   call per operation.

   [add], [sub], [mul_int] and [eval] raise [Rational.Overflow] instead
   of wrapping, on exactly the inputs where [Rational.Checked] would
   (pinned by qcheck properties): a sum overflows when both operands'
   signs differ from its own, as in [add_exn]; a product of operands in
   [0, 2^31) fits, and other ones are checked by division as in
   [mul_exn]. *)

module Q = Rational

type t = int

let zero = 0

let[@inline] add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise Q.Overflow else s

(* [Checked.( - )] adds the negation, so it rejects b = min_int even
   when a − b fits. *)
let[@inline] sub a b =
  let nb = -b in
  let s = a + nb in
  if b = min_int || (a lxor s) land (nb lxor s) < 0 then raise Q.Overflow
  else s

let[@inline] mul_int a b =
  if (a lor b) lsr 31 = 0 then a * b
  else if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a || (a = min_int && b = -1) then raise Q.Overflow else p

let[@inline] compare (x : int) y = if x < y then -1 else if x > y then 1 else 0
let[@inline] equal (x : int) y = x = y

let[@inline] floor_div x y =
  let q = x / y in
  if x mod y < 0 then q - 1 else q

let[@inline] ceil_div x y = if x > 0 then 1 + ((x - 1) / y) else -(-x / y)

let[@inline] modulo x y =
  let r = x mod y in
  if r < 0 then r + y else r

let of_q ~scale v = Q.to_scaled ~scale v
let floor_of_q ~scale v = Q.floor Q.(v * of_int scale)
let to_q ~scale v = Q.of_scaled ~scale v

(* The per-term loop of Eq. 8/11 (see timeline_exact.ml), with its
   ceiling division and the checks of [mul_int] and [add] spelled out:
   [jobs] is positive, so the product needs no (min_int, −1) case. *)
let eval (k : t Timeline.kernel) t =
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
