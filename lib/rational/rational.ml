type t = { num : int; den : int }

exception Overflow

exception Division_by_zero

(* Overflow-checked native-int primitives.  The analysis keeps values
   small, but the checks make misuse loud instead of silently wrong. *)

let add_exn a b =
  let c = a + b in
  if (a >= 0) = (b >= 0) && (c >= 0) <> (a >= 0) then raise Overflow else c

let mul_exn a b =
  if a = 0 || b = 0 then 0
  else
    let c = a * b in
    if c / b <> a || (a = min_int && b = -1) then raise Overflow else c

let neg_exn a = if a = min_int then raise Overflow else -a

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero
  else
    let num, den = if den < 0 then (neg_exn num, neg_exn den) else (num, den) in
    let g = gcd (abs num) den in
    if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }

let zero = of_int 0

let one = of_int 1

let minus_one = of_int (-1)

(* Work over the lcm of the denominators instead of their product: the
   analysis mixes values whose denominators share most factors (dyadic
   fractions times small primes), so the lcm stays small where the
   product would overflow. *)
let add x y =
  if x.den = y.den then make (add_exn x.num y.num) x.den
  else
    let g = gcd x.den y.den in
    let yd = y.den / g and xd = x.den / g in
    make (add_exn (mul_exn x.num yd) (mul_exn y.num xd)) (mul_exn x.den yd)

let neg x = { x with num = neg_exn x.num }

let sub x y = add x (neg y)

let mul x y =
  (* Cross-reduce before multiplying to keep intermediates small. *)
  let g1 = gcd (abs x.num) y.den and g2 = gcd (abs y.num) x.den in
  let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
  {
    num = mul_exn (x.num / g1) (y.num / g2);
    den = mul_exn (x.den / g2) (y.den / g1);
  }

let inv x =
  if x.num = 0 then raise Division_by_zero
  else if x.num < 0 then { num = neg_exn x.den; den = neg_exn x.num }
  else { num = x.den; den = x.num }

let div x y = mul x (inv y)

let abs_q x = { x with num = abs x.num }

let mul_int x n = mul x (of_int n)

let div_int x n = div x (of_int n)

let sign x = compare x.num 0

(* Continued-fraction comparison: strip the integer parts, then compare
   the reciprocals of the remainders with the arguments swapped.  This
   is the Euclidean algorithm run on both fractions in lockstep — it
   never multiplies, so it cannot overflow even for values near
   max_int whose cross products would (the denominators are positive
   and shrink every round, guaranteeing termination). *)
let rec compare_frac n1 d1 n2 d2 =
  (* d1, d2 > 0 *)
  let fdiv n d = if n >= 0 then n / d else ((n + 1) / d) - 1 in
  let q1 = fdiv n1 d1 and q2 = fdiv n2 d2 in
  if q1 <> q2 then compare q1 q2
  else
    (* remainders in [0, d): r = n - q*d computed without the product *)
    let fmod n d =
      let r = n mod d in
      if r < 0 then r + d else r
    in
    let r1 = fmod n1 d1 and r2 = fmod n2 d2 in
    if r1 = 0 && r2 = 0 then 0
    else if r1 = 0 then -1
    else if r2 = 0 then 1
    else compare_frac d2 r2 d1 r1

let compare_q x y =
  if x.den = y.den then compare x.num y.num
  else compare_frac x.num x.den y.num y.den

let equal x y = x.num = y.num && x.den = y.den

let min_q x y = if compare_q x y <= 0 then x else y

let max_q x y = if compare_q x y >= 0 then x else y

let floor x =
  if x.num >= 0 then x.num / x.den
  else
    let q = x.num / x.den in
    if x.num mod x.den = 0 then q else q - 1

let ceil x = -floor (neg x)

let floor_q x = of_int (floor x)

let ceil_q x = of_int (ceil x)

let is_integer x = x.den = 1

let fmod x y =
  if y.num = 0 then raise Division_by_zero
  else if y.num < 0 then invalid_arg "Rational.fmod: negative modulus"
  else sub x (mul y (floor_q (div x y)))

let gcd_q x y =
  if x.num = 0 then abs_q y
  else if y.num = 0 then abs_q x
  else
    make (gcd (abs (mul_exn x.num y.den)) (abs (mul_exn y.num x.den)))
      (mul_exn x.den y.den)

let lcm_q x y =
  if x.num = 0 || y.num = 0 then raise Division_by_zero
  else div (abs_q (mul x y)) (gcd_q x y)

let to_float x = float_of_int x.num /. float_of_int x.den

(* Decimal text without [Printf]: the width of each integer first, then
   its digits written right to left from its non-positive magnitude, so
   [min_int] needs no special case. *)
let width n =
  let rec digits k v = if v = 0 then k else digits (k + 1) (v / 10) in
  if n = 0 then 1 else digits (if n < 0 then 1 else 0) n

let write_int b ~stop n =
  let v = ref (if n > 0 then -n else n) and i = ref (stop - 1) in
  if !v = 0 then Bytes.unsafe_set b !i '0';
  while !v <> 0 do
    Bytes.unsafe_set b !i (Char.unsafe_chr (48 - (!v mod 10)));
    v := !v / 10;
    decr i
  done;
  if n < 0 then Bytes.unsafe_set b !i '-'

let to_string x =
  let wn = width x.num in
  if is_integer x then begin
    let b = Bytes.create wn in
    write_int b ~stop:wn x.num;
    Bytes.unsafe_to_string b
  end
  else begin
    let n = wn + 1 + width x.den in
    let b = Bytes.create n in
    write_int b ~stop:wn x.num;
    Bytes.unsafe_set b wn '/';
    write_int b ~stop:n x.den;
    Bytes.unsafe_to_string b
  end

let pp ppf x = Format.pp_print_string ppf (to_string x)

let pp_decimal ppf x =
  if is_integer x then Format.fprintf ppf "%d" x.num
  else begin
    (* Round to nearest at 4 fractional digits, then trim zeros. *)
    let scaled = mul x (of_int 10_000) in
    let rounded = floor (add scaled (make 1 2)) in
    let sign = if rounded < 0 then "-" else "" in
    let m = abs rounded in
    let int_part = m / 10_000 and frac = m mod 10_000 in
    let frac_str = Printf.sprintf "%04d" frac in
    let rec trim i =
      if i > 0 && frac_str.[i - 1] = '0' then trim (i - 1) else i
    in
    let n = trim (String.length frac_str) in
    if n = 0 then Format.fprintf ppf "%s%d" sign int_part
    else Format.fprintf ppf "%s%d.%s" sign int_part (String.sub frac_str 0 n)
  end

(* [s] as [int_of_string] reads a run of ASCII decimal digits, after a
   leading sign when [signed]; anything else — other bases, underscores,
   a sign elsewhere, a value outside the native ints — is malformed.
   The negated magnitude accumulates, so [min_int] is reachable. *)
let int_of_digits ~signed s =
  let bad () = invalid_arg ("Rational.of_decimal_string: " ^ s) in
  let n = String.length s in
  let start =
    if signed && n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0
  in
  if start = n then bad ();
  let acc = ref 0 in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then bad ();
    let d = Char.code c - 48 in
    if !acc < min_int / 10 || (!acc = min_int / 10 && d > -(min_int mod 10))
    then bad ();
    acc := (!acc * 10) - d
  done;
  if start = 1 && s.[0] = '-' then !acc
  else if !acc = min_int then bad ()
  else - !acc

let of_decimal_string s =
  let s = String.trim s in
  if String.length s = 0 then invalid_arg "Rational.of_decimal_string: empty";
  match String.index_opt s '/' with
  | Some i ->
      let num = String.sub s 0 i
      and den = String.sub s (i + 1) (String.length s - i - 1) in
      let den = int_of_digits ~signed:false (String.trim den) in
      if den = 0 then invalid_arg ("Rational.of_decimal_string: " ^ s);
      make (int_of_digits ~signed:true (String.trim num)) den
  | None -> (
      match String.index_opt s '.' with
      | None -> of_int (int_of_digits ~signed:true s)
      | Some i ->
          let whole = String.sub s 0 i
          and frac = String.sub s (i + 1) (String.length s - i - 1) in
          let negative = String.length whole > 0 && whole.[0] = '-' in
          let whole_n =
            if whole = "" || whole = "-" then 0
            else int_of_digits ~signed:true whole
          in
          let frac_n =
            if frac = "" then 0 else int_of_digits ~signed:false frac
          in
          let scale =
            let rec pow acc k = if k = 0 then acc else pow (mul_exn acc 10) (k - 1) in
            pow 1 (String.length frac)
          in
          let magnitude = add (of_int (abs whole_n)) (make frac_n scale) in
          if negative || whole_n < 0 then neg magnitude else magnitude)

(* Scaled-int timebase support: a family of rationals whose denominators
   all divide a common scale L lives on the integer lattice (1/L)·Z, so
   the analysis kernels can run on the scaled numerators v·L with plain
   (overflow-checked) int arithmetic.  See docs/PERFORMANCE.md. *)

let lcm_den acc x =
  if acc <= 0 then invalid_arg "Rational.lcm_den: accumulator must be > 0";
  let g = gcd acc x.den in
  mul_exn (acc / g) x.den

let to_scaled ~scale x =
  if scale <= 0 then invalid_arg "Rational.to_scaled: scale must be > 0";
  if scale mod x.den <> 0 then raise Overflow
  else mul_exn x.num (scale / x.den)

let of_scaled ~scale v = make v scale

module Checked = struct
  let ( + ) = add_exn

  let ( - ) a b = add_exn a (neg_exn b)

  let ( * ) = mul_exn
end

(* Exported names that shadow Stdlib: defined last so the implementations
   above keep integer semantics. *)

let abs = abs_q

let compare = compare_q

let min = min_q

let max = max_q

let ( < ) x y = compare_q x y < 0

let ( <= ) x y = compare_q x y <= 0

let ( > ) x y = compare_q x y > 0

let ( >= ) x y = compare_q x y >= 0

let ( = ) = equal

let ( <> ) x y = not (equal x y)

let ( + ) = add

let ( - ) = sub

let ( * ) = mul

let ( / ) = div

let ( ~- ) = neg
