(* Latency samples and order statistics. *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 4096 0.; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort Float.compare a;
  a

let mean s =
  if s.n = 0 then 0.
  else
    let t = ref 0. in
    for i = 0 to s.n - 1 do
      t := !t +. s.a.(i)
    done;
    !t /. float_of_int s.n

(* Linear interpolation between the closest ranks of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = truncate r in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. ((r -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

(* The three quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], the method the spread of repeated
   runs is judged by. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4. -. delta)) +. (d.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
