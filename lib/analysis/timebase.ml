module Q = Rational

(* The per-model constants of the holistic analysis, in one numeric
   domain.  Every rational the analysis can reach — periods, deadlines,
   release jitters, blocking terms, the platform-transformed demands C/α
   and Cb/α, the supply latencies Δ and offsets β — lies on the lattice
   (1/scale)·Z where [scale] is the lcm of their denominators.  The
   recurrences (phases, busy periods, jitters, offsets) only add,
   subtract and integer-multiply lattice values, so they stay on the
   lattice: running them on the scaled numerators with int arithmetic is
   exact (see docs/THEORY.md).  The exact tables are the same constants
   as rationals, with [scale = 1]. *)

type 'v t = {
  scale : int;
  row_scale : int array;  (* per transaction: lcm of its row's denominators *)
  period : 'v array;  (* per transaction *)
  deadline : 'v array;
  release_jitter : 'v array;
  horizon : 'v array;  (* horizon_factor · max(period, deadline) *)
  base : 'v array array;  (* per site: Δ + blocking *)
  beta : 'v array array;
  c : 'v array array;  (* C/α *)
  cb : 'v array array;  (* Cb/α *)
}

(* The platform-transformed demands are the only *derived* rationals on
   the lattice — normalising each quotient is the expensive part of a
   table build, so a row's quotients are computed once, on first use,
   and shared by the scale scan and both tables.  A rebuild that keeps a
   transaction's scaled row never asks for its quotients.  Racing
   first uses from several domains store equal immutable rows. *)
type quotients = {
  model : Model.t;
  rows : (Q.t array * Q.t array) option array;
}

let quotients m = { model = m; rows = Array.make (Model.n_txns m) None }

let quotient_row q a =
  match q.rows.(a) with
  | Some r -> r
  | None ->
      let m = q.model in
      let quot f =
        Array.map
          (fun tk -> Q.(f tk / Model.alpha m tk))
          m.Model.txns.(a).Model.tasks
      in
      let r = (quot (fun tk -> tk.Model.c), quot (fun tk -> tk.Model.cb)) in
      q.rows.(a) <- Some r;
      r

let or_quotients q m = match q with Some q -> q | None -> quotients m

(* Tables for [n] transactions, to be filled row by row. *)
let alloc n zero ~scale ~row_scale =
  let row () = Array.make n zero and rows () = Array.make n [||] in
  {
    scale;
    row_scale;
    period = row ();
    deadline = row ();
    release_jitter = row ();
    horizon = row ();
    base = rows ();
    beta = rows ();
    c = rows ();
    cb = rows ();
  }

(* Row [a] of [m] into [t]: each constant through [conv], the horizon
   from the converted period and deadline through [horizon]. *)
let fill t m q a ~conv ~horizon =
  let tx = m.Model.txns.(a) and qc, qcb = quotient_row q a in
  t.period.(a) <- conv tx.Model.period;
  t.deadline.(a) <- conv tx.Model.deadline;
  t.release_jitter.(a) <- conv m.Model.release_jitter.(a);
  t.horizon.(a) <- horizon t.period.(a) t.deadline.(a);
  t.base.(a) <-
    Array.mapi
      (fun b tk -> conv Q.(Model.delta m tk + m.Model.blocking.(a).(b)))
      tx.Model.tasks;
  t.beta.(a) <- Array.map (fun tk -> conv (Model.beta m tk)) tx.Model.tasks;
  t.c.(a) <- Array.map conv qc;
  t.cb.(a) <- Array.map conv qcb

let exact ?quotients:q m ~horizon_factor =
  let q = or_quotients q m and n = Model.n_txns m in
  let t = alloc n Q.zero ~scale:1 ~row_scale:(Array.make n 1) in
  for a = 0 to n - 1 do
    fill t m q a ~conv:Fun.id ~horizon:(fun p d ->
        Q.(of_int horizon_factor * max p d))
  done;
  t

(* Headroom rule: every scaled constant — including the busy-period
   horizon, the largest value the fixed points are allowed to reach —
   must leave 10 bits of slack below max_int.  The slack absorbs the
   sums and job-count products of typical busy-period evaluations; the
   kernels still run fully overflow-checked, so a system that blows
   through it mid-analysis falls back to the exact instance instead of
   going wrong. *)
let headroom_bits = 10

let fits v = abs v <= max_int asr headroom_bits

let checked v = if fits v then v else raise Q.Overflow

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Overflow-checked, like [Q.lcm_den]: a partial lcm divides the whole,
   so it overflows exactly when the whole does, in any order. *)
let lcm a b = Q.Checked.(a / gcd a b * b)

(* The lcm of the denominators of transaction [a]'s constants. *)
let row_scale m q a =
  let qc, qcb = quotient_row q a in
  let tx = m.Model.txns.(a) in
  let s = ref (Q.lcm_den 1 tx.Model.period) in
  let see v = s := Q.lcm_den !s v in
  see tx.Model.deadline;
  see m.Model.release_jitter.(a);
  Array.iteri
    (fun b tk ->
      see m.Model.blocking.(a).(b);
      see (Model.delta m tk);
      see (Model.beta m tk);
      see qc.(b);
      see qcb.(b))
    tx.Model.tasks;
  !s

(* One build for fresh and carried rows.  Row [a] is kept from [prev]'s
   row [kept.(a)] when that index is >= 0 — the caller guarantees its
   constants are equal — and converted from the model otherwise, so a
   build with nothing kept is [of_model] itself.  A kept row's values
   lie on its own lattice (1/row_scale)·Z, which divides both the old
   scale L and the new L′; with g = gcd(L, L′) each scaled value moves
   exactly as v·L′ = (v·L / (L/g))·(L′/g), and passes the same overflow
   and headroom checks a fresh conversion of the same number would.  So
   scale, tables and the [None] verdict are those of a fresh build.  At
   an unchanged scale a kept row's arrays are shared, not copied. *)
let build ?carry m q ~horizon_factor =
  let n = Model.n_txns m in
  let kept a =
    match carry with
    | Some (prev, kept) when kept.(a) >= 0 -> Some (prev, kept.(a))
    | _ -> None
  in
  let row_scale =
    Array.init n (fun a ->
        match kept a with
        | Some (prev, oa) -> prev.row_scale.(oa)
        | None -> row_scale m q a)
  in
  let scale = Array.fold_left lcm 1 row_scale in
  let move, move_row =
    match carry with
    | Some (prev, _) when prev.scale <> scale ->
        let g = gcd prev.scale scale in
        let down = prev.scale / g and up = scale / g in
        let move v = checked Q.Checked.(v / down * up) in
        (move, Array.map move)
    | _ -> (Fun.id, Fun.id)
  in
  let conv v = checked (Q.to_scaled ~scale v) in
  let horizon p d = checked Q.Checked.(horizon_factor * Stdlib.max p d) in
  let t = alloc n 0 ~scale ~row_scale in
  for a = 0 to n - 1 do
    match kept a with
    | Some (prev, oa) ->
        t.period.(a) <- move prev.period.(oa);
        t.deadline.(a) <- move prev.deadline.(oa);
        t.release_jitter.(a) <- move prev.release_jitter.(oa);
        t.horizon.(a) <- move prev.horizon.(oa);
        t.base.(a) <- move_row prev.base.(oa);
        t.beta.(a) <- move_row prev.beta.(oa);
        t.c.(a) <- move_row prev.c.(oa);
        t.cb.(a) <- move_row prev.cb.(oa)
    | None -> fill t m q a ~conv ~horizon
  done;
  t

let of_model ?quotients:q ?carry (m : Model.t) ~horizon_factor =
  let q = or_quotients q m in
  try Some (build ?carry m q ~horizon_factor) with Q.Overflow -> None

let scale t = t.scale

let to_q t v = Q.of_scaled ~scale:t.scale v
