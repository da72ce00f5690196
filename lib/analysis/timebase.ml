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
  period : 'v array;  (* per transaction *)
  deadline : 'v array;
  release_jitter : 'v array;
  horizon : 'v array;  (* horizon_factor · max(period, deadline) *)
  base : 'v array array;  (* per site: Δ + blocking *)
  beta : 'v array array;
  c : 'v array array;  (* C/α *)
  cb : 'v array array;  (* Cb/α *)
}

type quotients = (Q.t array array * Q.t array array) Lazy.t

(* The platform-transformed demands are the only *derived* rationals on
   the lattice — normalising each quotient is the expensive part of a
   table build (engine rebinds pay it per probe), so they are computed
   once and shared by the scale scan and both tables. *)
let quotients m =
  let quot f =
    Array.init (Model.n_txns m) (fun a ->
        Array.init (Model.n_tasks m a) (fun b ->
            let tk = Model.task m a b in
            Q.(f tk / Model.alpha m tk)))
  in
  lazy (quot (fun tk -> tk.Model.c), quot (fun tk -> tk.Model.cb))

(* One table build for both domains: [conv] maps each rational constant
   into the domain, [horizon] combines a converted period and deadline. *)
let build m q ~scale ~conv ~horizon =
  let qc, qcb = Lazy.force q in
  let n = Model.n_txns m in
  let per_txn f = Array.init n (fun a -> conv (f a m.Model.txns.(a))) in
  let per_site f =
    Array.init n (fun a ->
        Array.init (Model.n_tasks m a) (fun b ->
            conv (f a b (Model.task m a b))))
  in
  let period = per_txn (fun _ tx -> tx.Model.period) in
  let deadline = per_txn (fun _ tx -> tx.Model.deadline) in
  {
    scale;
    period;
    deadline;
    release_jitter = per_txn (fun a _ -> m.Model.release_jitter.(a));
    horizon = Array.init n (fun a -> horizon period.(a) deadline.(a));
    base =
      per_site (fun a b tk -> Q.(Model.delta m tk + m.Model.blocking.(a).(b)));
    beta = per_site (fun _ _ tk -> Model.beta m tk);
    c = per_site (fun a b _ -> qc.(a).(b));
    cb = per_site (fun a b _ -> qcb.(a).(b));
  }

let or_quotients q m = match q with Some q -> q | None -> quotients m

let exact ?quotients:q m ~horizon_factor =
  build m (or_quotients q m) ~scale:1 ~conv:Fun.id ~horizon:(fun p d ->
      Q.(of_int horizon_factor * max p d))

(* Headroom rule: every scaled constant — including the busy-period
   horizon, the largest value the fixed points are allowed to reach —
   must leave 10 bits of slack below max_int.  The slack absorbs the
   sums and job-count products of typical busy-period evaluations; the
   kernels still run fully overflow-checked, so a system that blows
   through it mid-analysis falls back to the exact instance instead of
   going wrong. *)
let headroom_bits = 10

let fits v = abs v <= max_int asr headroom_bits

let of_model ?quotients:q (m : Model.t) ~horizon_factor =
  let quotients = or_quotients q m in
  try
    let qc, qcb = Lazy.force quotients in
    let scale = ref 1 in
    let see v = scale := Q.lcm_den !scale v in
    for a = 0 to Model.n_txns m - 1 do
      let tx = m.Model.txns.(a) in
      see tx.Model.period;
      see tx.Model.deadline;
      see m.Model.release_jitter.(a);
      for b = 0 to Model.n_tasks m a - 1 do
        let tk = Model.task m a b in
        see m.Model.blocking.(a).(b);
        see (Model.delta m tk);
        see (Model.beta m tk);
        see qc.(a).(b);
        see qcb.(a).(b)
      done
    done;
    let scale = !scale in
    let checked v = if fits v then v else raise Q.Overflow in
    Some
      (build m quotients ~scale
         ~conv:(fun v -> checked (Q.to_scaled ~scale v))
         ~horizon:(fun p d ->
           checked Q.Checked.(horizon_factor * Stdlib.max p d)))
  with Q.Overflow -> None

let scale t = t.scale

let to_q t v = Q.of_scaled ~scale:t.scale v
