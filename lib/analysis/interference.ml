(* Views of the exact instance of the fixed-point core, for tests and
   hand computations against the paper's equations. *)

module Q = Rational
module E = Fixpoint.Exact

let hp = Ir.hp

let phase m ~phi ~jit ~i ~k ~j =
  let period = m.Model.txns.(i).Model.period in
  E.phase period
    ~lead:(E.lead period ~phi_row:phi.(i) ~jit_row:jit.(i) k)
    phi.(i).(j)

let jobs ~jitter ~phase ~period ~t =
  let delayed = [| E.delayed period ~jitter ~phase |] in
  Q.floor
    (E.N.eval
       { Timeline.period; phase = [| phase |]; delayed; cost = [| Q.one |] }
       t)

let contribution ?hp_list m ~phi ~jit ~i ~k ~a ~b ~t =
  let hp_list = match hp_list with Some l -> l | None -> hp m ~i ~a ~b in
  let tb =
    Timebase.exact m ~horizon_factor:Params.default.Params.horizon_factor
  in
  E.N.eval (E.compile (E.skeleton tb ~i ~hp_list) ~phi ~jit ~k) t

let w_star ?hp_list m ~phi ~jit ~i ~a ~b ~t =
  let hp_list = match hp_list with Some l -> l | None -> hp m ~i ~a ~b in
  List.fold_left
    (fun acc k -> Q.max acc (contribution ~hp_list m ~phi ~jit ~i ~k ~a ~b ~t))
    Q.zero hp_list
