module E = Fixpoint.Exact

type t = E.memo

type cache = E.cache

type stats = Timeline.memo_stats = {
  hits : int;
  misses : int;
  invalidations : int;
}

let create = E.memo

let cache = E.cache

let stats = E.memo_stats

let min_terms = E.N.memo_min_terms

let w_star c m ~phi ~jit ~i ~hp_list ~t =
  let tb =
    Timebase.exact m ~horizon_factor:Params.default.Params.horizon_factor
  in
  let sk = E.skeleton tb ~i ~hp_list in
  List.fold_left
    (fun acc k ->
      Rational.max acc (E.eval_curve (E.memoised c sk ~phi ~jit ~k) t))
    Rational.zero hp_list
