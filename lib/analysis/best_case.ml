let tables m =
  Timebase.exact m ~horizon_factor:Params.default.Params.horizon_factor

let simple m = Fixpoint.Exact.best_simple (tables m)

let refined m ~jit = Fixpoint.Exact.best_refined (tables m) (Ir.compile m) ~jit
