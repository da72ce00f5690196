type variant = Exact | Reduced

type best_case = Simple | Refined

type t = {
  variant : variant;
  best_case : best_case;
  horizon_factor : int;
  prune : bool;
  keep_history : bool;
  int_kernel : bool;
}

let default =
  {
    variant = Reduced;
    best_case = Simple;
    horizon_factor = 64;
    prune = true;
    keep_history = true;
    int_kernel = true;
  }

let exact = { default with variant = Exact }
