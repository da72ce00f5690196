type variant = Exact | Reduced

type best_case = Simple | Refined

type t = {
  variant : variant;
  best_case : best_case;
  horizon_factor : int;
  max_outer_iterations : int;
  early_exit : bool;
  prune : bool;
  incremental : bool;
  keep_history : bool;
  int_kernel : bool;
  steal : bool;
  warm_probes : bool;
}

let default =
  {
    variant = Reduced;
    best_case = Simple;
    horizon_factor = 64;
    max_outer_iterations = 256;
    early_exit = true;
    prune = true;
    incremental = true;
    keep_history = true;
    int_kernel = true;
    steal = true;
    warm_probes = true;
  }

let exact = { default with variant = Exact }
