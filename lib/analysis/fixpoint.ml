(* The two instances of the fixed-point core: fixpoint_core.ml compiled
   behind each domain's arithmetic (see dune). *)

module Exact = Fixpoint_exact
module Scaled = Fixpoint_scaled
