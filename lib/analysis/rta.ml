(* A scenario fixes, for each participating transaction, the interfering
   task whose maximally-delayed release starts the busy period (Theorem 1).
   The task's own transaction always participates; under [Reduced] it is
   the only one, the rest being upper-bounded by W*.  The enumeration
   itself is Fixpoint's site analysis; this module counts. *)

let scenario_count m params ~a ~b =
  let site = Ir.site (Ir.compile m) ~a ~b in
  let own = List.length site.Ir.own in
  match params.Params.variant with
  | Params.Reduced -> own
  | Params.Exact -> own * site.Ir.total

(* Scenario accounting for benchmarks: one unit is one remote scenario
   vector ν of the mixed-radix product, however many own-transaction
   initiators the branch and bound evaluates in it.  Atomics because
   sessions derived with [Engine.with_model] share their counters and
   may analyse concurrently on different domains (the engine's
   contract); the counts are diagnostics, not part of any report. *)
type counters = {
  total : int Atomic.t;
  visited : int Atomic.t;
  pruned : int Atomic.t;
  bounds : int Atomic.t;
  kernel_runs : int Atomic.t;
  kernel_fallbacks : int Atomic.t;
  delta_runs : int Atomic.t;
  delta_fallbacks : int Atomic.t;
}

let counters () =
  {
    total = Atomic.make 0;
    visited = Atomic.make 0;
    pruned = Atomic.make 0;
    bounds = Atomic.make 0;
    kernel_runs = Atomic.make 0;
    kernel_fallbacks = Atomic.make 0;
    delta_runs = Atomic.make 0;
    delta_fallbacks = Atomic.make 0;
  }

let total_scenarios c = Atomic.get c.total

let visited_scenarios c = Atomic.get c.visited

let pruned_scenarios c = Atomic.get c.pruned

let bound_evaluations c = Atomic.get c.bounds

type scenario_counter = Total | Visited | Pruned | Bounds

let record c counter n =
  let field =
    match counter with
    | Total -> c.total
    | Visited -> c.visited
    | Pruned -> c.pruned
    | Bounds -> c.bounds
  in
  ignore (Atomic.fetch_and_add field n)

let kernel_runs c = Atomic.get c.kernel_runs

let kernel_fallbacks c = Atomic.get c.kernel_fallbacks

let record_kernel_run c = Atomic.incr c.kernel_runs

let record_kernel_fallback c = Atomic.incr c.kernel_fallbacks

let delta_runs c = Atomic.get c.delta_runs

let delta_fallbacks c = Atomic.get c.delta_fallbacks

let record_delta_run c = Atomic.incr c.delta_runs

let record_delta_fallback c = Atomic.incr c.delta_fallbacks

