module Q = Rational
module LB = Platform.Linear_bound
module Engine = Analysis.Engine

type family = { describe : string; bound_of_rate : Q.t -> LB.t }

let periodic_server_family ~period =
  if Q.(period <= zero) then
    invalid_arg "Design.periodic_server_family: period must be > 0";
  {
    describe = Format.asprintf "periodic server, P=%a" Q.pp period;
    bound_of_rate =
      (fun alpha ->
        let gap = Q.(period * (one - alpha)) in
        LB.make ~alpha ~delta:Q.(of_int 2 * gap)
          ~beta:Q.(of_int 2 * alpha * gap));
  }

let fixed_latency_family ~delta ~beta =
  {
    describe = Format.asprintf "fixed latency, Δ=%a β=%a" Q.pp delta Q.pp beta;
    bound_of_rate = (fun alpha -> LB.make ~alpha ~delta ~beta);
  }

(* One engine session per search: the compiled IR depends only on task
   placement and priorities, which no probe ever moves (probes rebind
   demands or platform bounds), so every probe analysis shares it
   through [Engine.with_model].  A caller-supplied [engine] is reused
   directly — its model must be the system's.  Probes only read the
   verdict, so the per-sweep history matrices are dead weight: they are
   dropped whatever parameters the caller passed. *)
let probe_engine ?engine ?params sys =
  match engine with
  | Some e -> Engine.with_overrides ?params e ~keep_history:false
  | None ->
      let p = Option.value params ~default:Analysis.Params.default in
      Engine.create
        ~params:{ p with Analysis.Params.keep_history = false }
        (Analysis.Model.of_system sys)

let probe_schedulable ~ladder e ~bounds =
  let m = { (Engine.model e) with Analysis.Model.bounds } in
  Regions.Probe_ladder.schedulable ladder e m

let schedulable_with ?engine ?params ?ladder sys ~bounds =
  let probe = probe_engine ?engine ?params sys in
  probe_schedulable
    ~ladder:(Option.value ladder ~default:(Regions.Probe_ladder.create ()))
    probe ~bounds

let current_bounds (sys : Transaction.System.t) =
  Array.map
    (fun (r : Platform.Resource.t) -> r.Platform.Resource.bound)
    sys.Transaction.System.resources

(* Bisect the integer grid interval (lo, hi) of a monotone predicate
   [ok] down to two adjacent points; [ok_at_hi] is its value at the [hi]
   end (and the negation its value at [lo]). *)
let rec bisect ~ok_at_hi ok (lo, hi) =
  if hi - lo <= 1 then (lo, hi)
  else
    let mid = (lo + hi) / 2 in
    bisect ~ok_at_hi ok (if ok mid = ok_at_hi then (lo, mid) else (mid, hi))

(* Least grid point k/2^precision in (0, 1] satisfying [ok]; assumes [ok]
   is monotone (false below the threshold, true above). *)
let search_min_rate ~precision ok =
  let den = 1 lsl precision in
  if not (ok Q.one) then None
  else
    (* Invariant: ok(hi/den), not ok(lo/den) (lo = 0 is never feasible:
       rate must be positive). *)
    let _, hi = bisect ~ok_at_hi:true (fun p -> ok (Q.make p den)) (0, den) in
    Some (Q.make hi den)

let min_rate ?engine ?params ?ladder ?(precision = 10) sys ~resource ~family =
  let probe = probe_engine ?engine ?params sys in
  let ladder = Option.value ladder ~default:(Regions.Probe_ladder.create ()) in
  let base = current_bounds sys in
  let ok alpha =
    let bounds = Array.copy base in
    bounds.(resource) <- family.bound_of_rate alpha;
    probe_schedulable ~ladder probe ~bounds
  in
  search_min_rate ~precision ok

let minimize_rates ?engine ?params ?ladder ?(precision = 10) sys ~families =
  let n = Array.length families in
  if n <> Array.length sys.Transaction.System.resources then
    invalid_arg "Design.minimize_rates: one family per platform required";
  let probe = probe_engine ?engine ?params sys in
  let ladder = Option.value ladder ~default:(Regions.Probe_ladder.create ()) in
  let rates = Array.make n Q.one in
  let bounds_of rates =
    Array.init n (fun i -> families.(i).bound_of_rate rates.(i))
  in
  if not (probe_schedulable ~ladder probe ~bounds:(bounds_of rates)) then None
  else begin
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        let ok alpha =
          let attempt = Array.copy rates in
          attempt.(i) <- alpha;
          probe_schedulable ~ladder probe ~bounds:(bounds_of attempt)
        in
        match search_min_rate ~precision ok with
        | Some alpha when Q.(alpha < rates.(i)) ->
            rates.(i) <- alpha;
            changed := true
        | Some _ | None -> ()
      done
    done;
    Some rates
  end

let balance_rates ?engine ?params ?ladder ?(precision = 6) sys ~families =
  let n = Array.length families in
  if n <> Array.length sys.Transaction.System.resources then
    invalid_arg "Design.balance_rates: one family per platform required";
  let probe = probe_engine ?engine ?params sys in
  let ladder = Option.value ladder ~default:(Regions.Probe_ladder.create ()) in
  let den = 1 lsl precision in
  let rates = Array.make n Q.one in
  let bounds_of rates =
    Array.init n (fun i -> families.(i).bound_of_rate rates.(i))
  in
  if not (probe_schedulable ~ladder probe ~bounds:(bounds_of rates)) then None
  else begin
    let step = Q.make 1 den in
    let progress = ref true in
    while !progress do
      progress := false;
      for i = 0 to n - 1 do
        let candidate = Q.(rates.(i) - step) in
        if Q.(candidate > zero) then begin
          let attempt = Array.copy rates in
          attempt.(i) <- candidate;
          if probe_schedulable ~ladder probe ~bounds:(bounds_of attempt)
          then begin
            rates.(i) <- candidate;
            progress := true
          end
        end
      done
    done;
    Some rates
  end

(* Largest grid point in [0, limit] satisfying the monotone-decreasing
   predicate [ok] (ok 0 assumed true). *)
let search_max ~precision ~limit ok =
  let den = 1 lsl precision in
  if ok limit then limit
  else
    (* ok at lo*limit/den, not ok at hi*limit/den *)
    let lo, _ =
      bisect ~ok_at_hi:false (fun p -> ok Q.(limit * make p den)) (0, den)
    in
    Q.(limit * make lo den)

let scale_demands (m : Analysis.Model.t) factor =
  {
    m with
    Analysis.Model.txns =
      Array.map
        (fun (tx : Analysis.Model.txn) ->
          {
            tx with
            Analysis.Model.tasks =
              Array.map
                (fun (tk : Analysis.Model.task) ->
                  {
                    tk with
                    Analysis.Model.c = Q.(tk.Analysis.Model.c * factor);
                    cb = Q.(tk.Analysis.Model.cb * factor);
                  })
                tx.Analysis.Model.tasks;
          })
        m.Analysis.Model.txns;
  }

let breakdown_utilization ?engine ?params ?ladder ?(precision = 10) sys =
  let probe = probe_engine ?engine ?params sys in
  let ladder = Option.value ladder ~default:(Regions.Probe_ladder.create ()) in
  let m = Engine.model probe in
  let ok factor =
    if Q.(factor <= zero) then true
    else
      Regions.Probe_ladder.schedulable ladder probe (scale_demands m factor)
  in
  if not (ok Q.one) then
    (* Even the given demands fail; search downwards instead. *)
    search_max ~precision ~limit:Q.one ok
  else begin
    (* Grow the ceiling until infeasible, then search inside. *)
    let rec ceiling limit =
      if Q.(limit >= of_int 64) then limit
      else if ok limit then ceiling Q.(limit * of_int 2)
      else limit
    in
    let limit = ceiling (Q.of_int 2) in
    if ok limit then limit else search_max ~precision ~limit ok
  end

let max_delta ?engine ?params ?ladder ?(precision = 10) ?limit sys ~resource =
  let probe = probe_engine ?engine ?params sys in
  let ladder = Option.value ladder ~default:(Regions.Probe_ladder.create ()) in
  let base = current_bounds sys in
  let default_limit =
    Array.fold_left
      (fun acc (x : Transaction.Txn.t) -> Q.max acc x.Transaction.Txn.deadline)
      Q.one sys.Transaction.System.transactions
  in
  let limit = Option.value limit ~default:default_limit in
  let ok delta =
    let bounds = Array.copy base in
    let b = bounds.(resource) in
    bounds.(resource) <- LB.make ~alpha:b.LB.alpha ~delta ~beta:b.LB.beta;
    probe_schedulable ~ladder probe ~bounds
  in
  if not (ok Q.zero) then None
  else Some (search_max ~precision ~limit ok)

(* --- region-backed mode -------------------------------------------- *)

(* One region computation replaces a whole family of point searches:
   the certified cell tree answers membership in O(tree depth) and the
   Pareto staircase answers min-rate/max-delay questions in O(log),
   where every bisection above pays [precision] analyses per
   question.  Probes inside boundary slivers fall back to the shared
   probe session, so region answers agree with a cold analysis at every
   point (the qcheck identity in test_regions.ml). *)

type region_mode = {
  cells : Regions.Cell.t;
  frontier : Regions.Frontier.t;
  refined : Regions.Frontier.point list;
  region_probe : alpha:Q.t -> delta:Q.t -> bool;
  ladder : Regions.Probe_ladder.t;
}

let default_delta_limit (sys : Transaction.System.t) =
  Array.fold_left
    (fun acc (x : Transaction.Txn.t) -> Q.max acc x.Transaction.Txn.deadline)
    Q.one sys.Transaction.System.transactions

let region ?engine ?params ?ladder ?(precision = 6) ?limit ?sink sys ~resource =
  let probe = probe_engine ?engine ?params sys in
  let ladder = Option.value ladder ~default:(Regions.Probe_ladder.create ()) in
  let base = current_bounds sys in
  let beta = base.(resource).LB.beta in
  let limit = Option.value limit ~default:(default_delta_limit sys) in
  (* Corner samples feed the boundary refinement, which fits the slack
     *iterates* of non-converged corners too — so they go through the
     ladder's report path, whose results are cold bit for bit (seeded
     runs that do not converge are rerun cold). *)
  let model = Engine.model probe in
  let sample ~alpha ~delta =
    let bounds = Array.copy model.Analysis.Model.bounds in
    bounds.(resource) <- LB.make ~alpha ~delta ~beta;
    let m = { model with Analysis.Model.bounds } in
    Regions.Cell.sample_of_report model (Regions.Probe_ladder.analyze ladder probe m)
  in
  let cells =
    Regions.Cell.build ?sink ~precision ~sample ~resource ~beta ~limit ()
  in
  let region_probe ~alpha ~delta =
    let bounds = Array.copy base in
    bounds.(resource) <- LB.make ~alpha ~delta ~beta;
    probe_schedulable ~ladder probe ~bounds
  in
  {
    cells;
    frontier = Regions.Frontier.of_region cells;
    refined = Regions.Frontier.refined cells;
    region_probe;
    ladder;
  }

let region_member rm ~alpha ~delta =
  Regions.Cell.member rm.cells ~probe:rm.region_probe ~alpha ~delta

let region_max_delta rm ~alpha = Regions.Frontier.max_delta rm.frontier ~alpha
let region_min_alpha rm ~delta = Regions.Frontier.min_alpha rm.frontier ~delta
