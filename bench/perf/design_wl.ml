(* design_region: per platform, one (α, Δ) region build then min-rate
   questions at spread Δ, all on one shared engine session and probe
   ladder — the warm, seeded counterpart of analyze_exact's cold fixed
   points.

   The searches run on one job.  With a 2-job pool the workload ran
   slower than on one job on the 2-core hosts it was sized on, and a
   neighbour taking either core stalled every multisection round, so
   its times moved by up to 2x between runs where no calibration could
   follow them. *)

module D = Design.Param_search
module E = Analysis.Engine
module M = Analysis.Model
module PL = Regions.Probe_ladder
module Q = Rational

(* The generated systems are 16 single-task transactions over 2
   platforms at 40% load.  With multi-task chains some probes near the
   minimal rate hit the 256-sweep cap of the outer fixed point (they
   would converge after ~500 sweeps), the verdict stops being monotone
   in α, and Param_search.min_rate then answers differently from a cold
   sequential search on ~1% of questions — occasionally with a rate a
   direct analysis rejects.  Chains stay covered by the paper example.
   One platform's questions cost from a third to three times the
   median, and the questions of one platform move together, so a pass
   covers many platforms with few questions each — 100 generated
   systems, 5 questions per platform — for the median and the pass
   time to hold within a few percent from seed to seed. *)
let gen_spec =
  {
    Workload.Gen.default_spec with
    Workload.Gen.n_txns = 16;
    n_resources = 2;
    max_tasks_per_txn = 1;
    utilization = Q.make 2 5;
  }

let questions = 5
let quick_generated = 1
let quick_ops = 80

type group = {
  sys : Transaction.System.t;
  resource : int;
  beta : Q.t;
  deltas : Q.t array;
}

(* The generated systems are drawn stratified, with quotas per 100
   systems close to the generator's own mix, on two properties that set
   a platform's cost:
   - its rate α, 40 platforms at each of the generator's five rates: a
     platform's min-rate questions cost about five times more at
     α = 2/5 or 4/5 than at 1/5 or 1/2, and drawn freely, the number of
     platforms a seed put at the costly rates moved p50_ms by up to a
     fifth from seed to seed;
   - how unevenly a system splits its 16 tasks over its 2 platforms,
     |k − 8| for k tasks on the first: a region build costs half as much
     again on a platform with 13 tasks as on one with 8, and the few
     most uneven systems make the region builds' tail, p99_ms.
   Drawing stops at the last quota filled, but not before [min_candidates]
   candidates, so that set-up time does not swing with how soon a seed
   fills the last quota. *)
let quotas =
  List.map
    (fun a -> ("alpha " ^ Q.to_string a, 40))
    gen_spec.Workload.Gen.alpha_choices
  @ [
      ("split 0", 20);
      ("split 1", 35);
      ("split 2", 24);
      ("split 3", 13);
      ("split 4+", 8);
    ]

let min_candidates = 2000

let keys (sys : Transaction.System.t) =
  let first =
    Array.fold_left
      (fun acc (tx : Transaction.Txn.t) ->
        Array.fold_left
          (fun acc (t : Transaction.Task.t) ->
            if t.Transaction.Task.resource = 0 then acc + 1 else acc)
          acc tx.Transaction.Txn.tasks)
      0 sys.Transaction.System.transactions
  in
  let split = abs (first - (gen_spec.Workload.Gen.n_txns / 2)) in
  (if split >= 4 then "split 4+" else Printf.sprintf "split %d" split)
  :: Array.to_list
       (Array.map
          (fun (r : Platform.Resource.t) ->
            "alpha "
            ^ Q.to_string r.Platform.Resource.bound.Platform.Linear_bound.alpha)
          sys.Transaction.System.resources)

(* 100 stratified systems, or [quick_generated] drawn freely in a quick run. *)
let generate ~seed ~quick =
  let system i = Workload.Gen.system ~seed:((seed * 7919) + 101 + i) gen_spec in
  if quick then List.init quick_generated system
  else begin
    let left = Hashtbl.create 16 in
    List.iter (fun (k, n) -> Hashtbl.replace left k n) quotas;
    let fits ks =
      List.for_all
        (fun k ->
          Hashtbl.find left k >= List.length (List.filter (String.equal k) ks))
        ks
    in
    let rec draw i need acc =
      if need = 0 && i >= min_candidates then List.rev acc
      else
        let sys = system i in
        let ks = keys sys in
        if need > 0 && fits ks then begin
          List.iter
            (fun k -> Hashtbl.replace left k (Hashtbl.find left k - 1))
            ks;
          draw (i + 1) (need - 1) (sys :: acc)
        end
        else draw (i + 1) need acc
    in
    draw 0 100 []
  end

(* Every platform of the paper example and of the generated systems;
   the questions' Δ spread over (0, D/2), D the smallest deadline. *)
let groups ~seed ~quick =
  let systems = Hsched.Paper_example.system () :: generate ~seed ~quick in
  List.concat_map
    (fun (sys : Transaction.System.t) ->
      let deadlines =
        Array.map
          (fun (tx : Transaction.Txn.t) -> tx.Transaction.Txn.deadline)
          sys.Transaction.System.transactions
      in
      let dmin = Array.fold_left Q.min deadlines.(0) deadlines in
      List.init (Transaction.System.n_resources sys) (fun resource ->
          let r = sys.Transaction.System.resources.(resource) in
          {
            sys;
            resource;
            beta = r.Platform.Resource.bound.Platform.Linear_bound.beta;
            deltas =
              Array.init questions (fun i ->
                  Q.mul dmin (Q.make (i + 1) (2 * (questions + 1))));
          }))
    systems
  |> Array.of_list

type answer = Region of D.region_mode | Rate of Q.t option

let same_region a b =
  let points rm =
    List.map
      (fun (p : Regions.Frontier.point) ->
        (p.Regions.Frontier.f_alpha, p.Regions.Frontier.f_delta))
      (Regions.Frontier.points rm.D.frontier)
  in
  Regions.Cell.stats a.D.cells = Regions.Cell.stats b.D.cells
  && List.equal
       (fun (a1, d1) (a2, d2) -> Q.equal a1 a2 && Q.equal d1 d2)
       (points a) (points b)

(* Every answer is feasible under a direct analysis at (α, Δ).  On the
   first question of each platform the region's certified minimum,
   where it has one, is never below the searched minimum: a certified
   rate is feasible, and min_rate returns the least feasible rate on
   its 2^-8 grid.  (The two need not agree to within a cell: the region
   spans Δ up to the largest deadline, so its cells are far coarser in
   Δ than the questions' spread, and boundary leaves certify nothing.) *)
let verify r g ~j ~region answer =
  let delta = g.deltas.(j - 1) in
  Option.iter
    (fun alpha ->
      let bounds =
        Array.map
          (fun (res : Platform.Resource.t) -> res.Platform.Resource.bound)
          g.sys.Transaction.System.resources
      in
      bounds.(g.resource) <-
        Platform.Linear_bound.make ~alpha ~delta ~beta:g.beta;
      Run.check r
        (D.schedulable_with g.sys ~bounds)
        "a min-rate answer is not schedulable")
    answer;
  if j = 1 then
    Option.iter
      (fun certified ->
        Run.check r
          (match answer with
          | Some a -> Q.(a <= certified + make 1 256)
          | None -> false)
          "a region certifies a rate below the min-rate answer")
      (D.region_min_alpha region ~delta)

let run (ctx : Run.ctx) =
  let r = Run.create () in
  let per_group = questions + 1 in
  Calib.reset ~domains:1;
  (* Set-up: generating the inputs, timed several times. *)
  let gs = ref [||] in
  let set_ups =
    List.init (Run.set_ups ctx) (fun _ ->
        ignore (Calib.maybe ());
        let t0 = Span.now () in
        gs := groups ~seed:ctx.seed ~quick:ctx.quick;
        Span.s_since t0)
  in
  let gs = !gs in
  let per_pass = Array.length gs * per_group in
  (* Op [i]: group (i mod per_pass) / per_group.  Slot 0 of a group
     builds its engine session, probe ladder and region; the others ask
     one min-rate question through them. *)
  let engine = ref None and ladder = ref (PL.create ()) in
  let ladders = ref [] in
  let op ?sink ?counters i =
    let g = gs.(i mod per_pass / per_group) in
    let j = i mod per_pass mod per_group in
    if j = 0 then
      Span.op "op.region" ~req:i (fun () ->
          let m = Span.with_ "analysis.model" (fun () -> M.of_system g.sys) in
          let e =
            Span.with_ "analysis.create" (fun () -> E.create ?counters ?sink m)
          in
          engine := Some e;
          ladder := PL.create ();
          (* kept for their stats in the traced run only: kept in the
             untraced one, they made its peak RSS grow with its speed *)
          if !Span.enabled then ladders := !ladder :: !ladders;
          Region
            (Span.with_ "design.region" (fun () ->
                 D.region ~engine:e ~ladder:!ladder ~precision:5 g.sys
                   ~resource:g.resource)))
    else
      Span.op "op.min_rate" ~req:i (fun () ->
          let family =
            D.fixed_latency_family ~delta:g.deltas.(j - 1) ~beta:g.beta
          in
          Rate
            (Span.with_ "design.min_rate" (fun () ->
                 D.min_rate ?engine:!engine ~ladder:!ladder ~precision:8 g.sys
                   ~resource:g.resource ~family)))
  in
  (* Answers of the first pass; later passes must repeat them. *)
  let first = Array.make per_pass None in
  let check i a =
    let k = i mod per_pass in
    match (a, first.(k)) with
    | _, None -> first.(k) <- Some a
    | Region rm, Some (Region rm0) ->
        Run.check r (same_region rm rm0) "a region changed between passes"
    | Rate x, Some (Rate y) ->
        Run.check r (Option.equal Q.equal x y)
          "a min-rate answer changed between passes"
    | _ -> assert false
  in
  let phase =
    if ctx.trace then { ctx with seconds = ctx.seconds /. 2. } else ctx
  in
  let per_op = Array.make per_pass [] and untraced_ms = ref 0. in
  let deadline = Run.deadline phase in
  let ops = ref 0 in
  while not (Run.expired phase deadline ~ops:!ops ~budget:quick_ops) do
    let k = !ops mod per_pass in
    let t = Span.now () in
    let a = op !ops in
    let ms = Span.ms_since t in
    per_op.(k) <- ms :: per_op.(k);
    untraced_ms := !untraced_ms +. ms;
    check !ops a;
    incr ops;
    ignore (Calib.maybe ())
  done;
  let ops = !ops in
  r.Run.attempted <- ops;
  Array.iteri
    (fun k a ->
      match (a, first.(k - (k mod per_group))) with
      | Some (Rate x), Some (Region region) ->
          verify r gs.(k / per_group) ~j:(k mod per_group) ~region x
      | _ -> ())
    first;
  Run.info r "ops" (string_of_int ops);
  Run.info r "passes" (Printf.sprintf "%.2f" (Run.ratio ops per_pass));
  if not ctx.trace then
    Run.repeated_end_to_end r ~per_op
      ~set_up_s:(Summary.median set_ups)
      ~rss_mb:(Run.peak_rss_mb None)
  else begin
    Span.reset ();
    Span.Engine_probe.reset ();
    Span.enabled := true;
    let counters = Analysis.Rta.counters () in
    let cells = ref 0 and boundary = ref 0 and regions = ref 0 in
    let op_ns = ref 0. in
    for i = 0 to ops - 1 do
      let t = Span.now () in
      let a = op ~sink:Span.Engine_probe.sink ~counters i in
      op_ns := !op_ns +. Span.ns_since t;
      check i a;
      ignore (Calib.maybe ());
      match (a, !engine) with
      | Region rm, Some e ->
          let st = Regions.Cell.stats rm.D.cells in
          incr regions;
          cells := !cells + st.Regions.Cell.cells;
          boundary := !boundary + st.Regions.Cell.boundary;
          Span.with_ "breakdown" (fun () ->
              Layers.compile_steps (E.model e)
                ~horizon_factor:(E.params e).Analysis.Params.horizon_factor)
      | _ -> ()
    done;
    Span.enabled := false;
    let probes, certified, seeded =
      List.fold_left
        (fun (p, c, s) l ->
          let st = PL.stats l in
          ( p + st.PL.probes,
            c + st.PL.cert_feasible + st.PL.cert_infeasible,
            s + st.PL.seeded ))
        (0, 0, 0) !ladders
    in
    let overhead = 100. *. ((!op_ns /. (1e6 *. !untraced_ms)) -. 1.) in
    Layers.report r ctx ~op_ns:!op_ns ~ops
      (Layers.engine_values ~ops ~counters
      @ [
          ("ladder.probes_per_op", Run.ratio probes ops);
          ("ladder.certified_ratio", Run.ratio certified probes);
          ("ladder.seeded_ratio", Run.ratio seeded probes);
          ("cell.cells", Run.ratio !cells !regions);
          ("cell.boundary", Run.ratio !boundary !regions);
          ("trace.overhead_pct", overhead);
        ])
  end;
  r
