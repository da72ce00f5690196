(* Parametric interface regions: symbolic affine forms, corner-certified
   cell trees, Pareto frontiers — and the exactness identity that region
   answers agree with a cold analysis at every (α, Δ) point. *)

module Q = Rational
module LB = Platform.Linear_bound
module P = Analysis.Params
module Model = Analysis.Model
module Rta = Analysis.Rta
module S = Regions.Symbolic
module C = Regions.Cell
module F = Regions.Frontier
module D = Design.Param_search

let q = Q.of_decimal_string

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

let paper_sys = lazy (Hsched.Paper_example.system ())

(* --- symbolic forms --- *)

let test_symbolic_eval () =
  let f = S.make ~ia:(q "2") ~dl:(q "3") ~k:(q "1") in
  (* 2·α⁻¹ + 3·Δ + 1 at (1/2, 2) = 4 + 6 + 1 *)
  check_q "eval" (q "11") (S.eval f ~alpha:(q "0.5") ~delta:(q "2"));
  check_q "inv_alpha" (q "4") (S.eval S.inv_alpha ~alpha:(q "0.25") ~delta:Q.zero);
  check_q "delta" (q "7") (S.eval S.delta ~alpha:Q.one ~delta:(q "7"));
  let g = S.add (S.scale (q "2") S.inv_alpha) (S.sub f f) in
  check_q "algebra" (q "8") (S.eval g ~alpha:(q "0.25") ~delta:(q "9"));
  Alcotest.(check bool) "sub to zero" true (S.equal (S.sub f f) S.zero)

let test_symbolic_fit () =
  let f = S.make ~ia:(q "3") ~dl:(q "-2") ~k:(q "0.5") in
  let at alpha delta = (alpha, delta, S.eval f ~alpha ~delta) in
  (match S.fit (at (q "0.5") Q.zero) (at Q.one Q.zero) (at (q "0.5") Q.one) with
  | None -> Alcotest.fail "independent samples must fit"
  | Some g ->
      Alcotest.(check bool) "fit recovers the form" true (S.equal f g);
      (* and the fit extrapolates exactly to a fourth point *)
      check_q "fourth corner" (S.eval f ~alpha:Q.one ~delta:Q.one)
        (S.eval g ~alpha:Q.one ~delta:Q.one));
  (* three samples at the same α are affinely dependent in (α⁻¹, Δ)
     only when they also share Δ; same Δ at two α plus a repeat is *)
  (match S.fit (at (q "0.5") Q.zero) (at Q.one Q.zero) (at (q "0.75") Q.zero)
   with
  | None -> ()
  | Some _ -> Alcotest.fail "collinear samples must not fit")

let unit_box = S.box ~a_lo:(q "0.5") ~a_hi:Q.one ~d_lo:Q.zero ~d_hi:(q "2")

let test_symbolic_bounds () =
  let f = S.add S.inv_alpha S.delta in
  (* α⁻¹ ∈ [1, 2], Δ ∈ [0, 2] *)
  check_q "inf picks best corner" Q.one (S.inf_on unit_box f);
  check_q "sup picks worst corner" (q "4") (S.sup_on unit_box f);
  let g = S.make ~ia:Q.zero ~dl:(q "-1") ~k:Q.one in
  check_q "negative coefficient flips corner" (q "-1") (S.inf_on unit_box g);
  check_q "sup at d_lo" Q.one (S.sup_on unit_box g);
  Alcotest.(check bool) "nonneg" true (S.nonneg_on unit_box f);
  Alcotest.(check bool) "not nonpos" false (S.nonpos_on unit_box f);
  Alcotest.(check bool) "mem inside" true
    (S.mem unit_box ~alpha:(q "0.75") ~delta:Q.one);
  Alcotest.(check bool) "mem outside" false
    (S.mem unit_box ~alpha:(q "0.25") ~delta:Q.one)

let test_crossings () =
  let f = S.make ~ia:Q.one ~dl:Q.one ~k:(q "-3") in
  (match S.crossing_delta f ~alpha:(q "0.5") with
  | Some d -> check_q "delta crossing" Q.one d
  | None -> Alcotest.fail "crossing_delta");
  (match S.crossing_alpha f ~delta:Q.one with
  | Some a -> check_q "alpha crossing" (q "0.5") a
  | None -> Alcotest.fail "crossing_alpha");
  Alcotest.(check bool) "no delta dependence" true
    (S.crossing_delta S.inv_alpha ~alpha:Q.one = None);
  (* crossing at negative α is rejected *)
  let g = S.make ~ia:Q.one ~dl:Q.zero ~k:Q.one in
  Alcotest.(check bool) "negative alpha rejected" true
    (S.crossing_alpha g ~delta:Q.zero = None)

(* --- the paper example's P3 region --- *)

let paper_region = lazy (D.region ~precision:5 (Lazy.force paper_sys) ~resource:2)

let test_paper_point () =
  let rm = Lazy.force paper_region in
  (* P3 runs at (α = 0.2, Δ = 2) in the paper's Table 2 — the region
     must contain it *)
  Alcotest.(check bool) "paper point is in the region" true
    (D.region_member rm ~alpha:(q "0.2") ~delta:(q "2"));
  (* and must reject a starved platform *)
  Alcotest.(check bool) "starved P3 rejected" false
    (D.region_member rm ~alpha:(q "0.03125") ~delta:(q "2"));
  let st = C.stats rm.D.cells in
  Alcotest.(check bool) "some cells certified" true
    (st.C.feasible > 0 && st.C.infeasible > 0);
  Alcotest.(check int) "leaf counts add up" st.C.cells
    (st.C.feasible + st.C.infeasible + st.C.boundary);
  Alcotest.(check bool) "memo shares corners" true (st.C.probe_hits > 0)

let test_paper_staircase () =
  let rm = Lazy.force paper_region in
  let pts = F.points rm.D.frontier in
  Alcotest.(check bool) "frontier nonempty" true (pts <> []);
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Q.(a.F.f_alpha < b.F.f_alpha)
        && Q.(a.F.f_delta < b.F.f_delta)
        && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "staircase strictly monotone" true (monotone pts);
  (* every frontier vertex is a certified-feasible point *)
  List.iter
    (fun (p : F.point) ->
      Alcotest.(check bool) "vertex feasible" true
        (D.region_member rm ~alpha:p.F.f_alpha ~delta:p.F.f_delta))
    pts

let test_paper_max_delta () =
  let sys = Lazy.force paper_sys in
  let rm = Lazy.force paper_region in
  match
    (D.region_max_delta rm ~alpha:(q "0.2"), D.max_delta ~precision:5 sys ~resource:2)
  with
  | Some reg, Some multi ->
      (* the certified staircase answer never exceeds the multisection
         answer and trails it by at most one cell width *)
      Alcotest.(check bool) "region <= multisection" true Q.(reg <= multi);
      let width =
        let dom = C.domain rm.D.cells in
        Q.div_int dom.S.d_hi (1 lsl C.precision rm.D.cells)
      in
      Alcotest.(check bool) "within one cell width" true
        Q.(multi - reg <= width)
  | _ -> Alcotest.fail "both searches must find a margin"

let test_paper_min_alpha () =
  let sys = Lazy.force paper_sys in
  let rm = Lazy.force paper_region in
  let families =
    Array.map
      (fun (r : Platform.Resource.t) ->
        let b = r.Platform.Resource.bound in
        D.fixed_latency_family ~delta:b.LB.delta ~beta:b.LB.beta)
      sys.Transaction.System.resources
  in
  match
    ( D.region_min_alpha rm ~delta:(q "2"),
      D.min_rate ~precision:5 sys ~resource:2 ~family:families.(2) )
  with
  | Some reg, Some multi ->
      (* the region's α grid spans [2⁻⁵, 1] while the multisection grid
         is k/32, so the certified answer may sit on either side — but
         both are feasible and within a couple of grid steps *)
      Alcotest.(check bool) "within two grid steps" true
        Q.(abs (reg - multi) <= Q.make 2 32);
      let bounds =
        Array.map
          (fun (r : Platform.Resource.t) -> r.Platform.Resource.bound)
          sys.Transaction.System.resources
      in
      bounds.(2) <- LB.make ~alpha:reg ~delta:(q "2") ~beta:bounds.(2).LB.beta;
      Alcotest.(check bool) "region answer feasible" true
        (D.schedulable_with sys ~bounds)
  | _ -> Alcotest.fail "both searches must find a rate"

let test_events () =
  let log = ref [] in
  let rm =
    D.region ~precision:3 ~sink:(fun e -> log := e :: !log)
      (Lazy.force paper_sys) ~resource:2
  in
  ignore rm;
  let probes, classified, built =
    List.fold_left
      (fun (p, c, b) -> function
        | C.Probed _ -> (p + 1, c, b)
        | C.Classified _ -> (p, c + 1, b)
        | C.Built _ -> (p, c, b + 1))
      (0, 0, 0) !log
  in
  Alcotest.(check bool) "probe events" true (probes > 0);
  Alcotest.(check bool) "cell events" true (classified > 0);
  Alcotest.(check int) "one built event" 1 built;
  List.iter
    (fun e ->
      let s = C.event_to_json e in
      Alcotest.(check bool) "json line shape" true
        (String.length s > 2 && s.[0] = '{' && s.[String.length s - 1] = '}'))
    !log

(* --- exactness: region answers = cold analyses, everywhere --- *)

let scenario_total (m : Model.t) =
  let total = ref 0 in
  Array.iteri
    (fun a (tx : Model.txn) ->
      Array.iteri
        (fun b _ -> total := !total + Rta.scenario_count m P.exact ~a ~b)
        tx.Model.tasks)
    m.Model.txns;
  !total

(* Random (α, Δ) probe points for one seed: off-grid rationals inside
   the domain, plus points beyond the Δ limit (classified Boundary,
   answered by the probe fallback). *)
let random_points st ~limit =
  List.init 6 (fun _ ->
      let den = 3 + Random.State.int st 61 in
      let alpha = Q.make (1 + Random.State.int st den) den in
      let delta =
        Q.(limit * make (Random.State.int st 40) 32)
      in
      (alpha, delta))

let region_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"region member = cold analysis, exact and reduced"
       ~count:8
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_resources = 2;
             n_txns = 2;
             max_tasks_per_txn = 2;
           }
         in
         let sys = Workload.Gen.system ~seed spec in
         QCheck.assume (scenario_total (Model.of_system sys) < 5_000);
         let st = Random.State.make [| seed |] in
         let resource =
           Random.State.int st (Array.length sys.Transaction.System.resources)
         in
         let beta =
           sys.Transaction.System.resources.(resource).Platform.Resource.bound
             .LB.beta
         in
         let limit =
           Array.fold_left
             (fun acc (x : Transaction.Txn.t) ->
               Q.max acc x.Transaction.Txn.deadline)
             Q.one sys.Transaction.System.transactions
         in
         let pts = random_points st ~limit in
         let agrees params =
           let rm = D.region ~params ~precision:3 sys ~resource in
           List.for_all
             (fun (alpha, delta) ->
               let bounds =
                 Array.map
                   (fun (r : Platform.Resource.t) -> r.Platform.Resource.bound)
                   sys.Transaction.System.resources
               in
               bounds.(resource) <- LB.make ~alpha ~delta ~beta;
               D.region_member rm ~alpha ~delta
               = D.schedulable_with ~params sys ~bounds)
             pts
         in
         agrees P.exact && agrees P.default))

(* The region build above probes sequentially, so every site of its
   sink-less probe engine is first built on the main domain.  Here the
   first analyses of a fresh session run on the slots of a 4-slot
   [Pool.run]: pool workers rebind the one shared IR and race to build
   its sites.  Each racer stores an equal site, so every probe's report
   must still be the cold report of its model. *)
let shared_ir_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"sites first built on pool workers = cold analysis, jobs 4"
       ~count:8
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_resources = 3;
             n_txns = 4;
             max_tasks_per_txn = 3;
           }
         in
         let m = Model.of_system (Workload.Gen.system ~seed spec) in
         QCheck.assume (scenario_total m < 5_000);
         let st = Random.State.make [| seed |] in
         let probes =
           List.init 8 (fun _ ->
               let bounds = Array.copy m.Model.bounds in
               let r = Random.State.int st (Array.length bounds) in
               let den = 2 + Random.State.int st 15 in
               bounds.(r) <-
                 LB.make
                   ~alpha:(Q.make (1 + Random.State.int st den) den)
                   ~delta:bounds.(r).LB.delta ~beta:bounds.(r).LB.beta;
               { m with Model.bounds })
         in
         List.for_all
           (fun params ->
             let cold =
               List.map
                 (fun p ->
                   Analysis.Engine.analyze (Analysis.Engine.create ~params p))
                 probes
             in
             let e = Analysis.Engine.create ~params m in
             let probes = Array.of_list probes in
             let reports = Array.make (Array.length probes) None in
             let pool = Parallel.Pool.create ~jobs:4 in
             Fun.protect
               ~finally:(fun () -> Parallel.Pool.shutdown pool)
               (fun () ->
                 (* slot s probes s, s + 4, … *)
                 Parallel.Pool.run pool (fun slot ->
                     for k = 0 to Array.length probes - 1 do
                       if k mod 4 = slot then
                         reports.(k) <-
                           Some
                             (Analysis.Engine.analyze
                                (Analysis.Engine.with_model e probes.(k)))
                     done));
             Array.to_list (Array.map Option.get reports) = cold)
           [ P.exact; P.default ]))

(* The probe ladder certifies, warm-seeds and pins probes from earlier
   ones; what it answers must still be what cold probes answer: the
   region build of [resource] — frontier, refined vertices, cell
   statistics — and then min-rate questions at [deltas] on the same
   ladder must come out as through a disabled ladder.  Returns the
   warm ladder's statistics, the analyses the warm side ran and how
   many of them pinned rows. *)
let ladder_equals_cold ?(precision = 3) ?(rate_precision = 10) sys ~resource
    ~deltas =
  let beta =
    sys.Transaction.System.resources.(resource).Platform.Resource.bound.LB.beta
  in
  let runs = ref 0 and pinned = ref 0 in
  let count : Analysis.Engine.sink = function
    | Analysis.Engine.Analysis_started _ -> incr runs
    | Analysis.Engine.Delta { carried; _ } -> if carried > 0 then incr pinned
    | _ -> ()
  in
  let run ?sink ladder =
    let engine = Analysis.Engine.create ?sink (Model.of_system sys) in
    let rm = D.region ~engine ~ladder ~precision sys ~resource in
    let answers =
      List.map
        (fun delta ->
          D.min_rate ~engine ~ladder ~precision:rate_precision sys ~resource
            ~family:(D.fixed_latency_family ~delta ~beta))
        deltas
    in
    (rm, answers)
  in
  let warm_ladder = Regions.Probe_ladder.create () in
  let warm, warm_answers = run ~sink:count warm_ladder in
  let cold, cold_answers = run (Regions.Probe_ladder.create ~enabled:false ()) in
  let points pts =
    List.map
      (fun (p : F.point) ->
        Printf.sprintf "%s,%s,%b" (Q.to_string p.F.f_alpha)
          (Q.to_string p.F.f_delta) p.F.f_refined)
      pts
  in
  Alcotest.(check (list string))
    "frontier"
    (points (F.points cold.D.frontier))
    (points (F.points warm.D.frontier));
  Alcotest.(check (list string))
    "refined vertices" (points cold.D.refined) (points warm.D.refined);
  Alcotest.(check bool)
    "cell stats" true
    (C.stats cold.D.cells = C.stats warm.D.cells);
  Alcotest.(check (list (option string)))
    "min rates"
    (List.map (Option.map Q.to_string) cold_answers)
    (List.map (Option.map Q.to_string) warm_answers);
  (Regions.Probe_ladder.stats warm_ladder, !runs, !pinned)

(* The sensor-fusion example's P3, the platform `hsched design --region
   P3` reports on. *)
let test_ladder_equals_cold () =
  let path =
    match
      List.find_opt Sys.file_exists
        [ "../examples/sensor_fusion.hsc"; "examples/sensor_fusion.hsc" ]
    with
    | Some p -> p
    | None -> Alcotest.failf "cannot find sensor_fusion.hsc"
  in
  let sys =
    match Spec.load_file path with
    | Ok asm -> Transaction.Derive.derive_exn asm
    | Error es -> Alcotest.failf "%s: %s" path (String.concat " | " es)
  in
  let resource =
    Option.get
      (Array.find_index
         (fun (r : Platform.Resource.t) -> r.Platform.Resource.name = "P3")
         sys.Transaction.System.resources)
  in
  let s, _, _ =
    ladder_equals_cold sys ~resource
      ~deltas:(List.map q [ "0.5"; "1"; "2"; "4" ])
  in
  Alcotest.(check bool)
    "the warm ladder answered some probes without a cold analysis" true
    (s.Regions.Probe_ladder.seeded + s.Regions.Probe_ladder.cert_feasible
     + s.Regions.Probe_ladder.cert_infeasible
    > 0)

(* A design_region-shaped generated system — 16 single-task
   transactions over 2 platforms at 40% load — on both platforms: a
   probe there moves one platform, so most probes pin the other
   platform's transactions. *)
let test_ladder_equals_cold_generated () =
  let sys =
    Workload.Gen.system ~seed:8020
      {
        Workload.Gen.default_spec with
        Workload.Gen.n_txns = 16;
        n_resources = 2;
        max_tasks_per_txn = 1;
        utilization = Q.make 2 5;
      }
  in
  for resource = 0 to 1 do
    let _, runs, pinned =
      ladder_equals_cold ~precision:4 ~rate_precision:8 sys ~resource
        ~deltas:(List.map q [ "0.5"; "2"; "5" ])
    in
    Alcotest.(check bool)
      (Printf.sprintf "most analyses on platform %d pinned rows (%d of %d)"
         resource pinned runs)
      true
      (2 * pinned > runs)
  done

let () =
  Alcotest.run "regions"
    [
      ( "symbolic",
        [
          Alcotest.test_case "eval and algebra" `Quick test_symbolic_eval;
          Alcotest.test_case "three-point fit" `Quick test_symbolic_fit;
          Alcotest.test_case "box bounds" `Quick test_symbolic_bounds;
          Alcotest.test_case "crossings" `Quick test_crossings;
        ] );
      ( "paper",
        [
          Alcotest.test_case "P3 point membership" `Quick test_paper_point;
          Alcotest.test_case "Pareto staircase" `Quick test_paper_staircase;
          Alcotest.test_case "max delta vs multisection" `Quick
            test_paper_max_delta;
          Alcotest.test_case "min alpha vs multisection" `Quick
            test_paper_min_alpha;
          Alcotest.test_case "trace events" `Quick test_events;
          Alcotest.test_case "ladder = cold probes on P3" `Quick
            test_ladder_equals_cold;
        ] );
      ( "identity",
        [
          region_identity_prop;
          shared_ir_prop;
          Alcotest.test_case "ladder = cold probes on a generated system"
            `Quick test_ladder_equals_cold_generated;
        ] );
    ]
