(* The holistic analysis machinery: interference terms against hand
   computations, fixed points, degeneration to classical response-time
   analysis, divergence detection, blocking and release jitter. *)

module Q = Rational
module LB = Platform.Linear_bound
module P = Analysis.Params
module Model = Analysis.Model
module Report = Analysis.Report
module Interference = Analysis.Interference
module Busy = Analysis.Busy
module Rta = Analysis.Rta
module Best_case = Analysis.Best_case
module Classical = Analysis.Classical
module Engine = Analysis.Engine

let q = Q.of_decimal_string

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

let check_bound msg expected actual =
  Alcotest.(check string)
    msg
    (Format.asprintf "%a" Report.pp_bound expected)
    (Format.asprintf "%a" Report.pp_bound actual)

let task name c cb res prio = { Model.name; c = q c; cb = q cb; res; prio }

let txn name period tasks =
  { Model.tname = name; period = q period; deadline = q period; tasks = Array.of_list tasks }

(* One-shot session: compile, analyse once. *)
let analyze ?params ?counters m =
  Engine.analyze (Engine.create ?params ?counters m)

(* --- busy fixpoint --- *)

let test_fixpoint () =
  (* w = 1 + floor(w/2): fixed point 1... iterate: 0→1→1 *)
  let f w = Q.(one + of_int (Q.floor (w / of_int 2))) in
  (match Busy.fixpoint ~horizon:(q "100") f Q.zero with
  | Some w -> check_q "least fixpoint" Q.one w
  | None -> Alcotest.fail "diverged");
  (* diverging recurrence *)
  (match Busy.fixpoint ~horizon:(q "100") (fun w -> Q.(w + one)) Q.zero with
  | None -> ()
  | Some _ -> Alcotest.fail "expected divergence")

(* --- interference terms on the paper's Γ1/Γ2 (hand-checked) --- *)

let paper_model () = Hsched.Paper_example.model ()

let zeros m = Array.map (fun (tx : Model.txn) -> Array.make (Array.length tx.Model.tasks) Q.zero) m.Model.txns

let test_hp_sets () =
  let m = paper_model () in
  (* for τ1,1 (prio 2, P3): hp in Γ1 is compute (prio 3, P3), index 3 *)
  Alcotest.(check (list int)) "hp own txn of init" [ 3 ]
    (Interference.hp m ~i:0 ~a:0 ~b:0);
  (* for τ1,4 (prio 3, P3): nothing in Γ1 (init has prio 2) *)
  Alcotest.(check (list int)) "hp own txn of compute" []
    (Interference.hp m ~i:0 ~a:0 ~b:3);
  (* Γ4 = Integrator.Thread1 (prio 1, P3) does not interfere with compute *)
  let g4 = match Analysis.Model.find_task m "Integrator.Thread1.serve" with
    | Some (a, _) -> a
    | None -> Alcotest.fail "missing" in
  Alcotest.(check (list int)) "low prio excluded" []
    (Interference.hp m ~i:g4 ~a:0 ~b:3);
  (* conversely both P3 tasks of Γ1 interfere with Γ4's serve *)
  Alcotest.(check (list int)) "hp of serve in Γ1" [ 0; 3 ]
    (Interference.hp m ~i:0 ~a:g4 ~b:0)

let test_phase_and_jobs () =
  let m = paper_model () in
  let phi = zeros m and jit = zeros m in
  (* τ2,1 with zero offsets/jitters: phase is the full period *)
  let g2 = match Model.find_task m "Sensor1.Thread1.poll" with
    | Some (a, _) -> a | None -> Alcotest.fail "missing" in
  let ph = Interference.phase m ~phi ~jit ~i:g2 ~k:0 ~j:0 in
  check_q "phase = T" (q "15") ph;
  (* one delayed job at the busy-period start, next at T *)
  Alcotest.(check int) "jobs just after 0" 1
    (Interference.jobs ~jitter:Q.zero ~phase:ph ~period:(q "15") ~t:(q "1"));
  Alcotest.(check int) "jobs beyond T" 2
    (Interference.jobs ~jitter:Q.zero ~phase:ph ~period:(q "15") ~t:(q "16"));
  (* jitter adds delayed jobs *)
  Alcotest.(check int) "jitter adds a job" 2
    (Interference.jobs ~jitter:(q "15") ~phase:ph ~period:(q "15") ~t:(q "1"))

let test_contribution_table3 () =
  (* W of Γ2 on τ1,2 at iteration 0 is one poll job: C/α = 1/0.4 = 2.5 *)
  let m = paper_model () in
  let phi = zeros m and jit = zeros m in
  let g2 = match Model.find_task m "Sensor1.Thread1.poll" with
    | Some (a, _) -> a | None -> Alcotest.fail "missing" in
  let w = Interference.contribution m ~phi ~jit ~i:g2 ~k:0 ~a:0 ~b:1 ~t:(q "6") in
  check_q "one poll job scaled" (q "2.5") w;
  let w2 = Interference.w_star m ~phi ~jit ~i:g2 ~a:0 ~b:1 ~t:(q "16") in
  check_q "two poll jobs at t=16" (q "5") w2

(* --- single-platform degeneration: holistic == classical --- *)

let classical_tasks =
  [
    { Classical.name = "hi"; c = q "1"; period = q "4"; deadline = q "4"; jitter = Q.zero; prio = 3 };
    { Classical.name = "mid"; c = q "1"; period = q "5"; deadline = q "5"; jitter = Q.zero; prio = 2 };
    { Classical.name = "lo"; c = q "2"; period = q "10"; deadline = q "10"; jitter = Q.zero; prio = 1 };
  ]

let degenerate_model () =
  Model.make ~bounds:[ LB.full ]
    (List.map
       (fun (t : Classical.task) ->
         txn t.Classical.name (Q.to_string t.Classical.period)
           [ task (t.Classical.name ^ ".t") (Q.to_string t.Classical.c)
               (Q.to_string t.Classical.c) 0 t.Classical.prio ])
       classical_tasks)

let test_classical_equivalence () =
  let holistic = analyze (degenerate_model ()) in
  let classical = Classical.response_times classical_tasks in
  List.iteri
    (fun i (ct, cr) ->
      check_bound ct.Classical.name cr
        holistic.Report.results.(i).(0).Report.response)
    classical

let test_classical_textbook () =
  (* classical example: R(hi)=1, R(mid)=2, R(lo)=4 *)
  match Classical.response_times classical_tasks with
  | [ (_, r1); (_, r2); (_, r3) ] ->
      check_bound "hi" (Report.Finite Q.one) r1;
      check_bound "mid" (Report.Finite (q "2")) r2;
      check_bound "lo" (Report.Finite (q "4")) r3
  | _ -> Alcotest.fail "arity"

let test_classical_with_jitter () =
  (* jitter of a high-priority task can double its interference *)
  let tasks =
    [
      { Classical.name = "hi"; c = q "2"; period = q "10"; deadline = q "10"; jitter = q "9"; prio = 2 };
      { Classical.name = "lo"; c = q "3"; period = q "20"; deadline = q "20"; jitter = Q.zero; prio = 1 };
    ]
  in
  match Classical.response_times tasks with
  | [ _; (_, rlo) ] ->
      (* w = 3 + ceil((w+9)/10)*2: w=3→ 3+2*2=7 → ceil(16/10)=2 → 7 ✓ *)
      check_bound "lo sees two hi jobs" (Report.Finite (q "7")) rlo
  | _ -> Alcotest.fail "arity"

let test_classical_on_abstract_platform () =
  (* scaling by 1/α and the Δ term *)
  let bound = LB.make ~alpha:(q "0.5") ~delta:(q "2") ~beta:Q.zero in
  let tasks =
    [ { Classical.name = "only"; c = q "1"; period = q "10"; deadline = q "10"; jitter = Q.zero; prio = 1 } ]
  in
  match Classical.response_times ~bound tasks with
  | [ (_, r) ] -> check_bound "Δ + C/α" (Report.Finite (q "4")) r
  | _ -> Alcotest.fail "arity"

let test_utilization_tests () =
  Alcotest.(check bool) "LL accepts light set" true
    (Classical.liu_layland_test classical_tasks);
  Alcotest.(check bool) "hyperbolic accepts light set" true
    (Classical.hyperbolic_test classical_tasks);
  let heavy =
    [
      { Classical.name = "a"; c = q "5"; period = q "10"; deadline = q "10"; jitter = Q.zero; prio = 2 };
      { Classical.name = "b"; c = q "5"; period = q "10"; deadline = q "10"; jitter = Q.zero; prio = 1 };
    ]
  in
  Alcotest.(check bool) "LL rejects U=1" false (Classical.liu_layland_test heavy);
  check_q "utilization" Q.one (Classical.utilization heavy)

(* --- divergence --- *)

let test_divergence () =
  (* demand 2 every 10 on a platform of rate 0.1: utilization 2 > α *)
  let m =
    Model.make
      ~bounds:[ LB.make ~alpha:(q "0.1") ~delta:Q.zero ~beta:Q.zero ]
      [ txn "g" "10" [ task "t" "2" "1" 0 1 ] ]
  in
  let r = analyze m in
  check_bound "divergent" Report.Divergent r.Report.results.(0).(0).Report.response;
  Alcotest.(check bool) "unschedulable" false r.Report.schedulable

let test_deadline_miss_detected () =
  (* schedulable recurrence but response exceeds the deadline *)
  let m =
    Model.make ~bounds:[ LB.full ]
      [
        { Model.tname = "g"; period = q "10"; deadline = q "1";
          tasks = [| task "t" "2" "1" 0 1 |] };
      ]
  in
  let r = analyze m in
  check_bound "finite" (Report.Finite (q "2")) r.Report.results.(0).(0).Report.response;
  Alcotest.(check bool) "missed" false r.Report.schedulable

(* --- blocking and release jitter extensions --- *)

let test_blocking_term () =
  let base = [ txn "g" "10" [ task "t" "2" "1" 0 1 ] ] in
  let m0 = Model.make ~bounds:[ LB.full ] base in
  let m1 = Model.make ~bounds:[ LB.full ] ~blocking:[ ("t", q "3") ] base in
  let r0 = analyze m0 and r1 = analyze m1 in
  check_bound "without blocking" (Report.Finite (q "2"))
    r0.Report.results.(0).(0).Report.response;
  check_bound "with blocking" (Report.Finite (q "5"))
    r1.Report.results.(0).(0).Report.response

let test_release_jitter () =
  let base = [ txn "g" "10" [ task "t" "2" "1" 0 1 ] ] in
  let m = Model.make ~bounds:[ LB.full ] ~release_jitter:[ ("g", q "4") ] base in
  let r = analyze m in
  (* the response is measured from the nominal activation: J + C *)
  check_bound "jittered" (Report.Finite (q "6"))
    r.Report.results.(0).(0).Report.response

let test_multi_job_busy_window () =
  (* J = 15 > T = 10: two delayed jobs share the critical instant; the
     delayed one released 15 late answers in J + C = 19, hand-derived:
     p0 = -1, w(-1) = 4, R(-1) = 4 + 15 = 19 *)
  let m =
    Model.make ~bounds:[ LB.full ]
      ~release_jitter:[ ("g", q "15") ]
      [ txn "g" "10" [ task "t" "4" "4" 0 1 ] ]
  in
  let r = analyze m in
  check_bound "jitter-delayed job dominates" (Report.Finite (q "19"))
    r.Report.results.(0).(0).Report.response;
  (* the simulator's `Max jitter policy reproduces it: every instance
     shifted by 15, executing alone: R = 15 + 4 *)
  let sys =
    Transaction.System.make
      ~resources:[ Platform.Resource.full ~name:"cpu" () ]
      [
        Transaction.Txn.make ~release_jitter:(q "15") ~name:"g" ~period:(q "10")
          ~deadline:(q "20")
          [
            Transaction.Task.make ~name:"t" ~wcet:(q "4") ~bcet:(q "4")
              ~resource:0 ~priority:1 ();
          ];
      ]
  in
  let res =
    Simulator.Engine.run
      ~config:{ Simulator.Engine.default_config with horizon = q "500" }
      sys
  in
  match Simulator.Stats.sample res.Simulator.Engine.stats ~txn:0 ~task:0 with
  | None -> Alcotest.fail "no samples"
  | Some s ->
      check_q "simulated max" (q "19") s.Simulator.Stats.max_response

let test_model_name_errors () =
  let base = [ txn "g" "10" [ task "t" "2" "1" 0 1 ] ] in
  (match Model.make ~bounds:[ LB.full ] ~blocking:[ ("ghost", Q.one) ] base with
  | _ -> Alcotest.fail "expected error"
  | exception Invalid_argument _ -> ());
  match Model.make ~bounds:[ LB.full ] ~release_jitter:[ ("ghost", Q.one) ] base with
  | _ -> Alcotest.fail "expected error"
  | exception Invalid_argument _ -> ()

(* --- best case --- *)

let test_best_case_simple () =
  let m = paper_model () in
  let rbest = Best_case.simple m in
  (* Table 1's φmin column is Rbest of the predecessor *)
  check_q "after init" (q "3") rbest.(0).(0);
  check_q "after serve1" (q "4") rbest.(0).(1);
  check_q "after serve2" (q "5") rbest.(0).(2);
  check_q "after compute" (q "8") rbest.(0).(3)

let test_best_case_refined_dominates () =
  let m = paper_model () in
  let jit = zeros m in
  let simple = Best_case.simple m and refined = Best_case.refined m ~jit in
  Array.iteri
    (fun a row ->
      Array.iteri
        (fun b s ->
          if not Q.(refined.(a).(b) >= s) then
            Alcotest.failf "refined < simple at %d,%d" a b)
        row)
    simple

(* --- report rendering --- *)

let test_report_pp_smoke () =
  let m = paper_model () in
  let r = analyze m in
  let names a b = (Model.task m a b).Model.name in
  let table = Format.asprintf "%a" (Report.pp ~names) r in
  Alcotest.(check bool) "mentions schedulable" true
    (String.length table > 0
    && List.exists
         (fun line -> String.length line >= 11 && String.sub line 0 11 = "schedulable")
         (String.split_on_char '\n' table));
  let history = Format.asprintf "%a" (Report.pp_history ~names ~txn:0) r in
  Alcotest.(check bool) "history has J(0)" true
    (let contains hay needle =
       let ln = String.length needle and lh = String.length hay in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0
     in
     contains history "J(0)")

let test_bound_helpers () =
  let open Report in
  Alcotest.(check bool) "le finite" true (bound_le (Finite (q "3")) (q "3"));
  Alcotest.(check bool) "le divergent" false (bound_le Divergent (q "1000"));
  Alcotest.(check bool) "max" true
    (equal_bound (bound_max (Finite (q "2")) (Finite (q "5"))) (Finite (q "5")));
  Alcotest.(check bool) "max divergent" true
    (equal_bound (bound_max (Finite (q "2")) Divergent) Divergent);
  Alcotest.(check bool) "add" true
    (equal_bound (bound_add (Finite (q "2")) (q "3")) (Finite (q "5")));
  Alcotest.(check bool) "add divergent" true
    (equal_bound (bound_add Divergent (q "3")) Divergent)

let test_classical_divergent () =
  (* the higher-priority demand alone exceeds the processor: the lowest
     task's busy recurrence grows without bound *)
  let tasks =
    [
      { Classical.name = "a"; c = q "6"; period = q "10"; deadline = q "10";
        jitter = Q.zero; prio = 3 };
      { Classical.name = "b"; c = q "5"; period = q "10"; deadline = q "10";
        jitter = Q.zero; prio = 2 };
      { Classical.name = "c"; c = q "1"; period = q "10"; deadline = q "10";
        jitter = Q.zero; prio = 1 };
    ]
  in
  match Classical.response_times tasks with
  | [ (_, Report.Finite _); (_, Report.Finite _); (_, Report.Divergent) ] -> ()
  | _ -> Alcotest.fail "expected the lowest task to diverge"

let test_early_exit_flag () =
  (* a hopeless system: the first sweep already overruns the deadline,
     so the loop stops there with converged = false *)
  let m =
    Model.make
      ~bounds:[ LB.make ~alpha:(q "0.5") ~delta:Q.zero ~beta:Q.zero ]
      [
        { Model.tname = "g"; period = q "10"; deadline = q "4";
          tasks = [| task "t" "3" "1" 0 1 |] };
      ]
  in
  let fast = analyze m in
  Alcotest.(check bool) "unschedulable" false fast.Report.schedulable;
  Alcotest.(check bool) "not converged (early exit)" false fast.Report.converged;
  Alcotest.(check int) "one iteration" 1 fast.Report.outer_iterations;
  (* single-task transaction: jitters never change, so the response of
     sweep 1 is already the fixed point's *)
  match fast.Report.results.(0).(0).Report.response with
  | Report.Divergent -> Alcotest.fail "divergent"
  | Report.Finite r -> check_q "R = C/alpha" (q "6") r

(* --- exact vs reduced --- *)

let test_exact_never_exceeds_reduced () =
  for seed = 1 to 12 do
    let spec = { Workload.Gen.default_spec with n_txns = 3; max_tasks_per_txn = 2 } in
    let sys = Workload.Gen.system ~seed spec in
    let m = Model.of_system sys in
    let re = analyze ~params:P.exact m in
    let rr = analyze ~params:P.default m in
    Array.iteri
      (fun a row ->
        Array.iteri
          (fun b (res : Report.task_result) ->
            match (res.Report.response, rr.Report.results.(a).(b).Report.response) with
            | Report.Finite e, Report.Finite r ->
                if not Q.(e <= r) then
                  Alcotest.failf "seed %d: exact %s > reduced %s at %d,%d" seed
                    (Q.to_string e) (Q.to_string r) a b
            | Report.Divergent, Report.Finite _ ->
                Alcotest.failf "seed %d: exact diverged but reduced did not" seed
            | _, Report.Divergent -> ())
          row)
      re.Report.results
  done

(* --- pruning and carried responses are invisible in reports --- *)

let scenario_total (m : Model.t) =
  let total = ref 0 in
  Array.iteri
    (fun a (tx : Model.txn) ->
      Array.iteri
        (fun b _ -> total := !total + Rta.scenario_count m P.exact ~a ~b)
        tx.Model.tasks)
    m.Model.txns;
  !total

(* Draws of the pruning identity whose analysis needed three or more
   sweeps. *)
let multi_sweep_draws = ref 0

(* Branch-and-bound pruning produces, report-for-report (history
   included), the same exact rationals as the naive enumerate-everything
   path — under both variants.  The one-platform system puts every
   transaction in every site's scenario space, so the branch and bound
   also skips initiators whose enclosing block bound cannot beat the
   incumbent.  Busier systems (4–6 transactions at utilisation 7/10, on
   one and on two platforms) need three or more sweeps in about nine
   draws of ten, so their later sweeps start each recomputed site's
   search from its previous response and best scenario: exact, kernel
   on and off, under the simple best case and — where the simple run
   converged, since it iterates a failing system much longer — the
   refined one.  Rationals run only where the simple run took at most
   20 sweeps: they cost about 40 times the kernel per sweep (a few
   draws in a thousand take 50 to 200).  The run asserts that some draw
   needed three sweeps. *)
let ablation_identity_prop =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"prune = naive, exact and reduced" ~count:10
         (QCheck.int_range 1 1000)
         (fun seed ->
           let spec =
             {
               Workload.Gen.default_spec with
               Workload.Gen.n_txns = 3;
               max_tasks_per_txn = 3;
             }
           in
           let system spec = Model.of_system (Workload.Gen.system ~seed spec) in
           let models =
             List.map system
               [ spec; { spec with Workload.Gen.n_resources = 1 } ]
           in
           List.iter
             (fun m -> QCheck.assume (scenario_total m < 20_000))
             models;
           let agrees m base =
             analyze ~params:base m
             = analyze ~params:{ base with P.prune = false } m
           in
           let busy =
             List.map
               (fun n_resources ->
                 system
                   {
                     spec with
                     Workload.Gen.n_txns = 4 + (seed mod 3);
                     utilization = Q.make 7 10;
                     n_resources;
                   })
               [ 1; 2 ]
           in
           let agrees_warm m =
             scenario_total m >= 20_000
             ||
             let simple = analyze ~params:P.exact m in
             let sweeps = simple.Report.outer_iterations in
             if sweeps >= 3 then incr multi_sweep_draws;
             List.for_all
               (fun base ->
                 agrees m base
                 && (sweeps > 20
                    || agrees m { base with P.int_kernel = false }))
               (P.exact
               ::
               (if simple.Report.converged then
                  [ { P.exact with P.best_case = P.Refined } ]
                else []))
           in
           List.for_all (fun m -> agrees m P.exact && agrees m P.default) models
           && List.for_all agrees_warm busy))
  in
  ( name,
    speed,
    fun () ->
      run ();
      Alcotest.(check bool)
        "some draw needed three or more sweeps" true
        (!multi_sweep_draws > 0) )

(* --- the site response against the paper's recurrences --- *)

module X = Analysis.Fixpoint.Exact
module TE = Analysis.Fixpoint.Exact.N

(* Busy windows of two or more jobs of the task under analysis that
   [reference_response] has walked. *)
let multi_job_windows = ref 0

(* Eqs. 12–16 as written, on exact rationals, from public pieces only:
   every remote scenario (each remote at W* under [Reduced]) and every
   own initiator, the busy period from 0, then every job's completion
   from 0. *)
let reference_response (tb : Q.t Analysis.Timebase.t) (site : Analysis.Ir.site)
    variant ~phi ~jit =
  let a = site.Analysis.Ir.a and b = site.Analysis.Ir.b in
  let ta = tb.Analysis.Timebase.period.(a)
  and horizon = tb.Analysis.Timebase.horizon.(a)
  and cost = tb.Analysis.Timebase.c.(a).(b)
  and base = tb.Analysis.Timebase.base.(a).(b) in
  let own_sk = X.skeleton tb ~i:a ~hp_list:site.Analysis.Ir.own_hp in
  let remotes =
    Array.to_list
      (Array.map
         (fun (r : Analysis.Ir.remote) ->
           let sk =
             X.skeleton tb ~i:r.Analysis.Ir.txn ~hp_list:r.Analysis.Ir.hp_list
           in
           List.map (fun k -> X.compile sk ~phi ~jit ~k)
             (Array.to_list r.Analysis.Ir.choices))
         site.Analysis.Ir.remotes)
  in
  (* The remote demand of each scenario. *)
  let scenarios =
    match variant with
    | P.Reduced ->
        [
          (fun t ->
            List.fold_left
              (fun acc kernels ->
                Q.add acc
                  (List.fold_left
                     (fun w k -> Q.max w (TE.eval k t))
                     Q.zero kernels))
              Q.zero remotes);
        ]
    | P.Exact ->
        List.fold_right
          (fun kernels rest ->
            List.concat_map
              (fun k -> List.map (fun r t -> Q.add (TE.eval k t) (r t)) rest)
              kernels)
          remotes
          [ (fun _ -> Q.zero) ]
  in
  let response remote c =
    let own = X.compile own_sk ~phi ~jit ~k:c in
    let ph =
      X.phase ta
        ~lead:(X.lead ta ~phi_row:phi.(a) ~jit_row:jit.(a) c)
        phi.(a).(b)
    in
    let p0 = 1 - TE.floor_div (Q.add jit.(a).(b) ph) ta in
    let inside l = max 0 (TE.ceil_div (Q.sub l ph) ta) in
    let demand jobs w =
      Q.(base + (of_int jobs * cost) + TE.eval own w + remote w)
    in
    match
      X.fixpoint ~horizon (fun l -> demand (max 0 (inside l - p0 + 1)) l) Q.zero
    with
    | None -> Report.Divergent
    | Some l ->
        if inside l - p0 + 1 >= 2 then incr multi_job_windows;
        let best = ref (Report.Finite Q.zero) in
        for p = p0 to inside l do
          best :=
            Report.bound_max !best
              (match X.fixpoint ~horizon (demand (p - p0 + 1)) Q.zero with
              | None -> Report.Divergent
              | Some w ->
                  let earlier = Q.of_int (p - 1) in
                  Report.Finite Q.(w - (ph + (earlier * ta) - phi.(a).(b))))
        done;
        !best
  in
  List.fold_left
    (fun acc remote ->
      List.fold_left
        (fun acc c -> Report.bound_max acc (response remote c))
        acc site.Analysis.Ir.own)
    (Report.Finite Q.zero) scenarios

(* Every response of a converged report is the reference response under
   the report's own offsets and jitters — for both variants, on one
   platform at utilisations 1/2 and 4/5, where some busy windows hold
   several jobs of the task under analysis — and so is the site search
   started from any floor at or below it and any hint scenario.  About
   one draw in five converges with such a window (seeds 1–200: 40 at
   1/2, 49 at 4/5), so 100 draws all miss one with probability below
   10⁻¹⁰; the run asserts it walked at least one. *)
let site_oracle_prop =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"site response = Eqs. 12-16 reference" ~count:100
         QCheck.(
           pair (int_range 1 1000)
             (oneofl ~print:Q.to_string [ Q.make 1 2; Q.make 4 5 ]))
         (fun (seed, utilization) ->
           let spec =
             {
               Workload.Gen.default_spec with
               Workload.Gen.n_txns = 3;
               max_tasks_per_txn = 3;
               n_resources = 1;
               utilization;
             }
           in
           let m = Model.of_system (Workload.Gen.system ~seed spec) in
           let ir = Analysis.Ir.compile m in
           let st = Random.State.make [| seed |] in
           List.for_all
             (fun params ->
               let report = analyze ~params m in
               (not report.Report.converged)
               ||
               let tb =
                 Analysis.Timebase.exact m
                   ~horizon_factor:params.P.horizon_factor
               in
               let tables = X.tables ir tb in
               let counters = Rta.counters () in
               let field f =
                 Array.map (Array.map f) report.Report.results
               in
               let phi = field (fun r -> r.Report.offset)
               and jit = field (fun r -> r.Report.jitter) in
               Array.for_all Fun.id
                 (Array.mapi
                    (fun a row ->
                      Array.for_all Fun.id
                        (Array.mapi
                           (fun b (r : Report.task_result) ->
                             let site = Analysis.Ir.site ir ~a ~b in
                             let reference =
                               reference_response tb site params.P.variant
                                 ~phi ~jit
                             in
                             (* The search started warm, from a floor at
                                or below the reference — the reference
                                itself, zero, or k/8 of it — and from any
                                scenario as hint. *)
                             let floor =
                               match reference with
                               | Report.Divergent -> Q.zero
                               | Report.Finite v -> (
                                   match Random.State.int st 3 with
                                   | 0 -> v
                                   | 1 -> Q.zero
                                   | _ ->
                                       Q.(v * make (Random.State.int st 8) 8))
                             in
                             let start =
                               {
                                 X.floor;
                                 hint =
                                   Random.State.int st site.Analysis.Ir.total;
                               }
                             in
                             let warm =
                               match
                                 X.response_time ~counters ~start tables site
                                   params ~phi ~jit
                               with
                               | X.Finite v -> Report.Finite v
                               | X.Divergent -> Report.Divergent
                             in
                             Report.equal_bound r.Report.response reference
                             && Report.equal_bound warm reference)
                           row))
                    report.Report.results))
             [ P.exact; P.default ]))
  in
  ( name,
    speed,
    fun () ->
      run ();
      Alcotest.(check bool)
        "some converged window held two or more jobs" true
        (!multi_job_windows > 0) )

(* Between sweeps the outer fixed point carries forward the response of
   every task none of whose dependency rows changed.  Each sweep of a
   cold run is checked against a recomputation of every site at that
   sweep's jitters and offsets, so each response the run carried is
   checked against the site response it stands for. *)
let carry_forward_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"carried responses = recomputed" ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 3;
             max_tasks_per_txn = 3;
           }
         in
         let m = Model.of_system (Workload.Gen.system ~seed spec) in
         QCheck.assume (scenario_total m < 20_000);
         let module X = Analysis.Fixpoint.Exact in
         let ir = Analysis.Ir.compile m in
         let agrees params =
           let tb =
             Analysis.Timebase.exact m ~horizon_factor:params.P.horizon_factor
           in
           let tables = X.tables ir tb in
           let counters = Rta.counters () in
           let report =
             X.analyze ~params ~counters
               ~sweep:(fun ~iteration:_ ~recomputed:_ ~carried:_ -> ())
               tables ~warm:None
           in
           List.for_all
             (fun (h : Report.iteration) ->
               let jit = h.Report.jitters in
               (* The offsets a sweep reads: each task's predecessor's
                  best case, from the jitters under the refined one. *)
               let rbest =
                 match params.P.best_case with
                 | P.Simple -> X.best_simple tb
                 | P.Refined -> X.best_refined tb ir ~jit
               in
               let phi =
                 Array.map
                   (fun row ->
                     Array.mapi
                       (fun b _ -> if b = 0 then Q.zero else row.(b - 1))
                       row)
                   rbest
               in
               Array.for_all Fun.id
                 (Array.mapi
                    (fun a row ->
                      Array.for_all Fun.id
                        (Array.mapi
                           (fun b carried ->
                             let fresh =
                               match
                                 X.response_time ~counters tables
                                   (Analysis.Ir.site ir ~a ~b) params ~phi ~jit
                               with
                               | X.Finite v -> Report.Finite v
                               | X.Divergent -> Report.Divergent
                             in
                             Report.equal_bound fresh carried)
                           row))
                    h.Report.responses))
             report.Report.history
         in
         List.for_all agrees
           [
             P.exact;
             P.default;
             { P.exact with P.best_case = P.Refined };
             { P.default with P.best_case = P.Refined };
           ]))

let test_keep_history () =
  let m = paper_model () in
  let with_h = analyze ~params:P.exact m in
  let without_h =
    analyze ~params:{ P.exact with P.keep_history = false } m
  in
  Alcotest.(check bool) "history dropped" true (without_h.Report.history = []);
  Alcotest.(check bool)
    "rest of the report identical" true
    ({ with_h with Report.history = [] } = without_h)

let test_scenario_counters () =
  let m = paper_model () in
  let exercise params =
    let counters = Rta.counters () in
    ignore (analyze ~params ~counters m);
    (Rta.total_scenarios counters, Rta.visited_scenarios counters)
  in
  let t0, v0 = exercise { P.exact with P.prune = false } in
  Alcotest.(check int) "naive visits everything" t0 v0;
  let t1, v1 = exercise P.exact in
  Alcotest.(check int) "pruning examines the same spaces" t0 t1;
  Alcotest.(check bool) "pruning visits fewer scenarios" true (v1 < v0)

(* --- engine sessions --- *)

(* Reports do not depend on how a session was obtained: a one-shot
   session must agree with a reused one (the second run on the same
   tables) and with one rebound onto the model from another session
   (shared IR, fresh tables). *)
let engine_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"engine session: one-shot = reused = rebound, exact and reduced"
       ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 3;
             max_tasks_per_txn = 3;
           }
         in
         let sys = Workload.Gen.system ~seed spec in
         let m = Model.of_system sys in
         QCheck.assume (scenario_total m < 20_000);
         let other =
           Model.of_system (Workload.Gen.system ~seed:(seed + 1) spec)
         in
         let agrees params =
           let reference = analyze ~params m in
           let e = Engine.create ~params m in
           let rebound = Engine.with_model (Engine.create ~params other) m in
           Engine.analyze e = reference
           && Engine.analyze e = reference
           && Engine.analyze rebound = reference
         in
         agrees P.exact && agrees P.default))

let test_session_reuse () =
  let m = paper_model () in
  let e = Engine.create ~params:P.exact m in
  let r1 = Engine.analyze e in
  let r2 = Engine.analyze e in
  Alcotest.(check bool) "second run replays the identical report" true (r1 = r2)

let test_engine_overrides () =
  let m = paper_model () in
  let e = Engine.create ~params:P.exact m in
  let full = Engine.analyze e in
  let probe = Engine.analyze (Engine.with_overrides e ~keep_history:false) in
  Alcotest.(check bool) "history dropped" true (probe.Report.history = []);
  Alcotest.(check bool)
    "rest of the report identical" true
    ({ full with Report.history = [] } = probe);
  (* an override with the same params keeps the analysed session's
     tables, which depend on the model only *)
  Alcotest.(check bool)
    "override on an analysed session identical" true
    (Engine.analyze (Engine.with_overrides e ~params:P.exact) = full)

let test_engine_with_model () =
  let m = paper_model () in
  let e = Engine.create ~params:P.exact m in
  ignore (Engine.analyze e);
  (* halve every demand: placement and priorities unchanged, so the
     session keeps its IR — the report must still match a fresh
     analysis of the scaled model *)
  let scaled =
    {
      m with
      Model.txns =
        Array.map
          (fun (tx : Model.txn) ->
            {
              tx with
              Model.tasks =
                Array.map
                  (fun (tk : Model.task) ->
                    {
                      tk with
                      Model.c = Q.(tk.Model.c / of_int 2);
                      cb = Q.(tk.Model.cb / of_int 2);
                    })
                  tx.Model.tasks;
            })
          m.Model.txns;
    }
  in
  Alcotest.(check bool)
    "rebound model = fresh session" true
    (Engine.analyze (Engine.with_model e scaled)
    = analyze ~params:P.exact scaled)

let test_engine_events () =
  let m = paper_model () in
  let events = ref [] in
  let e = Engine.create ~sink:(fun ev -> events := ev :: !events) m in
  let report = Engine.analyze e in
  let evs = List.rev !events in
  (match evs with
  | Engine.Compiled { txns; tasks; _ }
    :: Engine.Kernel_compiled { scale }
    :: Engine.Analysis_started _
    :: rest ->
      Alcotest.(check int) "txns" 4 txns;
      Alcotest.(check int) "tasks" 7 tasks;
      Alcotest.(check bool) "positive scale" true (scale > 0);
      let sweeps =
        List.filter (function Engine.Sweep _ -> true | _ -> false) rest
      in
      Alcotest.(check int)
        "one sweep per outer iteration" report.Report.outer_iterations
        (List.length sweeps);
      (match List.rev rest with
      | Engine.Finished { iterations; converged; schedulable } :: _ ->
          Alcotest.(check bool) "converged" true converged;
          Alcotest.(check bool)
            "schedulable" report.Report.schedulable schedulable;
          Alcotest.(check int)
            "iterations" report.Report.outer_iterations iterations
      | _ -> Alcotest.fail "missing Finished event")
  | _ ->
      Alcotest.fail "expected Compiled, Kernel_compiled then Analysis_started");
  List.iter
    (fun ev ->
      let s = Engine.event_to_json ev in
      Alcotest.(check bool)
        "one JSON object per line" true
        (String.length s > 2
        && s.[0] = '{'
        && s.[String.length s - 1] = '}'
        && not (String.contains s '\n')))
    evs

let test_engine_classical_view () =
  let e = Engine.create (degenerate_model ()) in
  let holistic = Engine.analyze e in
  let view = Engine.classical e ~resource:0 in
  Alcotest.(check int) "view covers every transaction" 3 (List.length view);
  List.iteri
    (fun i (ct, cr) ->
      check_bound ct.Classical.name cr
        holistic.Report.results.(i).(0).Report.response)
    view;
  Alcotest.(check bool)
    "classical verdict" true
    (Engine.classical_schedulable e ~resource:0);
  Alcotest.(check bool)
    "edf admits the same degenerate set" true
    (Engine.edf_schedulable e ~resource:0)

let test_scenario_count () =
  let m = paper_model () in
  (* τ4,1: hp Γ1 on P3 = {init, compute}, own scenarios = itself *)
  let g4 = match Model.find_task m "Integrator.Thread1.serve" with
    | Some (a, _) -> a | None -> Alcotest.fail "missing" in
  Alcotest.(check int) "reduced scenarios" 1
    (Rta.scenario_count m P.default ~a:g4 ~b:0);
  Alcotest.(check int) "exact scenarios" 2
    (Rta.scenario_count m P.exact ~a:g4 ~b:0)

(* --- integer timeline kernels --- *)

let qtask name c cb res prio = { Model.name; c; cb; res; prio }

let qtxn name period tasks =
  { Model.tname = name; period; deadline = period; tasks = Array.of_list tasks }

let test_timebase_of_model () =
  let m = paper_model () in
  match Analysis.Ir.timebase m ~horizon_factor:64 with
  | None -> Alcotest.fail "paper model must fit the integer timeline"
  | Some tb ->
      let module T = Analysis.Timebase in
      Alcotest.(check bool) "positive scale" true (T.scale tb > 0);
      Array.iteri
        (fun a (tx : Model.txn) ->
          check_q "scaled period converts back" tx.Model.period
            (T.to_q tb tb.T.period.(a));
          check_q "scaled deadline converts back" tx.Model.deadline
            (T.to_q tb tb.T.deadline.(a)))
        m.Model.txns

(* A single constant within 2^10 of max_int fails the headroom rule, so
   the model compiles to no timebase and the engine announces the
   rational path up front. *)
let unrepresentable_model () =
  Model.make ~bounds:[ LB.full ]
    [ qtxn "H" (Q.of_int (max_int asr 5)) [ qtask "H.t" Q.one Q.one 0 1 ] ]

let test_kernel_unrepresentable () =
  let m1 = unrepresentable_model () in
  Alcotest.(check bool) "headroom fails" true
    (Analysis.Ir.timebase m1 ~horizon_factor:64 = None);
  (* Coprime denominators whose product exceeds max_int: each fits on
     its own, the lcm of the two does not. *)
  let m2 =
    Model.make
      ~bounds:[ LB.full; LB.full ]
      [
        qtxn "A"
          (Q.make 7 4_000_000_007)
          [ qtask "A.t" (Q.make 1 4_000_000_007) (Q.make 1 4_000_000_007) 0 1 ];
        qtxn "B"
          (Q.make 7 4_000_000_009)
          [ qtask "B.t" (Q.make 1 4_000_000_009) (Q.make 1 4_000_000_009) 1 1 ];
      ]
  in
  Alcotest.(check bool) "lcm overflows" true
    (Analysis.Ir.timebase m2 ~horizon_factor:64 = None);
  let events = ref [] in
  let e = Engine.create ~sink:(fun ev -> events := ev :: !events) m2 in
  Alcotest.(check bool) "unrepresentable event" true
    (List.exists
       (function
         | Engine.Kernel_fallback { reason } -> reason = "unrepresentable"
         | _ -> false)
       !events);
  Alcotest.(check bool) "no kernel" true (Engine.kernel_scale e = None);
  let r_on = Engine.analyze e in
  let r_off =
    analyze ~params:{ P.default with P.int_kernel = false } m2
  in
  Alcotest.(check bool) "fallback report identical" true (r_on = r_off)

(* A model whose timebase compiles — every scaled constant clears the
   headroom rule — but whose busy-period arithmetic overflows anyway:
   two independent transactions with denominators 3^13 and 2^20 inflate
   the global scale to ~1.7e12 (the rational path only ever pays local
   pairwise lcms, so it never sees numbers this size), and a 4096-times
   overutilized interferer on the target's platform drives the job-count
   product past max_int inside the first busy evaluation. *)
let runtime_fallback_model () =
  Model.make
    ~bounds:[ LB.full; LB.full; LB.full ]
    [
      qtxn "I" (Q.make 1 1024) [ qtask "I.t" (Q.of_int 4) (Q.of_int 4) 0 2 ];
      qtxn "T" (Q.of_int 32)
        [ qtask "T.t" (Q.of_int 1024) (Q.of_int 1024) 0 1 ];
      qtxn "G3"
        (Q.make 2 1_594_323)
        [ qtask "G3.t" (Q.make 1 1_594_323) (Q.make 1 1_594_323) 1 1 ];
      qtxn "G2"
        (Q.make 3 1_048_576)
        [ qtask "G2.t" (Q.make 1 1_048_576) (Q.make 1 1_048_576) 2 1 ];
    ]

let test_kernel_runtime_fallback () =
  let m = runtime_fallback_model () in
  let events = ref [] in
  let counters = Rta.counters () in
  let e =
    Engine.create ~counters ~sink:(fun ev -> events := ev :: !events) m
  in
  Alcotest.(check bool) "kernel compiled" true (Engine.kernel_scale e <> None);
  let report = Engine.analyze e in
  Alcotest.(check int) "kernel entered once" 1 (Rta.kernel_runs counters);
  Alcotest.(check int) "one overflow fallback" 1
    (Rta.kernel_fallbacks counters);
  Alcotest.(check bool) "overflow event" true
    (List.exists
       (function
         | Engine.Kernel_fallback { reason } -> reason = "overflow"
         | _ -> false)
       !events);
  Alcotest.(check bool) "session poisoned" true (Engine.kernel_scale e = None);
  let reference =
    analyze ~params:{ P.default with P.int_kernel = false } m
  in
  Alcotest.(check bool) "fallback report identical" true (report = reference);
  (* a poisoned session goes straight to the rational path *)
  Alcotest.(check bool) "rerun identical" true (Engine.analyze e = reference);
  Alcotest.(check int) "kernel skipped after poison" 1
    (Rta.kernel_runs counters)

(* --- the scaled demand kernel on its own --- *)

module TL = Analysis.Timeline
module SN = Analysis.Fixpoint.Scaled.N

(* The per-term loop as first written over [Stdlib.max] and
   [Rational.Checked]: the reference for the values and for exactly
   which inputs raise [Rational.Overflow]. *)
let reference_eval (k : int TL.kernel) t =
  let ceil_div x y = if x > 0 then 1 + ((x - 1) / y) else -(-x / y) in
  let acc = ref 0 in
  for idx = 0 to Array.length k.TL.phase - 1 do
    let inside = Stdlib.max 0 (ceil_div (t - k.TL.phase.(idx)) k.TL.period) in
    let jobs = Stdlib.max 0 (k.TL.delayed.(idx) + inside) in
    acc := Q.Checked.(!acc + (jobs * k.TL.cost.(idx)))
  done;
  !acc

let exact_kernel (k : int TL.kernel) =
  {
    TL.period = Q.of_int k.TL.period;
    phase = Array.map Q.of_int k.TL.phase;
    delayed = k.TL.delayed;
    cost = Array.map Q.of_int k.TL.cost;
  }

let outcome f = match f () with v -> Some v | exception Q.Overflow -> None

(* Random kernels as [Timebase] builds them: costs >= 0, phases in
   (0, T], a few delayed jobs per term, and t on, just around or well
   past the phases.  Costs mix small values with near-max_int quotients
   so that some products and some sums overflow. *)
let kernel_case_gen =
  let open QCheck.Gen in
  let* period = oneof [ int_range 1 10; int_range 1 1_000_000 ] in
  let* n = int_range 1 5 in
  let cost =
    oneof
      [
        return 0;
        int_range 1 1000;
        map (fun d -> max_int / d) (int_range 1 64);
        int_range 0 max_int;
      ]
  in
  let* terms =
    list_repeat n (triple (int_range 1 period) (int_range 0 3) cost)
  in
  let phase = Array.of_list (List.map (fun (p, _, _) -> p) terms) in
  let* t =
    oneof
      [
        return 0;
        map2
          (fun j d -> phase.(j) + d)
          (int_range 0 (n - 1))
          (int_range (-2) 2);
        int_range 0 (64 * period);
      ]
  in
  return
    ( {
        TL.period;
        phase;
        delayed = Array.of_list (List.map (fun (_, d, _) -> d) terms);
        cost = Array.of_list (List.map (fun (_, _, c) -> c) terms);
      },
      t )

let kernel_eval_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"scaled kernel = exact kernel, overflow iff the reference fold's"
       ~count:2000
       (QCheck.make kernel_case_gen)
       (fun (k, t) ->
         let reference = outcome (fun () -> reference_eval k t) in
         outcome (fun () -> SN.eval k t) = reference
         &&
         match reference with
         | None -> true
         | Some v ->
             Q.equal
               (TE.eval (exact_kernel k) (Q.of_int t))
               (Q.of_int v)))

(* The int instance writes its own [add], [sub] and [mul_int] in line
   with the core; they must answer like [Rational.Checked] on every
   pair, raising included, or [Kernel_fallback] would fire elsewhere.
   The edges: [Checked.( - )] negates first, so it rejects b = min_int
   even when a − b fits, and [mul_exn] special-cases (min_int, −1). *)
let arith_edges =
  [ 0; 1; -1; 2; -2; 1 lsl 31; -(1 lsl 31); (1 lsl 31) - 1; (1 lsl 31) + 1 ]
  @ [ max_int; max_int - 1; min_int; min_int + 1 ]

let arith_operand =
  let open QCheck.Gen in
  frequency
    [
      (3, oneofl arith_edges);
      (2, int);
      (2, int_range (-(1 lsl 33)) (1 lsl 33));
      (1, map2 (fun k d -> (1 lsl k) + d) (int_range 0 61) (int_range (-2) 2));
      (1, map2 (fun k d -> -(1 lsl k) + d) (int_range 0 61) (int_range (-2) 2));
    ]

let arith_agrees (a, b) =
  outcome (fun () -> SN.add a b) = outcome (fun () -> Q.Checked.(a + b))
  && outcome (fun () -> SN.sub a b) = outcome (fun () -> Q.Checked.(a - b))
  && outcome (fun () -> SN.mul_int a b)
     = outcome (fun () -> Q.Checked.(a * b))

let arith_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"int add, sub, mul_int = Rational.Checked, overflow included"
       ~count:5000
       (QCheck.make ~print:QCheck.Print.(pair int int)
          QCheck.Gen.(pair arith_operand arith_operand))
       arith_agrees)

let test_arith_edges () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (arith_agrees (a, b)) then
            Alcotest.failf "int arithmetic differs from Checked at (%d, %d)" a
              b)
        arith_edges)
    arith_edges;
  Alcotest.check_raises "sub a min_int, a − b fits" Q.Overflow (fun () ->
      ignore (SN.sub (-1) min_int));
  Alcotest.check_raises "mul_int min_int (−1)" Q.Overflow (fun () ->
      ignore (SN.mul_int min_int (-1)))

(* max_int = (2^31 − 1)·(2^31 + 1): that many jobs of that cost fill an
   int exactly, one more job overflows the product; two terms summing
   to max_int pass, one more unit overflows the sum. *)
let test_kernel_overflow_boundary () =
  let one_term ~delayed ~cost =
    {
      TL.period = 1;
      phase = [| 1 |];
      delayed = [| delayed |];
      cost = [| cost |];
    }
  in
  let c = (1 lsl 31) - 1 and jobs = (1 lsl 31) + 1 in
  Alcotest.(check int) "jobs × cost = max_int" max_int
    (SN.eval (one_term ~delayed:jobs ~cost:c) 0);
  Alcotest.check_raises "one more job" Q.Overflow (fun () ->
      ignore (SN.eval (one_term ~delayed:(jobs + 1) ~cost:c) 0));
  let two_terms last =
    {
      TL.period = 1;
      phase = [| 1; 1 |];
      delayed = [| max_int - 1; last |];
      cost = [| 1; 1 |];
    }
  in
  Alcotest.(check int) "sum = max_int" max_int (SN.eval (two_terms 1) 0);
  Alcotest.check_raises "one more unit" Q.Overflow (fun () ->
      ignore (SN.eval (two_terms 2) 0))

(* Long chains on one platform: interfering sets reach four and more
   terms, which the short-chain workloads of the other properties never
   reach. *)
let long_chain_spec =
  {
    Workload.Gen.default_spec with
    Workload.Gen.n_txns = 4;
    n_resources = 1;
    max_tasks_per_txn = 6;
  }

(* Some site's own or remote interfering set holds four or more
   tasks. *)
let has_long_interfering_set (m : Model.t) =
  let ir = Analysis.Ir.compile m in
  let long l = List.length l >= 4 in
  Array.exists Fun.id
    (Array.mapi
       (fun a (tx : Model.txn) ->
         Array.exists Fun.id
           (Array.mapi
              (fun b _ ->
                let s = Analysis.Ir.site ir ~a ~b in
                long s.Analysis.Ir.own_hp
                || Array.exists
                     (fun (r : Analysis.Ir.remote) ->
                       long r.Analysis.Ir.hp_list)
                     s.Analysis.Ir.remotes)
              tx.Model.tasks))
       m.Model.txns)

(* The kernel identity: the scaled-int kernels reproduce the rational
   reports bit for bit — same bounds, history, sweep counts and verdict —
   under both variants and both best cases, with zero overflow
   fallbacks on these workloads; a model the kernel cannot represent
   (gadget transaction appended) silently falls back to the identical
   rational result; and a long-chain system agrees too.  Its reduced
   run is always compared, its exact run whenever some interfering set
   holds four or more tasks or the scenario space is small.  Refined
   stays off the long chains: it has no early exit, and a long chain
   can take minutes to converge. *)
let kernel_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         "int kernel = rational path, exact and reduced, simple and refined, \
          long chains"
       ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 3;
             max_tasks_per_txn = 3;
           }
         in
         let sys = Workload.Gen.system ~seed spec in
         let m = Model.of_system sys in
         QCheck.assume (scenario_total m < 20_000);
         let engaged =
           Analysis.Ir.timebase m ~horizon_factor:P.default.P.horizon_factor
           <> None
         in
         let with_gadget =
           {
             Model.bounds = Array.append m.Model.bounds [| LB.full |];
             txns =
               Array.append m.Model.txns
                 [|
                   (* large enough that the scaled horizon fails the
                      headroom rule, small enough that the rational
                      horizon still fits native ints *)
                   qtxn "gadget"
                     (Q.of_int (max_int asr 12))
                     [
                       qtask "gadget.t" Q.one Q.one
                         (Array.length m.Model.bounds)
                         1;
                     ];
                 |];
             blocking = Array.append m.Model.blocking [| [| Q.zero |] |];
             release_jitter = Array.append m.Model.release_jitter [| Q.zero |];
           }
         in
         let agrees model base =
           let reference =
             Engine.analyze
               (Engine.create ~params:{ base with P.int_kernel = false } model)
           in
           let counters = Rta.counters () in
           let e = Engine.create ~params:base ~counters model in
           Engine.analyze e = reference && Rta.kernel_fallbacks counters = 0
         in
         let refined base = { base with P.best_case = P.Refined } in
         let chain =
           Model.of_system (Workload.Gen.system ~seed long_chain_spec)
         in
         let long = has_long_interfering_set chain in
         engaged
         && List.for_all
              (fun model ->
                List.for_all (agrees model)
                  [ P.exact; P.default; refined P.exact; refined P.default ])
              [ m; with_gadget ]
         && agrees chain P.default
         && ((scenario_total chain > 2_000 && not long)
            || agrees chain P.exact)))

(* --- delta re-analysis --- *)

(* The server's configuration: no history (a warm plan refuses to
   reconstruct per-iteration history) and otherwise the defaults. *)
let delta_params = { P.default with P.keep_history = false }

let same_verdict (a : Report.t) (b : Report.t) =
  a.Report.results = b.Report.results
  && a.Report.converged = b.Report.converged
  && a.Report.schedulable = b.Report.schedulable

(* Admit-like and revoke-like perturbations of a model: append one
   small transaction on the first platform, or drop the last
   transaction.  Both reuse the platform array so only the transaction
   set moves — exactly what Store snapshots feed the server. *)
let delta_perturbations (m : Model.t) =
  let admitted =
    qtxn "delta.admitted" (Q.of_int 60)
      [ qtask "delta.admitted.t" Q.one Q.one 0 1 ]
  in
  let admit_like =
    {
      m with
      Model.txns = Array.append m.Model.txns [| admitted |];
      blocking = Array.append m.Model.blocking [| [| Q.zero |] |];
      release_jitter = Array.append m.Model.release_jitter [| Q.zero |];
    }
  in
  let n = Array.length m.Model.txns in
  let revoke_like =
    {
      m with
      Model.txns = Array.sub m.Model.txns 0 (n - 1);
      blocking = Array.sub m.Model.blocking 0 (n - 1);
      release_jitter = Array.sub m.Model.release_jitter 0 (n - 1);
    }
  in
  [ admit_like; revoke_like ]

(* The tentpole identity: a warm delta fixed point seeded from the
   previous converged report reproduces the cold analysis bit for bit
   on results, convergence and verdict — for admit-like and revoke-like
   perturbations, both variants, and the integer kernel on or off.  Plans that fall back cold (previous run
   not converged, everything dirty, …) are exercised by the same
   property: analyze_delta must agree with the cold reference either
   way.  Only the outer iteration count may differ — the warm
   trajectory is shorter by construction.  With 3–6 transactions, about
   two draws in five recompute a dirty row in a second warm sweep, where
   the exact search starts from the row's previous response. *)
let delta_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"warm delta = cold analysis, exact and reduced, kernel on and off"
       ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 3 + (seed mod 4);
             max_tasks_per_txn = 3;
           }
         in
         let sys = Workload.Gen.system ~seed spec in
         let prev = Model.of_system sys in
         QCheck.assume (scenario_total prev < 20_000);
         let agrees base next =
           let params = { base with P.keep_history = false } in
           let prev_report = analyze ~params prev in
           let reference = analyze ~params next in
           let e = Engine.create ~params next in
           let r, _ = Engine.analyze_delta e ~prev_model:prev ~prev_report in
           same_verdict r reference
         in
         List.for_all
           (fun next ->
             List.for_all
               (fun kernel ->
                 agrees { P.exact with P.int_kernel = kernel } next
                 && agrees { P.default with P.int_kernel = kernel } next)
               [ true; false ])
           (delta_perturbations prev)))

(* Two independent platforms, so an admission on the second can only
   dirty transactions whose interference set intersects it. *)
let two_platform_model ?(extra = false) () =
  Model.make
    ~bounds:[ LB.full; LB.full ]
    ([
       txn "A" "10" [ task "A.t" "2" "1" 0 2 ];
       txn "B" "12" [ task "B.t" "3" "2" 1 2 ];
     ]
    @ if extra then [ txn "C" "20" [ task "C.t" "1" "1" 1 3 ] ] else [])

let test_delta_localized_admit () =
  let prev = two_platform_model () in
  let next = two_platform_model ~extra:true () in
  let prev_report = analyze ~params:delta_params prev in
  let e = Engine.create ~params:delta_params next in
  (* C (priority 3, platform 1) interferes with B but not with A: the
     dirty closure is {B, C} and A's converged row is carried. *)
  (match Engine.Delta.plan e ~prev_model:prev ~prev_report with
  | Error r -> Alcotest.failf "expected a warm plan, got %s" r
  | Ok p ->
      Alcotest.(check int) "total tasks" 3 (Engine.Delta.total_tasks p);
      Alcotest.(check int) "dirty tasks" 2 (Engine.Delta.dirty_tasks p));
  let r, outcome = Engine.analyze_delta e ~prev_model:prev ~prev_report in
  (match outcome with
  | Engine.Delta_warm { dirty; total; carried } ->
      Alcotest.(check int) "dirty" 2 dirty;
      Alcotest.(check int) "total" 3 total;
      Alcotest.(check int) "carried" 1 carried
  | Engine.Delta_cold { reason } -> Alcotest.failf "fell back cold: %s" reason);
  Alcotest.(check bool) "bit-identical results" true
    (same_verdict r (analyze ~params:delta_params next))

let test_delta_revoke () =
  (* revoking C must re-iterate B (its interference shrank — responses
     can decrease, which is exactly why the plan seeds every survivor
     whose site read the removed row) and carry A *)
  let prev = two_platform_model ~extra:true () in
  let next = two_platform_model () in
  let prev_report = analyze ~params:delta_params prev in
  let e = Engine.create ~params:delta_params next in
  let r, outcome = Engine.analyze_delta e ~prev_model:prev ~prev_report in
  (match outcome with
  | Engine.Delta_warm { dirty; total; carried } ->
      Alcotest.(check int) "dirty" 1 dirty;
      Alcotest.(check int) "total" 2 total;
      Alcotest.(check int) "carried" 1 carried
  | Engine.Delta_cold { reason } -> Alcotest.failf "fell back cold: %s" reason);
  Alcotest.(check bool) "bit-identical results" true
    (same_verdict r (analyze ~params:delta_params next))

let test_delta_revoke_reads_rule () =
  (* R (priority 3) leaves platform 1: L below it read R's row and
     re-iterates, H above it never did and stays carried with A *)
  let model ~with_r =
    Model.make
      ~bounds:[ LB.full; LB.full ]
      ([
         txn "A" "10" [ task "A.t" "2" "1" 0 2 ];
         txn "H" "12" [ task "H.t" "2" "1" 1 5 ];
         txn "L" "30" [ task "L.t" "3" "2" 1 1 ];
       ]
      @ if with_r then [ txn "R" "15" [ task "R.t" "2" "1" 1 3 ] ] else [])
  in
  let prev = model ~with_r:true and next = model ~with_r:false in
  let prev_report = analyze ~params:delta_params prev in
  let e = Engine.create ~params:delta_params next in
  (match Engine.Delta.plan e ~prev_model:prev ~prev_report with
  | Error r -> Alcotest.failf "expected a warm plan, got %s" r
  | Ok p -> Alcotest.(check int) "dirty tasks" 1 (Engine.Delta.dirty_tasks p));
  let r, outcome = Engine.analyze_delta e ~prev_model:prev ~prev_report in
  (match outcome with
  | Engine.Delta_warm { dirty; total; carried } ->
      Alcotest.(check int) "dirty" 1 dirty;
      Alcotest.(check int) "total" 3 total;
      Alcotest.(check int) "carried" 2 carried
  | Engine.Delta_cold { reason } -> Alcotest.failf "fell back cold: %s" reason);
  Alcotest.(check bool) "bit-identical results" true
    (same_verdict r (analyze ~params:delta_params next))

let test_delta_plan_gates () =
  let m = two_platform_model () in
  let converged = analyze ~params:delta_params m in
  let expect_reason want = function
    | Error got -> Alcotest.(check string) want want got
    | Ok _ -> Alcotest.failf "expected cold reason %s" want
  in
  (* a non-converged previous report cannot seed anything *)
  let hopeless =
    analyze ~params:delta_params
      (Model.make
         ~bounds:[ LB.make ~alpha:(q "0.1") ~delta:Q.zero ~beta:Q.zero ]
         [ txn "g" "10" [ task "t" "2" "1" 0 1 ] ])
  in
  let e = Engine.create ~params:delta_params m in
  expect_reason "previous-not-converged"
    (Engine.Delta.plan e ~prev_model:m ~prev_report:hopeless);
  (* history reconstruction is refused, not approximated *)
  let e_hist =
    Engine.create ~params:{ delta_params with P.keep_history = true } m
  in
  expect_reason "history-requested"
    (Engine.Delta.plan e_hist ~prev_model:m ~prev_report:converged);
  (* identical models leave nothing dirty on the admit side, but a
     whole-model change dirties everything *)
  let far =
    Model.make ~bounds:[ LB.full; LB.full ]
      [
        txn "A" "11" [ task "A.t" "2" "1" 0 2 ];
        txn "B" "13" [ task "B.t" "3" "2" 1 2 ];
      ]
  in
  expect_reason "all-dirty"
    (Engine.Delta.plan (Engine.create ~params:delta_params far)
       ~prev_model:m ~prev_report:converged)

(* --- rebinds that carry --- *)

let append_txn ?(jitter = Q.zero) (m : Model.t) (tx : Model.txn) =
  {
    m with
    Model.txns = Array.append m.Model.txns [| tx |];
    blocking =
      Array.append m.Model.blocking
        [| Array.make (Array.length tx.Model.tasks) Q.zero |];
    release_jitter = Array.append m.Model.release_jitter [| jitter |];
  }

let drop_txn (m : Model.t) i =
  let drop a =
    Array.append (Array.sub a 0 i)
      (Array.sub a (i + 1) (Array.length a - i - 1))
  in
  {
    m with
    Model.txns = drop m.Model.txns;
    blocking = drop m.Model.blocking;
    release_jitter = drop m.Model.release_jitter;
  }

let map_txn (m : Model.t) i f =
  {
    m with
    Model.txns =
      Array.mapi (fun a tx -> if a = i then f tx else tx) m.Model.txns;
  }

let set_bound (m : Model.t) r lb =
  {
    m with
    Model.bounds =
      Array.mapi (fun r' b -> if r' = r then lb else b) m.Model.bounds;
  }

(* One model edit of each kind a rebind meets: an admitted or revoked
   transaction (front or middle), a renamed one, new demands, one
   platform's (α, Δ) moved so the lcm grows or shrinks, the platforms
   renumbered with their tasks, and the platforms rotated under tasks
   that stay put. *)
let rebind_edit (m : Model.t) ~kind ~k =
  let n = Model.n_txns m and n_res = Array.length m.Model.bounds in
  let i = k mod n and r = k mod n_res in
  match kind with
  | 0 ->
      let name = Printf.sprintf "rebind.new%d" k in
      append_txn m
        (qtxn name
           (Q.of_int (50 + (10 * (k mod 7))))
           [
             qtask (name ^ ".t")
               (Q.make (1 + (k mod 5)) (3 + (k mod 4)))
               (Q.make 1 (3 + (k mod 4)))
               r
               (1 + (k mod 4));
           ])
  | 1 -> drop_txn m 0
  | 2 -> drop_txn m (n / 2)
  | 3 -> map_txn m i (fun tx -> { tx with Model.tname = tx.Model.tname ^ "'" })
  | 4 ->
      map_txn m i (fun tx ->
          {
            tx with
            Model.tasks =
              Array.map
                (fun (tk : Model.task) ->
                  {
                    tk with
                    Model.c = Q.(tk.Model.c * make 2 3);
                    cb = Q.(tk.Model.cb * make 2 3);
                  })
                tx.Model.tasks;
          })
  | 5 ->
      let lb = m.Model.bounds.(r) in
      let alpha, delta =
        match k mod 3 with
        | 0 -> (Q.make 3 7, Q.(lb.LB.delta + make 1 3))
        | 1 -> (Q.one, Q.zero)
        | _ -> (Q.(lb.LB.alpha * make 9 10), Q.(lb.LB.delta / of_int 2))
      in
      set_bound m r (LB.make ~alpha ~delta ~beta:lb.LB.beta)
  | 6 ->
      {
        Model.bounds =
          Array.init n_res (fun r' ->
              m.Model.bounds.((r' + n_res - 1) mod n_res));
        txns =
          Array.map
            (fun (tx : Model.txn) ->
              {
                tx with
                Model.tasks =
                  Array.map
                    (fun (tk : Model.task) ->
                      { tk with Model.res = (tk.Model.res + 1) mod n_res })
                    tx.Model.tasks;
              })
            m.Model.txns;
        blocking = m.Model.blocking;
        release_jitter = m.Model.release_jitter;
      }
  | _ ->
      {
        m with
        Model.bounds =
          Array.init n_res (fun r' -> m.Model.bounds.((r' + 1) mod n_res));
      }

(* Near the 10-bit headroom: [prev] gains, on the last platform, a
   transaction whose release jitter fills half the headroom at its scale;
   [next] admits a demand with a new prime denominator on the first
   platform, so the carried jitter no longer fits once rescaled.  Both
   sides must answer [None]. *)
let headroom_pair (m : Model.t) ~horizon_factor =
  let n_res = Array.length m.Model.bounds in
  let big =
    qtxn "rebind.big" Q.one
      [ qtask "rebind.big.t" (Q.make 1 100) Q.zero (n_res - 1) 1 ]
  in
  match Analysis.Timebase.of_model (append_txn m big) ~horizon_factor with
  | None -> None
  | Some tb ->
      let jitter = (max_int asr 11) / Analysis.Timebase.scale tb in
      let prev = append_txn ~jitter:(Q.of_int jitter) m big in
      let prime =
        qtxn "rebind.prime" (Q.of_int 100)
          [ qtask "rebind.prime.t" (Q.make 1 1009) Q.zero 0 1 ]
      in
      Some (prev, append_txn prev prime)

(* A placeholder baseline for walks that compare tables only. *)
let prev_report_none =
  {
    Report.results = [||];
    history = [];
    outer_iterations = 0;
    converged = false;
    schedulable = false;
  }

(* A rebound session's scaled tables — rows carried from the previous
   session's, moved onto the new lattice when it changed — equal a
   fresh [Timebase.of_model] of the new model, scale and [None]
   included, over two chained edits; and each warm delta report equals
   the cold one. *)
let carried_timebase_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"carried timebase = fresh Timebase.of_model"
       ~count:300
       QCheck.(
         quad (int_range 1 1000) (int_range 0 8) (int_range 0 8) small_nat)
       (fun (seed, kind1, kind2, k) ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 5;
             max_tasks_per_txn = 3;
           }
         in
         let m = Model.of_system (Workload.Gen.system ~seed spec) in
         let horizon_factor = delta_params.P.horizon_factor in
         let fresh next = Analysis.Timebase.of_model next ~horizon_factor in
         (* The headroom pair's jitters would overflow the analysis
             itself, so only its tables are compared. *)
         let models, reports =
           match (kind1, headroom_pair m ~horizon_factor) with
           | 8, Some (prev, next) ->
               if fresh prev = None || fresh next <> None then
                 QCheck.Test.fail_reportf
                   "seed %d: headroom pair not at the edge" seed;
               ([ prev; next ], false)
           | _ ->
               let m1 = rebind_edit m ~kind:kind1 ~k in
               ([ m; m1; rebind_edit m1 ~kind:kind2 ~k:(k + 1) ], true)
         in
         let rec walk session prev = function
           | [] -> true
           | next :: rest ->
               let session = Engine.with_model session next in
               if Engine.timebase session <> fresh next then
                 QCheck.Test.fail_reportf
                   "seed %d: carried tables differ (edits %d, %d, k %d)" seed
                   kind1 kind2 k;
               if reports then begin
                 let prev_model, prev_report = prev in
                 let report, _ =
                   Engine.analyze_delta session ~prev_model ~prev_report
                 in
                 let cold = analyze ~params:delta_params next in
                 if not (same_verdict report cold) then
                   QCheck.Test.fail_reportf
                     "seed %d: delta report differs (edits %d, %d, k %d)" seed
                     kind1 kind2 k;
                 walk session (next, report) rest
               end
               else walk session prev rest
         in
         match models with
         | first :: rest ->
             let session = Engine.create ~params:delta_params first in
             let report =
               if reports then Engine.analyze session else prev_report_none
             in
             Engine.timebase session = fresh first
             && walk session (first, report) rest
         | [] -> true))

(* The delta plan takes the session's alignment when the previous model
   is the one the session was rebound from, and computes it otherwise;
   either way it is the plan a fresh session computes from scratch. *)
let test_plan_alignment () =
  let base = two_platform_model ~extra:true () in
  let admitted =
    append_txn base
      (txn "D" "25" [ task "D.t" "1" "1" 1 1 ])
  in
  let revoked = drop_txn admitted 1 in
  let prev_report = analyze ~params:delta_params base in
  let admitted_report = analyze ~params:delta_params admitted in
  let same_plan name ~session ~prev_model ~prev_report =
    let fresh = Engine.create ~params:delta_params (Engine.model session) in
    match
      ( Engine.Delta.plan session ~prev_model ~prev_report,
        Engine.Delta.plan fresh ~prev_model ~prev_report )
    with
    | Ok p, Ok q ->
        Alcotest.(check int)
          (name ^ ": dirty tasks")
          (Engine.Delta.dirty_tasks q)
          (Engine.Delta.dirty_tasks p);
        Alcotest.(check bool) (name ^ ": same warm start") true
          (Engine.Delta.warm p = Engine.Delta.warm q)
    | Error e, Error f -> Alcotest.(check string) (name ^ ": same reason") f e
    | _ -> Alcotest.failf "%s: one plan is warm, the other cold" name
  in
  let s0 = Engine.create ~params:delta_params base in
  let s1 = Engine.with_model s0 admitted in
  (* rebound from [base]: the session's own alignment *)
  same_plan "admit" ~session:s1 ~prev_model:base ~prev_report;
  let s2 = Engine.with_model s1 revoked in
  same_plan "revoke" ~session:s2 ~prev_model:admitted
    ~prev_report:admitted_report;
  (* a baseline the session was not rebound from *)
  same_plan "older baseline" ~session:s2 ~prev_model:base ~prev_report;
  (* an equal model that is not the one rebound from *)
  same_plan "equal copy" ~session:s2
    ~prev_model:{ admitted with Model.txns = Array.copy admitted.Model.txns }
    ~prev_report:admitted_report

(* --- seeded analysis --- *)

(* A strictly dominating parameter point for [m]: every platform gains
   rate and loses delay (β stays equal — the verdict is not monotone in
   burstiness), every task shrinks both demands by a quarter, so the
   worst case drops at least as much as the best case (c/4 >= cb/4). *)
let dominating_seed (m : Model.t) =
  let easier (lb : LB.t) =
    LB.make
      ~alpha:Q.((lb.LB.alpha + one) / of_int 2)
      ~delta:Q.(lb.LB.delta / of_int 2)
      ~beta:lb.LB.beta
  in
  let shrink (tk : Model.task) =
    {
      tk with
      Model.c = Q.(tk.Model.c * make 3 4);
      cb = Q.(tk.Model.cb * make 3 4);
    }
  in
  {
    m with
    Model.bounds = Array.map easier m.Model.bounds;
    txns =
      Array.map
        (fun (tx : Model.txn) ->
          { tx with Model.tasks = Array.map shrink tx.Model.tasks })
        m.Model.txns;
  }

(* The probe-ladder identity: a fixed point seeded from a converged
   report at a dominating parameter point reproduces the cold analysis
   bit for bit — results, convergence, verdict — for both variants.
   Seeds whose own analysis did not
   converge exercise the transparent cold fallback through the same
   property.  [verdict_only] must still return the cold verdict even
   when its report is not converged. *)
let seeded_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"seeded warm = cold analysis, exact and reduced"
       ~count:10
       (QCheck.int_range 1 1000)
       (fun seed ->
         let spec =
           {
             Workload.Gen.default_spec with
             Workload.Gen.n_txns = 3;
             max_tasks_per_txn = 3;
           }
         in
         let sys = Workload.Gen.system ~seed spec in
         let target = Model.of_system sys in
         QCheck.assume (scenario_total target < 20_000);
         let seed_model = dominating_seed target in
         let agrees base =
           let params = { base with P.keep_history = false } in
           let seed_report = analyze ~params seed_model in
           let reference = analyze ~params target in
           let e = Engine.create ~params target in
           let r, _ = Engine.analyze_seeded e ~seed_model ~seed_report in
           let rv, _ =
             Engine.analyze_seeded ~verdict_only:true e ~seed_model ~seed_report
           in
           same_verdict r reference
           && rv.Report.schedulable = reference.Report.schedulable
         in
         agrees P.exact && agrees P.default))

let test_seeded_dominance () =
  let m = two_platform_model () in
  let s = dominating_seed m in
  Alcotest.(check bool) "derived seed dominates" true
    (Engine.Seeded.dominates ~seed:s m);
  Alcotest.(check bool) "reflexive" true (Engine.Seeded.dominates ~seed:m m);
  Alcotest.(check bool) "antisymmetric for a strict drop" false
    (Engine.Seeded.dominates ~seed:m s);
  (* burstiness must match exactly in both directions: a larger β grows
     the jitters, so neither side of a β change is a sound seed *)
  let bursty =
    {
      m with
      Model.bounds =
        Array.map
          (fun (lb : LB.t) ->
            LB.make ~alpha:lb.LB.alpha ~delta:lb.LB.delta
              ~beta:Q.(lb.LB.beta + one))
          m.Model.bounds;
    }
  in
  Alcotest.(check bool) "larger beta does not dominate" false
    (Engine.Seeded.dominates ~seed:bursty m);
  Alcotest.(check bool) "smaller beta does not dominate either" false
    (Engine.Seeded.dominates ~seed:m bursty);
  (* the worst case must shrink at least as much as the best case: a
     seed whose cb drops while c stays put can raise the jitters *)
  let cb_only =
    {
      m with
      Model.txns =
        Array.map
          (fun (tx : Model.txn) ->
            {
              tx with
              Model.tasks =
                Array.map
                  (fun (tk : Model.task) ->
                    { tk with Model.cb = Q.(tk.Model.cb / of_int 2) })
                  tx.Model.tasks;
            })
          m.Model.txns;
    }
  in
  Alcotest.(check bool) "cb-only drop does not dominate" false
    (Engine.Seeded.dominates ~seed:cb_only m)

(* A non-dominating seed must be rejected into the cold path — never
   silently used — and the report must still be the cold one. *)
let test_seeded_rejects_non_dominating () =
  let target = two_platform_model () in
  (* harder, not easier: half the rate on every platform *)
  let seed_model =
    {
      target with
      Model.bounds =
        Array.map
          (fun (lb : LB.t) ->
            LB.make
              ~alpha:Q.(lb.LB.alpha / of_int 2)
              ~delta:lb.LB.delta ~beta:lb.LB.beta)
          target.Model.bounds;
    }
  in
  let seed_report = analyze ~params:delta_params seed_model in
  Alcotest.(check bool) "harder seed still converged" true
    seed_report.Report.converged;
  let e = Engine.create ~params:delta_params target in
  let r, outcome = Engine.analyze_seeded e ~seed_model ~seed_report in
  (match outcome with
  | Engine.Delta_cold { reason } ->
      Alcotest.(check string) "cold reason" "seed-not-dominating" reason
  | Engine.Delta_warm _ -> Alcotest.fail "non-dominating seed was used");
  Alcotest.(check bool) "cold report returned" true
    (same_verdict r (analyze ~params:delta_params target));
  (* structure changes are their own reason: the squeeze argument needs
     the same transactions and chains on both sides *)
  match delta_perturbations target with
  | admit_like :: _ -> (
      let seed_report = analyze ~params:delta_params target in
      match
        Engine.analyze_seeded
          (Engine.create ~params:delta_params admit_like)
          ~seed_model:target ~seed_report
      with
      | _, Engine.Delta_cold { reason } ->
          Alcotest.(check string) "mismatch reason" "seed-structure-mismatch"
            reason
      | _, Engine.Delta_warm _ ->
          Alcotest.fail "structure mismatch was not rejected")
  | [] -> Alcotest.fail "no perturbations"

(* --- platform-local probes --- *)

(* A random system with chains (3–8 transactions, up to 3 tasks, 2–3
   platforms) and a sequence of 3–5 probes, each moving the bounds of
   one or two platforms: α by 3/4, 1 or 5/4 (at most 1), Δ halved,
   kept or raised by 1/2 — so a probe is often neither easier nor
   harder than the one before it. *)
let probe_sequence seed =
  let st = Random.State.make [| seed; 26 |] in
  let spec =
    {
      Workload.Gen.default_spec with
      Workload.Gen.n_txns = 3 + Random.State.int st 6;
      max_tasks_per_txn = 3;
      n_resources = 2 + Random.State.int st 2;
    }
  in
  let m0 = Model.of_system (Workload.Gen.system ~seed spec) in
  let n_res = Array.length m0.Model.bounds in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let move bounds r =
    let lb = bounds.(r) in
    let alpha =
      Q.min Q.one Q.(lb.LB.alpha * pick [ make 3 4; one; make 5 4 ])
    and delta =
      pick Q.[ lb.LB.delta / of_int 2; lb.LB.delta; lb.LB.delta + make 1 2 ]
    in
    bounds.(r) <- LB.make ~alpha ~delta ~beta:lb.LB.beta
  in
  let rec probes k bounds acc =
    if k = 0 then List.rev acc
    else begin
      let bounds = Array.copy bounds in
      let r = Random.State.int st n_res in
      move bounds r;
      if Random.State.bool st then
        move bounds ((r + 1 + Random.State.int st (n_res - 1)) mod n_res);
      probes (k - 1) bounds ({ m0 with Model.bounds } :: acc)
    end
  in
  (m0, probes (3 + Random.State.int st 3) m0.Model.bounds [])

(* A probe planned against the last converged report of the sequence
   before it is the cold analysis of a fresh session, bit for bit,
   iteration count included — converged or not — for both variants,
   kernel on and off; a seeded run from that report, where it
   dominates the probe, gives the cold report whenever it converges. *)
let pinned_identity_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"platform-local probe = cold analysis, exact and reduced, kernel \
              on and off"
       ~count:20 (QCheck.int_range 1 1000)
       (fun seed ->
         let m0, probes = probe_sequence seed in
         QCheck.assume (scenario_total m0 < 20_000);
         let agrees base =
           let params = { base with P.keep_history = false } in
           let session = Engine.create ~params m0 in
           let cold m = analyze ~params m in
           let newer reference m (c : Report.t) =
             if c.Report.converged then Some (m, c) else reference
           in
           let rec walk reference = function
             | [] -> true
             | m :: rest ->
                 let c = cold m in
                 let ok =
                   match reference with
                   | None -> true
                   | Some (rm, rr) ->
                       let probe = Engine.with_model session m in
                       let p, _ =
                         Engine.analyze_pinned probe ~reference_model:rm
                           ~reference_report:rr
                       in
                       same_verdict p c
                       && p.Report.outer_iterations = c.Report.outer_iterations
                       && ((not (Engine.Seeded.dominates ~seed:rm m))
                          ||
                          let s, _ =
                            Engine.analyze_seeded probe ~seed_model:rm
                              ~seed_report:rr
                          in
                          (not s.Report.converged) || same_verdict s c)
                 in
                 ok && walk (newer reference m c) rest
           in
           walk (newer None m0 (cold m0)) probes
         in
         List.for_all
           (fun kernel ->
             agrees { P.exact with P.int_kernel = kernel }
             && agrees { P.default with P.int_kernel = kernel })
           [ true; false ]))

(* Three platforms at α = 1/2, Δ = 1: A alone on P0; single-task B and
   C on P1; the chain D on P2, whose second task inherits the first's
   response jitter (R − Rbest = 5 − 2). *)
let local_probe_model () =
  let half = LB.make ~alpha:(q "0.5") ~delta:Q.one ~beta:Q.zero in
  Model.make ~bounds:[ half; half; half ]
    [
      txn "A" "20" [ task "A.t" "2" "1" 0 1 ];
      txn "B" "10" [ task "B.t" "1" "1" 1 2 ];
      txn "C" "20" [ task "C.t" "2" "1" 1 1 ];
      txn "D" "40" [ task "D.0" "2" "1" 2 2; task "D.1" "2" "1" 2 1 ];
    ]

(* A probe that halves P0's rate, planned against the base report. *)
let local_probe () =
  let m = local_probe_model () in
  let reference = analyze ~params:delta_params m in
  let bounds = Array.copy m.Model.bounds in
  bounds.(0) <- LB.make ~alpha:(q "0.25") ~delta:Q.one ~beta:Q.zero;
  let events = ref [] in
  let session =
    Engine.with_model
      (Engine.create ~params:delta_params
         ~sink:(fun e -> events := e :: !events)
         m)
      { m with Model.bounds }
  in
  (m, reference, session, events)

let test_pinned_single_tasks () =
  let m, reference, session, events = local_probe () in
  (match
     Engine.Seeded.plan session ~base_model:m ~base_report:reference
       ~seeded:false
   with
  | Ok p ->
      Alcotest.(check (array bool))
        "A moved, D is a chain; B and C are pinned"
        [| true; false; false; true |]
        (Engine.Delta.warm p).Analysis.Timeline.dirty;
      Alcotest.(check int) "dirty tasks" 3 (Engine.Delta.dirty_tasks p)
  | Error e -> Alcotest.failf "plan refused: %s" e);
  let r, outcome =
    Engine.analyze_pinned session ~reference_model:m
      ~reference_report:reference
  in
  (match outcome with
  | Engine.Delta_warm { dirty; total; carried } ->
      Alcotest.(check (list int)) "outcome" [ 3; 5; 2 ] [ dirty; total; carried ]
  | Engine.Delta_cold { reason } -> Alcotest.failf "ran cold: %s" reason);
  Alcotest.(check bool)
    "the probe said what it carried" true
    (List.exists
       (function
         | Engine.Delta { dirty = 3; total = 5; carried = 2 } -> true
         | _ -> false)
       !events);
  let cold = analyze ~params:delta_params (Engine.model session) in
  Alcotest.(check bool) "cold report" true (same_verdict r cold);
  Alcotest.(check int) "cold iteration count" cold.Report.outer_iterations
    r.Report.outer_iterations

let test_unstable_chain_iterated () =
  let m, reference, session, _ = local_probe () in
  check_q "D.1 converged at a non-zero jitter" (q "3")
    reference.Report.results.(3).(1).Report.jitter;
  (* D's constants are the reference's, but a cold run starts D.1 at 0:
     pinned at 3 it would skip the sweep that moves it there *)
  match
    Engine.Seeded.plan session ~base_model:m ~base_report:reference
      ~seeded:false
  with
  | Ok p ->
      Alcotest.(check bool)
        "D is iterated" true
        (Engine.Delta.warm p).Analysis.Timeline.dirty.(3)
  | Error e -> Alcotest.failf "plan refused: %s" e

(* --- the IR against Eq. 17 --- *)

(* Placement shapes the IR must get right: three to five platforms,
   uniform priorities over three levels (ties across transactions), and
   chains whose tasks land on independently drawn platforms.  The IR
   reads placement and priorities only, so no demand is ever analysed. *)
let ir_model seed =
  let st = Random.State.make [| seed |] in
  let spec =
    {
      Workload.Gen.default_spec with
      Workload.Gen.n_resources = 3 + Random.State.int st 3;
      n_txns = 2 + Random.State.int st 7;
      max_tasks_per_txn = 1 + Random.State.int st 4;
      rm_priorities = false;
      prio_levels = 3;
    }
  in
  Model.of_system (Workload.Gen.system ~seed spec)

(* The site of (a, b) straight from Eq. 17: the own transaction's
   interferers, then every other transaction with interferers, in
   ascending index, each a digit of the mixed-radix scenario index. *)
let reference_site m ~a ~b =
  let own_hp = Analysis.Ir.hp m ~i:a ~a ~b in
  let remotes =
    List.init (Model.n_txns m) Fun.id
    |> List.filter_map (fun i ->
           match Analysis.Ir.hp m ~i ~a ~b with
           | hp when i <> a && hp <> [] ->
               Some
                 {
                   Analysis.Ir.txn = i;
                   choices = Array.of_list hp;
                   hp_list = hp;
                 }
           | _ -> None)
    |> Array.of_list
  in
  let n_rem = Array.length remotes in
  let stride = Array.make (n_rem + 1) 1 in
  Array.iteri
    (fun ri (r : Analysis.Ir.remote) ->
      stride.(ri + 1) <- stride.(ri) * Array.length r.Analysis.Ir.choices)
    remotes;
  (own_hp, own_hp @ [ b ], remotes, stride, stride.(n_rem))

let ir_sites_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"per-platform sites = Eq. 17 reference" ~count:200
       (QCheck.int_range 1 100_000)
       (fun seed ->
         let m = ir_model seed in
         let ir = Analysis.Ir.compile m in
         let scenarios = ref 0 in
         Array.iteri
           (fun a (tx : Model.txn) ->
             Array.iteri
               (fun b _ ->
                 let own_hp, own, remotes, stride, total =
                   reference_site m ~a ~b
                 in
                 let s = Analysis.Ir.site ir ~a ~b in
                 scenarios := !scenarios + (List.length own * total);
                 if
                   not
                     (s.Analysis.Ir.a = a && s.Analysis.Ir.b = b
                     && s.Analysis.Ir.own_hp = own_hp
                     && s.Analysis.Ir.own = own
                     && s.Analysis.Ir.remotes = remotes
                     && s.Analysis.Ir.stride = stride
                     && s.Analysis.Ir.total = total)
                 then QCheck.Test.fail_reportf "seed %d: site (%d, %d)" seed a b)
               tx.Model.tasks)
           m.Model.txns;
         Analysis.Ir.exact_scenarios ir = !scenarios))

(* The dirty closure against the dense one: transaction a turns dirty
   when one of its sites reads a dirty row — its own, or a remote
   transaction holding one of the site's Eq. 17 interferers.  The same
   dense rows decide which sites a sweep recomputes ([Ir.stale]). *)
let ir_closure_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"platform-level dirty closure = dense closure"
       ~count:200 (QCheck.int_range 1 100_000) (fun seed ->
         let m = ir_model seed in
         let n = Model.n_txns m in
         let st = Random.State.make [| seed; 1 |] in
         let seed_rows = Array.init n (fun _ -> Random.State.int st 4 = 0) in
         let reads ~a ~b i = i = a || Analysis.Ir.hp m ~i ~a ~b <> [] in
         let ir = Analysis.Ir.compile m in
         let stale = Analysis.Ir.stale ir ~dirty:seed_rows in
         let stale_ok =
           Array.for_all Fun.id
             (Array.mapi
                (fun a (tx : Model.txn) ->
                  Array.for_all Fun.id
                    (Array.mapi
                       (fun b _ ->
                         stale ~a ~b
                         = List.exists
                             (fun i -> seed_rows.(i) && reads ~a ~b i)
                             (List.init n Fun.id))
                       tx.Model.tasks))
                m.Model.txns)
         in
         let dense = Array.copy seed_rows in
         let changed = ref true in
         while !changed do
           changed := false;
           Array.iteri
             (fun a (tx : Model.txn) ->
               if
                 (not dense.(a))
                 && Array.exists Fun.id
                      (Array.mapi
                         (fun b _ ->
                           List.exists
                             (fun i -> dense.(i) && reads ~a ~b i)
                             (List.init n Fun.id))
                         tx.Model.tasks)
               then begin
                 dense.(a) <- true;
                 changed := true
               end)
             m.Model.txns
         done;
         stale_ok && Analysis.Ir.dirty_closure ir ~seed:seed_rows = dense))

let () =
  Alcotest.run "analysis"
    [
      ("busy", [ Alcotest.test_case "fixpoint" `Quick test_fixpoint ]);
      ( "interference",
        [
          Alcotest.test_case "hp sets (Eq. 17)" `Quick test_hp_sets;
          Alcotest.test_case "phase and jobs (Eq. 7-10)" `Quick test_phase_and_jobs;
          Alcotest.test_case "contribution (Eq. 11, 15)" `Quick
            test_contribution_table3;
        ] );
      ( "classical",
        [
          Alcotest.test_case "textbook values" `Quick test_classical_textbook;
          Alcotest.test_case "holistic degenerates to classical" `Quick
            test_classical_equivalence;
          Alcotest.test_case "jitter" `Quick test_classical_with_jitter;
          Alcotest.test_case "abstract platform" `Quick
            test_classical_on_abstract_platform;
          Alcotest.test_case "utilization tests" `Quick test_utilization_tests;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "divergence detected" `Quick test_divergence;
          Alcotest.test_case "deadline miss detected" `Quick
            test_deadline_miss_detected;
          Alcotest.test_case "blocking term" `Quick test_blocking_term;
          Alcotest.test_case "release jitter" `Quick test_release_jitter;
          Alcotest.test_case "multi-job busy window (J > T)" `Quick
            test_multi_job_busy_window;
          Alcotest.test_case "named-parameter errors" `Quick test_model_name_errors;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "pp smoke" `Quick test_report_pp_smoke;
          Alcotest.test_case "bound helpers" `Quick test_bound_helpers;
          Alcotest.test_case "classical divergence" `Quick test_classical_divergent;
          Alcotest.test_case "early-exit flag" `Quick test_early_exit_flag;
        ] );
      ( "best_case",
        [
          Alcotest.test_case "simple (Table 1 offsets)" `Quick test_best_case_simple;
          Alcotest.test_case "refined dominates simple" `Quick
            test_best_case_refined_dominates;
        ] );
      ( "variants",
        [
          Alcotest.test_case "exact <= reduced" `Quick test_exact_never_exceeds_reduced;
          Alcotest.test_case "scenario counts" `Quick test_scenario_count;
        ] );
      ( "pruning",
        [
          ablation_identity_prop;
          site_oracle_prop;
          carry_forward_prop;
          Alcotest.test_case "keep_history off" `Quick test_keep_history;
          Alcotest.test_case "scenario counters" `Quick test_scenario_counters;
        ] );
      ( "engine",
        [
          engine_identity_prop;
          Alcotest.test_case "session reuse" `Quick test_session_reuse;
          Alcotest.test_case "overrides" `Quick test_engine_overrides;
          Alcotest.test_case "model rebinding" `Quick test_engine_with_model;
          Alcotest.test_case "events" `Quick test_engine_events;
          Alcotest.test_case "classical view" `Quick test_engine_classical_view;
        ] );
      ( "int kernel",
        [
          kernel_identity_prop;
          kernel_eval_prop;
          arith_prop;
          Alcotest.test_case "int arithmetic edges" `Quick test_arith_edges;
          Alcotest.test_case "kernel overflow boundary" `Quick
            test_kernel_overflow_boundary;
          Alcotest.test_case "timebase of the paper model" `Quick
            test_timebase_of_model;
          Alcotest.test_case "unrepresentable models fall back" `Quick
            test_kernel_unrepresentable;
          Alcotest.test_case "mid-analysis overflow falls back" `Quick
            test_kernel_runtime_fallback;
        ] );
      ( "delta",
        [
          delta_identity_prop;
          Alcotest.test_case "localized admit dirties the intersection" `Quick
            test_delta_localized_admit;
          Alcotest.test_case "revoke re-iterates the survivors" `Quick
            test_delta_revoke;
          Alcotest.test_case "revoke carries the survivors above it" `Quick
            test_delta_revoke_reads_rule;
          Alcotest.test_case "plan gates" `Quick test_delta_plan_gates;
          carried_timebase_prop;
          Alcotest.test_case "plan through the session's alignment" `Quick
            test_plan_alignment;
        ] );
      ( "seeded",
        [
          seeded_identity_prop;
          Alcotest.test_case "dominance order" `Quick test_seeded_dominance;
          Alcotest.test_case "non-dominating seed runs cold" `Quick
            test_seeded_rejects_non_dominating;
          pinned_identity_prop;
          Alcotest.test_case "untouched single-task platform is pinned" `Quick
            test_pinned_single_tasks;
          Alcotest.test_case "unstable chain on an untouched platform iterates"
            `Quick test_unstable_chain_iterated;
        ] );
      ("ir", [ ir_sites_prop; ir_closure_prop ]);
    ]
