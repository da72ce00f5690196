(* End-to-end properties across the whole stack:

   1. Soundness: for random systems, the simulator (one legal behaviour)
      never observes a response above the analysis bound (the worst over
      all legal behaviours).
   2. Exact vs reduced: the reduced analysis is an upper bound.
   3. Full pipeline: assembly -> .hsc text -> reload -> derive ->
      analysis gives identical results.
   4. Monotonicity: enlarging a platform (more rate / less delay) never
      worsens any bound. *)

module Q = Rational
module LB = Platform.Linear_bound
module Model = Analysis.Model
module Report = Analysis.Report
module Engine = Simulator.Engine
module Stats = Simulator.Stats
module G = Workload.Gen

let analyze_model ?params m =
  Analysis.Engine.analyze (Analysis.Engine.create ?params m)

let q = Q.of_decimal_string

let bound_of report ~txn ~task =
  report.Report.results.(txn).(task).Report.response

(* --- 1. simulation never exceeds the analysis --- *)

(* A report's finite values are guaranteed upper bounds only when the
   outer iteration converged; non-converged reports (early exit or cap)
   are intermediate iterates and are skipped. *)
let check_soundness ~seed ~spec ~exec ~horizon =
  let sys = G.system ~seed spec in
  let report = analyze_model (Model.of_system sys) in
  if report.Report.converged then begin
    let res =
      Engine.run
        ~config:{ Engine.default_config with horizon = q horizon; exec; seed }
        sys
    in
    Stats.iter res.Engine.stats (fun ~txn ~task s ->
        match bound_of report ~txn ~task with
        | Report.Divergent -> ()
        | Report.Finite b ->
            if not Q.(s.Stats.max_response <= b) then
              Alcotest.failf "seed %d: observed %s > bound %s for τ%d,%d" seed
                (Q.to_string s.Stats.max_response)
                (Q.to_string b) txn task)
  end

let test_soundness_fluid () =
  for seed = 1 to 15 do
    check_soundness ~seed ~spec:G.default_spec ~exec:Engine.Worst ~horizon:"8000"
  done

let test_soundness_servers () =
  let spec = { G.default_spec with G.server_platforms = true } in
  for seed = 1 to 10 do
    check_soundness ~seed ~spec ~exec:Engine.Worst ~horizon:"8000"
  done

let test_soundness_random_exec () =
  for seed = 1 to 10 do
    check_soundness ~seed ~spec:G.default_spec ~exec:Engine.Uniform ~horizon:"8000"
  done

let test_soundness_random_phases () =
  (* the analysis bounds the worst case over every phasing; random
     initial phases and per-instance jitter draws must stay below it *)
  for seed = 1 to 10 do
    let sys = G.system ~seed G.default_spec in
    let report = analyze_model (Model.of_system sys) in
    if report.Report.converged then begin
      let res =
        Engine.run
          ~config:
            {
              Engine.default_config with
              horizon = q "8000";
              exec = Engine.Uniform;
              phases = `Uniform;
              jitter = `Uniform;
              seed;
            }
          sys
      in
      Stats.iter res.Engine.stats (fun ~txn ~task s ->
          match bound_of report ~txn ~task with
          | Report.Divergent -> ()
          | Report.Finite b ->
              if not Q.(s.Stats.max_response <= b) then
                Alcotest.failf "seed %d: phased obs %s > bound %s (t%d,%d)" seed
                  (Q.to_string s.Stats.max_response)
                  (Q.to_string b) txn task)
    end
  done

let test_soundness_nested_platforms () =
  (* systems on three-level platforms: composed bounds still dominate *)
  let nested name =
    Platform.Resource.of_supply ~name
      (Platform.Supply.Nested
         {
           inner =
             Platform.Supply.Periodic_server { budget = q "2"; period = q "5" };
           outer =
             Platform.Supply.Static_slots
               { frame = q "4"; slots = [ (q "0", q "3") ] };
         })
  in
  let sys =
    Transaction.System.make
      ~resources:[ nested "N1"; Platform.Resource.full ~name:"cpu" () ]
      [
        Transaction.Txn.make ~name:"g1" ~period:(q "100") ~deadline:(q "100")
          [
            Transaction.Task.make ~name:"a" ~wcet:(q "2") ~bcet:(q "1")
              ~resource:0 ~priority:2 ();
            Transaction.Task.make ~name:"b" ~wcet:(q "1") ~bcet:(q "1")
              ~resource:1 ~priority:1 ();
          ];
        Transaction.Txn.make ~name:"g2" ~period:(q "40") ~deadline:(q "80")
          [
            Transaction.Task.make ~name:"c" ~wcet:(q "3") ~bcet:(q "2")
              ~resource:0 ~priority:1 ();
          ];
      ]
  in
  let report = analyze_model (Model.of_system sys) in
  Alcotest.(check bool) "converged" true report.Report.converged;
  let res =
    Engine.run
      ~config:{ Engine.default_config with horizon = q "20000"; exec = Engine.Worst }
      sys
  in
  Stats.iter res.Engine.stats (fun ~txn ~task s ->
      match bound_of report ~txn ~task with
      | Report.Divergent -> Alcotest.fail "nested bound divergent"
      | Report.Finite b ->
          if not Q.(s.Stats.max_response <= b) then
            Alcotest.failf "nested: obs %s > bound %s"
              (Q.to_string s.Stats.max_response)
              (Q.to_string b))

let test_soundness_paper_example () =
  let sys = Hsched.Paper_example.system () in
  let report = Hsched.Paper_example.report () in
  List.iter
    (fun exec ->
      let res =
        Engine.run
          ~config:{ Engine.default_config with horizon = q "50000"; exec }
          sys
      in
      Stats.iter res.Engine.stats (fun ~txn ~task s ->
          match bound_of report ~txn ~task with
          | Report.Divergent -> Alcotest.fail "paper example diverged"
          | Report.Finite b ->
              if not Q.(s.Stats.max_response <= b) then
                Alcotest.failf "observed %s > bound %s"
                  (Q.to_string s.Stats.max_response)
                  (Q.to_string b)))
    [ Engine.Worst; Engine.Best; Engine.Uniform ]

(* --- 2. reduced bounds exact --- *)

let test_reduced_bounds_exact () =
  for seed = 20 to 32 do
    let spec = { G.default_spec with G.n_txns = 3; max_tasks_per_txn = 3 } in
    let sys = G.system ~seed spec in
    let m = Model.of_system sys in
    let exact = analyze_model ~params:Analysis.Params.exact m in
    let reduced = analyze_model m in
    Array.iteri
      (fun a row ->
        Array.iteri
          (fun b (res : Report.task_result) ->
            match (res.Report.response, bound_of reduced ~txn:a ~task:b) with
            | Report.Finite e, Report.Finite r ->
                if not Q.(e <= r) then
                  Alcotest.failf "seed %d τ%d,%d: exact %s > reduced %s" seed a b
                    (Q.to_string e) (Q.to_string r)
            | Report.Divergent, Report.Finite r ->
                Alcotest.failf "seed %d τ%d,%d: exact ∞ but reduced %s" seed a b
                  (Q.to_string r)
            | _, Report.Divergent -> ())
          row)
      exact.Report.results
  done

(* --- 3. the full pipeline is stable --- *)

let test_pipeline_stability () =
  for seed = 1 to 5 do
    let asm =
      G.chain_assembly ~seed ~n_chains:2 ~chain_length:2 ~cross_host:(seed mod 2 = 0) ()
    in
    let direct = Transaction.Derive.derive_exn asm in
    let report_direct = analyze_model (Model.of_system direct) in
    let reloaded =
      match Spec.load (Spec.to_string asm) with
      | Ok a -> a
      | Error es -> Alcotest.failf "reload: %s" (String.concat "; " es)
    in
    let indirect = Transaction.Derive.derive_exn reloaded in
    let report_indirect = analyze_model (Model.of_system indirect) in
    Alcotest.(check bool) "same verdict" report_direct.Report.schedulable
      report_indirect.Report.schedulable;
    Array.iteri
      (fun a row ->
        Array.iteri
          (fun b (res : Report.task_result) ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d response %d,%d" seed a b)
              true
              (Report.equal_bound res.Report.response
                 (bound_of report_indirect ~txn:a ~task:b)))
          row)
      report_direct.Report.results
  done

(* --- 4. platform monotonicity --- *)

let improve (b : LB.t) =
  LB.make
    ~alpha:(Q.min Q.one (Q.mul b.LB.alpha (q "1.25")))
    ~delta:(Q.mul b.LB.delta (q "0.5"))
    ~beta:b.LB.beta

let test_platform_monotonicity () =
  for seed = 40 to 48 do
    let sys = G.system ~seed G.default_spec in
    let m = Model.of_system sys in
    let better = { m with Model.bounds = Array.map improve m.Model.bounds } in
    let r0 = analyze_model m and r1 = analyze_model better in
    if r0.Report.converged && r1.Report.converged then
    Array.iteri
      (fun a row ->
        Array.iteri
          (fun b (res : Report.task_result) ->
            match (res.Report.response, bound_of r1 ~txn:a ~task:b) with
            | Report.Finite old_r, Report.Finite new_r ->
                if not Q.(new_r <= old_r) then
                  Alcotest.failf
                    "seed %d τ%d,%d: improving the platform worsened %s -> %s"
                    seed a b (Q.to_string old_r) (Q.to_string new_r)
            | Report.Divergent, _ -> ()
            | Report.Finite r, Report.Divergent ->
                Alcotest.failf "seed %d τ%d,%d: %s became divergent" seed a b
                  (Q.to_string r))
          row)
      r0.Report.results
  done

(* --- monotonicity in task parameters --- *)

let scale_task (m : Model.t) ~txn ~task factor =
  {
    m with
    Model.txns =
      Array.mapi
        (fun a (tx : Model.txn) ->
          if a <> txn then tx
          else
            {
              tx with
              Model.tasks =
                Array.mapi
                  (fun b (tk : Model.task) ->
                    if b <> task then tk
                    else
                      {
                        tk with
                        Model.c = Q.(tk.Model.c * factor);
                        cb = Q.(tk.Model.cb * factor);
                      })
                  tx.Model.tasks;
            })
        m.Model.txns;
  }

let assert_pointwise_dominates ~msg r_small r_big =
  (* only fixed points are comparable; early-exited runs are partial *)
  if not (r_small.Report.converged && r_big.Report.converged) then ()
  else
  Array.iteri
    (fun a row ->
      Array.iteri
        (fun b (res : Report.task_result) ->
          match (res.Report.response, bound_of r_big ~txn:a ~task:b) with
          | Report.Finite small, Report.Finite big ->
              if not Q.(small <= big) then
                Alcotest.failf "%s: τ%d,%d worsened %s -> %s" msg a b
                  (Q.to_string big) (Q.to_string small)
          | Report.Finite _, Report.Divergent -> ()
          | Report.Divergent, Report.Finite big ->
              Alcotest.failf "%s: τ%d,%d divergent became %s" msg a b
                (Q.to_string big)
          | Report.Divergent, Report.Divergent -> ())
        row)
    r_small.Report.results

let test_wcet_monotonicity () =
  (* growing one task's demand never shrinks any response bound *)
  for seed = 60 to 66 do
    let sys = G.system ~seed G.default_spec in
    let m = Model.of_system sys in
    let base = analyze_model m in
    let grown = analyze_model (scale_task m ~txn:0 ~task:0 (q "1.5")) in
    assert_pointwise_dominates
      ~msg:(Printf.sprintf "seed %d wcet growth" seed)
      base grown
  done

let test_jitter_monotonicity () =
  (* adding external release jitter never shrinks any response bound *)
  for seed = 70 to 76 do
    let sys = G.system ~seed G.default_spec in
    let m = Model.of_system sys in
    let base = analyze_model m in
    let jittered =
      let rj = Array.copy m.Model.release_jitter in
      rj.(0) <- Q.(rj.(0) + q "7");
      analyze_model { m with Model.release_jitter = rj }
    in
    assert_pointwise_dominates
      ~msg:(Printf.sprintf "seed %d jitter growth" seed)
      base jittered
  done

let test_blocking_monotonicity () =
  for seed = 80 to 84 do
    let sys = G.system ~seed G.default_spec in
    let m = Model.of_system sys in
    let base = analyze_model m in
    let blocked =
      let bl = Array.map Array.copy m.Model.blocking in
      bl.(0).(0) <- Q.(bl.(0).(0) + q "3");
      analyze_model { m with Model.blocking = bl }
    in
    assert_pointwise_dominates
      ~msg:(Printf.sprintf "seed %d blocking growth" seed)
      base blocked
  done

(* --- derived component chains: derivation + analysis + simulation --- *)

let test_chain_assembly_soundness () =
  for seed = 1 to 6 do
    let asm =
      G.chain_assembly ~seed ~n_chains:2 ~chain_length:3
        ~cross_host:(seed mod 2 = 0) ()
    in
    let sys = Transaction.Derive.derive_exn asm in
    let report = analyze_model (Model.of_system sys) in
    if report.Report.converged then
      let res =
        Engine.run
          ~config:
            { Engine.default_config with horizon = q "10000"; exec = Engine.Worst }
          sys
      in
      Stats.iter res.Engine.stats (fun ~txn ~task s ->
          match bound_of report ~txn ~task with
          | Report.Divergent -> ()
          | Report.Finite b ->
              if not Q.(s.Stats.max_response <= b) then
                Alcotest.failf "chain seed %d: τ%d,%d observed %s > bound %s" seed
                  txn task
                  (Q.to_string s.Stats.max_response)
                  (Q.to_string b))
  done

(* --- deadline misses align with the verdict --- *)

let test_no_misses_when_schedulable () =
  for seed = 1 to 10 do
    let sys = G.system ~seed G.default_spec in
    let report = analyze_model (Model.of_system sys) in
    if report.Report.schedulable then begin
      let res =
        Engine.run
          ~config:{ Engine.default_config with horizon = q "10000"; exec = Engine.Worst }
          sys
      in
      Alcotest.(check int) (Printf.sprintf "seed %d misses" seed) 0
        res.Engine.deadline_misses
    end
  done

let () =
  Alcotest.run "integration"
    [
      ( "soundness",
        [
          Alcotest.test_case "fluid platforms" `Slow test_soundness_fluid;
          Alcotest.test_case "server platforms" `Slow test_soundness_servers;
          Alcotest.test_case "random execution" `Slow test_soundness_random_exec;
          Alcotest.test_case "random phases and jitter" `Slow
            test_soundness_random_phases;
          Alcotest.test_case "nested platforms" `Quick
            test_soundness_nested_platforms;
          Alcotest.test_case "paper example" `Quick test_soundness_paper_example;
        ] );
      ( "analysis variants",
        [ Alcotest.test_case "reduced bounds exact" `Slow test_reduced_bounds_exact ] );
      ( "pipeline",
        [ Alcotest.test_case "spec round trip preserves analysis" `Quick test_pipeline_stability ] );
      ( "monotonicity",
        [
          Alcotest.test_case "platform improvement" `Slow test_platform_monotonicity;
          Alcotest.test_case "wcet growth" `Slow test_wcet_monotonicity;
          Alcotest.test_case "jitter growth" `Slow test_jitter_monotonicity;
          Alcotest.test_case "blocking growth" `Slow test_blocking_monotonicity;
        ] );
      ( "derived chains",
        [
          Alcotest.test_case "assembly soundness" `Slow
            test_chain_assembly_soundness;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "no misses when schedulable" `Slow
            test_no_misses_when_schedulable;
        ] );
    ]
