(* Benchmark & reproduction harness.

   Regenerates every table and figure of the paper (IPPS 2006,
   Lorente/Lipari/Bini) from this implementation, prints paper-reported
   values next to measured ones, runs the extension experiments listed
   in DESIGN.md (X1-X4), and times the pipeline with Bechamel — one
   Test.make per paper artefact.

   Run with: dune exec bench/main.exe            (everything)
             dune exec bench/main.exe -- list    (section names)
             dune exec bench/main.exe -- <name>  (one section)
   Results go to BENCH_analysis.json (--out FILE: elsewhere), keyed by
   section: each record holds the section's checks and metrics, whether
   it ran under --quick, the git revision, the core count and the
   clock.  A run replaces the records of the sections it ran and keeps
   the others; a missing or unparsable file starts empty. *)

module Q = Rational
module LB = Platform.Linear_bound
module S = Platform.Supply
module Report = Analysis.Report
module Model = Analysis.Model
module Engine = Simulator.Engine
module Stats = Simulator.Stats

let q = Q.of_decimal_string

let dec x = Format.asprintf "%a" Q.pp_decimal x

let bound = function Report.Divergent -> "inf" | Report.Finite x -> dec x

let header title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every PASS/FAIL check and the headline    *)
(* numbers are also recorded in BENCH_analysis.json, per section, so   *)
(* CI can assert on them without scraping the human-readable output.   *)
(* ------------------------------------------------------------------ *)

let quick = ref false
(* --quick: identity/soundness checks only — skip the timing sweeps
   whose numbers are meaningless on loaded CI machines *)

let out_path = ref "BENCH_analysis.json"

(* The running section's checks and metrics, newest first. *)
let checks : (string * bool) list ref = ref []

let metrics : (string * float) list ref = ref []

(* The failed checks of the whole run, and the total count. *)
let failures : string list ref = ref []

let n_checks = ref 0

let check name ok =
  checks := (name, ok) :: !checks;
  incr n_checks;
  if not ok then failures := name :: !failures;
  Format.printf "%s: %s@." name (if ok then "PASS" else "FAIL")

let metric name v = metrics := (name, v) :: !metrics

(* ------------------------------------------------------------------ *)
(* Figure 3: supply functions of a periodic server                     *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  header "Figure 3 — Zmin/Zmax of a periodic server (Q = 2, P = 5)";
  let server = S.Periodic_server { budget = q "2"; period = q "5" } in
  let b = S.linear_bound server in
  Format.printf "linear abstraction: α = %s, Δ = %s, β = %s@." (dec b.LB.alpha)
    (dec b.LB.delta) (dec b.LB.beta);
  Format.printf "%6s %10s %12s %10s %12s@." "t" "α(t-Δ)" "Zmin(t)" "Zmax(t)"
    "β+αt";
  let ok = ref true in
  for i = 0 to 30 do
    let t = Q.make i 2 in
    let zmin = S.z_min server t and zmax = S.z_max server t in
    let lo = LB.supply_lower b t and hi = LB.supply_upper b t in
    if not (Q.(lo <= zmin) && Q.(zmin <= zmax) && Q.(zmax <= hi)) then ok := false;
    Format.printf "%6s %10s %12s %10s %12s@." (dec t) (dec lo) (dec zmin)
      (dec zmax) (dec hi)
  done;
  check "figure3/shape (α(t-Δ) <= Zmin <= Zmax <= β+αt everywhere)" !ok

(* ------------------------------------------------------------------ *)
(* Figure 5 + Tables 1 and 2: the derived example                      *)
(* ------------------------------------------------------------------ *)

let figure5 () =
  header "Figure 5 — transactions derived from the component assembly";
  let sys = Hsched.Paper_example.system () in
  Format.printf "%a@." Transaction.System.pp sys;
  Format.printf
    "paper: Γ1 = (τ11 τ12 τ13 τ14) over Π3/Π1/Π2/Π3, plus Γ2(Π1), Γ3(Π2), Γ4(Π3)@."

let table1 () =
  header "Table 1 — task parameters (derived, not transcribed)";
  let m = Hsched.Paper_example.model () in
  let report = Hsched.Paper_example.report () in
  Format.printf "%-8s %-10s %7s %5s %5s %5s %5s %8s@." "task" "platform" "Cb"
    "C" "T" "D" "p" "phi_min";
  List.iter
    (fun (label, _) ->
      let a, b = Hsched.Paper_example.paper_location label in
      let tk = Model.task m a b in
      let tx = m.Model.txns.(a) in
      Format.printf "%-8s %-10s %7s %5s %5s %5s %5d %8s@." label
        (Printf.sprintf "Pi%d" (tk.Model.res + 1))
        (dec tk.Model.cb) (dec tk.Model.c) (dec tx.Model.period)
        (dec tx.Model.deadline) tk.Model.prio
        (dec report.Report.results.(a).(b).Report.offset))
    Hsched.Paper_example.paper_task_names;
  Format.printf
    "(matches the paper except tau_2,1/tau_3,1 priority: Table 1 prints 3,@.\
    \ Figure 1 declares 2; relative order on the platform is identical)@."

let table2 () =
  header "Table 2 — platform parameters";
  let sys = Hsched.Paper_example.system () in
  Format.printf "%-10s %8s %8s %8s@." "platform" "alpha" "delta" "beta";
  Array.iter
    (fun (r : Platform.Resource.t) ->
      let b = r.Platform.Resource.bound in
      Format.printf "%-10s %8s %8s %8s@." r.Platform.Resource.name
        (dec b.LB.alpha) (dec b.LB.delta) (dec b.LB.beta))
    sys.Transaction.System.resources

(* ------------------------------------------------------------------ *)
(* Table 3: the dynamic-offset iterations of Γ1                        *)
(* ------------------------------------------------------------------ *)

(* the paper's printed cells: (label, [(J, R); ...]) *)
let paper_table3 =
  [
    ("tau_1,1", [ ("0", "12"); ("0", "12") ]);
    ("tau_1,2", [ ("0", "9"); ("9", "18"); ("9", "18") ]);
    ("tau_1,3", [ ("0", "10"); ("5", "15"); ("14", "24"); ("14", "24") ]);
    ("tau_1,4", [ ("0", "12"); ("5", "17"); ("10", "22"); ("19", "39"); ("19", "39") ]);
  ]

let table3 () =
  header "Table 3 — successive iterations of the analysis on Γ1";
  let report = Hsched.Paper_example.report () in
  let history = Array.of_list report.Report.history in
  let mismatches = ref 0 and cells = ref 0 in
  List.iter
    (fun (label, paper_cells) ->
      let a, b = Hsched.Paper_example.paper_location label in
      Format.printf "%-8s" label;
      List.iteri
        (fun n (pj, pr) ->
          let mj, mr =
            if n < Array.length history then
              let it = history.(n) in
              (dec it.Report.jitters.(a).(b), bound it.Report.responses.(a).(b))
            else
              (* our iteration converged already; the fixed point repeats *)
              let res = report.Report.results.(a).(b) in
              (dec res.Report.jitter, bound res.Report.response)
          in
          let mark v p = if v = p then v else Printf.sprintf "%s[paper:%s]" v p in
          cells := !cells + 2;
          if mj <> pj then incr mismatches;
          if mr <> pr then incr mismatches;
          Format.printf "  J=%s R=%s" (mark mj pj) (mark mr pr))
        paper_cells;
      Format.printf "@.")
    paper_table3;
  Format.printf
    "@.%d/%d cells match the paper verbatim.  The two deviating cells are@.\
     R(3)/R(4) of tau_1,4: the paper prints 39, replaying its Eq. (16) with@.\
     the converged jitter J = 19 gives phi + J + Delta + C/alpha = 5 + 19 +@.\
     2 + 5 = 31 (single job in the busy window) — see EXPERIMENTS.md.@.\
     verdict: schedulable = %b (paper: schedulable)@."
    (!cells - !mismatches) !cells report.Report.schedulable

(* ------------------------------------------------------------------ *)
(* X1: exact vs reduced — pessimism and scenario counts                *)
(* ------------------------------------------------------------------ *)

let exact_vs_reduced () =
  header "X1 — exact vs reduced analysis (random systems)";
  Format.printf "%6s %8s %12s %12s %14s %14s@." "seed" "tasks" "scen(exact)"
    "scen(red.)" "max R ratio" "verdicts";
  let ratios = ref [] in
  for seed = 1 to 10 do
    let spec =
      { Workload.Gen.default_spec with Workload.Gen.n_txns = 3; max_tasks_per_txn = 3 }
    in
    let sys = Workload.Gen.system ~seed spec in
    let m = Model.of_system sys in
    let n_tasks =
      Array.fold_left
        (fun acc (tx : Model.txn) -> acc + Array.length tx.Model.tasks)
        0 m.Model.txns
    in
    let count params =
      let total = ref 0 in
      Array.iteri
        (fun a (tx : Model.txn) ->
          Array.iteri
            (fun b _ -> total := !total + Analysis.Rta.scenario_count m params ~a ~b)
            tx.Model.tasks)
        m.Model.txns;
      !total
    in
    (* one session per model: the exact and reduced runs share the
       compiled IR, only the params differ *)
    let session = Analysis.Engine.create ~params:Analysis.Params.exact m in
    let exact = Analysis.Engine.analyze session in
    let reduced =
      Analysis.Engine.analyze
        (Analysis.Engine.with_overrides session ~params:Analysis.Params.default)
    in
    let worst_ratio = ref Q.one in
    Array.iteri
      (fun a row ->
        Array.iteri
          (fun b (res : Report.task_result) ->
            match
              (res.Report.response, reduced.Report.results.(a).(b).Report.response)
            with
            | Report.Finite e, Report.Finite r when Q.(e > Q.zero) ->
                worst_ratio := Q.max !worst_ratio Q.(r / e)
            | _ -> ())
          row)
      exact.Report.results;
    ratios := Q.to_float !worst_ratio :: !ratios;
    Format.printf "%6d %8d %12d %12d %14s %14s@." seed n_tasks
      (count Analysis.Params.exact)
      (count Analysis.Params.default)
      (Printf.sprintf "%.3f" (Q.to_float !worst_ratio))
      (Printf.sprintf "%b/%b" exact.Report.schedulable reduced.Report.schedulable)
  done;
  let mean = List.fold_left ( +. ) 0. !ratios /. float_of_int (List.length !ratios) in
  Format.printf
    "mean worst-task ratio reduced/exact: %.3f (1.000 = no extra pessimism)@."
    mean

(* ------------------------------------------------------------------ *)
(* X2: analysis vs simulation                                          *)
(* ------------------------------------------------------------------ *)

let analysis_vs_simulation () =
  header "X2 — analytic bounds vs simulated maxima";
  let sys = Hsched.Paper_example.system () in
  let m = Hsched.Paper_example.model () in
  let report = Hsched.Paper_example.report () in
  let sim =
    Engine.run
      ~config:
        { Engine.default_config with horizon = Q.of_int 100_000; exec = Engine.Worst }
      sys
  in
  let names a b = (Model.task m a b).Model.name in
  Format.printf "%-28s %10s %12s %8s@." "task (paper example)" "bound" "sim max"
    "ratio";
  Stats.iter sim.Engine.stats (fun ~txn ~task s ->
      match report.Report.results.(txn).(task).Report.response with
      | Report.Divergent -> ()
      | Report.Finite b ->
          Format.printf "%-28s %10s %12s %8.2f@." (names txn task) (dec b)
            (dec s.Stats.max_response)
            (Q.to_float (Q.div s.Stats.max_response b)));
  (* batch over random server-based systems *)
  let total = ref 0 and sum = ref 0. and worst = ref 0. in
  for seed = 1 to 12 do
    let spec = { Workload.Gen.default_spec with Workload.Gen.server_platforms = true } in
    let sys = Workload.Gen.system ~seed spec in
    let report = Analysis.Engine.(analyze (create_system sys)) in
    (* only converged reports carry guaranteed bounds *)
    if report.Report.converged then
      let sim =
        Engine.run
          ~config:
            {
              Engine.default_config with
              horizon = Q.of_int 30_000;
              exec = Engine.Worst;
              seed;
            }
          sys
      in
      Stats.iter sim.Engine.stats (fun ~txn ~task s ->
          match report.Report.results.(txn).(task).Report.response with
          | Report.Divergent -> ()
          | Report.Finite b ->
              let r = Q.to_float (Q.div s.Stats.max_response b) in
              incr total;
              sum := !sum +. r;
              if r > !worst then worst := r)
  done;
  Format.printf
    "random systems (12 seeds, server platforms): %d tasks, mean ratio %.2f, worst %.2f@."
    !total
    (!sum /. float_of_int !total)
    !worst;
  check "analysis_vs_simulation/every ratio <= 1.0" (!worst <= 1.0)

(* ------------------------------------------------------------------ *)
(* X3: design-space search (§5 future work)                            *)
(* ------------------------------------------------------------------ *)

let design_search () =
  header "X3 — platform parameter synthesis on the paper example";
  let sys = Hsched.Paper_example.system () in
  let resources = sys.Transaction.System.resources in
  let fixed =
    Array.map
      (fun (r : Platform.Resource.t) ->
        let b = r.Platform.Resource.bound in
        Design.Param_search.fixed_latency_family ~delta:b.LB.delta ~beta:b.LB.beta)
      resources
  in
  Format.printf "paper allocation: alpha = (0.4, 0.4, 0.2), sum = 1.0@.";
  (* one session for the whole design sweep: hundreds of probe analyses
     below share the model compiled here *)
  let engine = Analysis.Engine.create_system sys in
  (match
     Design.Param_search.balance_rates ~engine ~precision:7 sys ~families:fixed
   with
  | None -> Format.printf "search found nothing?!@."
  | Some rates ->
      let total = Array.fold_left Q.add Q.zero rates in
      Format.printf "balanced search  : alpha = (%s), sum = %s@."
        (String.concat ", " (Array.to_list (Array.map dec rates)))
        (dec total));
  (match
     Design.Param_search.minimize_rates ~engine ~precision:7 sys ~families:fixed
   with
  | None -> ()
  | Some rates ->
      let total = Array.fold_left Q.add Q.zero rates in
      Format.printf "coord. descent   : alpha = (%s), sum = %s@."
        (String.concat ", " (Array.to_list (Array.map dec rates)))
        (dec total));
  Format.printf "breakdown utilization: %s@."
    (dec (Design.Param_search.breakdown_utilization ~engine ~precision:7 sys));
  match Design.Param_search.max_delta ~engine ~precision:7 sys ~resource:2 with
  | None -> ()
  | Some d -> Format.printf "max tolerable delta on Pi3: %s (provisioned 2)@." (dec d)

(* ------------------------------------------------------------------ *)
(* X4: degeneration to the classical analysis                          *)
(* ------------------------------------------------------------------ *)

let classical_equivalence () =
  header "X4 — (1, 0, 0) degenerates to classical response-time analysis";
  let tasks =
    [ ("t1", "2", "8", 4); ("t2", "1", "10", 3); ("t3", "3", "20", 2); ("t4", "4", "40", 1) ]
  in
  let model =
    Model.make ~bounds:[ LB.full ]
      (List.map
         (fun (name, c, t, prio) ->
           {
             Model.tname = name;
             period = q t;
             deadline = q t;
             tasks = [| { Model.name = name ^ ".t"; c = q c; cb = q c; res = 0; prio } |];
           })
         tasks)
  in
  (* one session serves both sides: the holistic run and the classical
     view derived from the same model (every transaction here is a
     single task, so the view covers all of them) *)
  let session = Analysis.Engine.create model in
  let holistic = Analysis.Engine.analyze session in
  Format.printf "%-8s %12s %12s %8s@." "task" "classical" "holistic" "match";
  let all = ref true in
  List.iteri
    (fun i (ct, cr) ->
      let hr = holistic.Report.results.(i).(0).Report.response in
      let m = Report.equal_bound cr hr in
      if not m then all := false;
      Format.printf "%-8s %12s %12s %8s@." ct.Analysis.Classical.name (bound cr)
        (bound hr)
        (if m then "yes" else "NO"))
    (Analysis.Engine.classical session ~resource:0);
  check "classical_equivalence/degenerate platform matches classical RTA" !all

(* Every timed section runs on one clock: wall time in milliseconds from
   CLOCK_MONOTONIC, the clock bench/perf uses too. *)
let wall f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6, r)

let median times =
  Array.sort compare times;
  times.(Array.length times / 2)

(* Median wall time of [rounds] runs of [f] — the regression bounds in
   X13/X16 compare numbers a scheduler spike in a single timed loop
   would otherwise flip. *)
let median_wall ~rounds f = median (Array.init rounds (fun _ -> fst (wall f)))

(* Medians of the times [f ()] and [g ()] report over [rounds] rounds
   that each run [f] then [g], so a drift in host load between rounds
   weighs on both sides alike instead of on whichever side ran in that
   block. *)
let median_pairs ~rounds f g =
  let times =
    Array.init rounds (fun _ ->
        let tf = f () in
        (tf, g ()))
  in
  (median (Array.map fst times), median (Array.map snd times))

(* Median wall times of [f] and of [g], alternating as above. *)
let median_walls ~rounds f g =
  median_pairs ~rounds (fun () -> fst (wall f)) (fun () -> fst (wall g))

(* ------------------------------------------------------------------ *)
(* X7: scalability of the analysis                                     *)
(* ------------------------------------------------------------------ *)

let scalability () =
  header "X7 — analysis cost vs system size";
  Format.printf "%8s %8s %12s %14s %14s %10s@." "txns" "tasks" "scenarios"
    "reduced (ms)" "exact (ms)" "outer-it";
  List.iter
    (fun n_txns ->
      (* two shared platforms: interference concentrates, which is what
         blows up the exact scenario product *)
      let spec =
        {
          Workload.Gen.default_spec with
          Workload.Gen.n_txns;
          n_resources = 2;
          max_tasks_per_txn = 3;
        }
      in
      let sys = Workload.Gen.system ~seed:3 spec in
      let m = Model.of_system sys in
      let n_tasks =
        Array.fold_left
          (fun acc (tx : Model.txn) -> acc + Array.length tx.Model.tasks)
          0 m.Model.txns
      in
      let scenarios =
        let total = ref 0 in
        Array.iteri
          (fun a (tx : Model.txn) ->
            Array.iteri
              (fun b _ ->
                total :=
                  !total + Analysis.Rta.scenario_count m Analysis.Params.exact ~a ~b)
              tx.Model.tasks)
          m.Model.txns;
        !total
      in
      (* both variants share one session's compiled IR *)
      let session = Analysis.Engine.create m in
      let reduced_ms, report = wall (fun () -> Analysis.Engine.analyze session) in
      let exact_ms =
        if scenarios < 200_000 then
          fst
            (wall (fun () ->
                 Analysis.Engine.analyze
                   (Analysis.Engine.with_overrides session
                      ~params:Analysis.Params.exact)))
        else Float.nan
      in
      Format.printf "%8d %8d %12d %14.1f %14s %10d@." n_txns n_tasks scenarios
        reduced_ms
        (if Float.is_nan exact_ms then "skipped" else Printf.sprintf "%.1f" exact_ms)
        report.Report.outer_iterations)
    [ 2; 4; 6; 8; 12; 16; 24 ];
  Format.printf
    "the reduced analysis (§3.1.2) scales polynomially; the exact scenario@.\
     product (Eq. 12) is skipped once it exceeds 200k scenarios.@."

(* ------------------------------------------------------------------ *)
(* X5: fixed priorities vs EDF on an abstract platform                 *)
(* ------------------------------------------------------------------ *)

let fp_vs_edf () =
  header "X5 — local scheduler ablation: fixed priorities vs EDF";
  (* sweep utilisation on one platform; count the task sets each local
     scheduler admits (the paper: "our methodology can be easily
     extended to other local schedulers like EDF") *)
  let bound = LB.make ~alpha:(q "0.8") ~delta:Q.one ~beta:Q.zero in
  Format.printf
    "platform (α=0.8, Δ=1), 100 random 4-task sets per point,@.\
     non-harmonic periods, constrained deadlines D ∈ [0.6T, T]@.";
  Format.printf "%8s %14s %14s@." "U/α" "FP (DM) ok" "EDF ok";
  List.iter
    (fun percent ->
      let fp_ok = ref 0 and edf_ok = ref 0 in
      for seed = 1 to 100 do
        let rng = Workload.Rng.create ((percent * 1000) + seed) in
        let target = Q.(q "0.8" * make percent 100) in
        let shares = Workload.Uunifast.utilizations rng ~n:4 ~total:target in
        let tasks =
          List.mapi
            (fun i u ->
              let period = Q.of_int (Workload.Rng.pick rng [ 10; 14; 19; 23; 31 ]) in
              let c = Q.(u * period) in
              let deadline =
                Q.(period * Workload.Rng.rational_in rng (q "0.6") Q.one)
              in
              (Printf.sprintf "t%d" i, c, period, deadline))
            shares
        in
        (* both schedulers judge the same degenerate model (one task per
           transaction) through one session's platform views *)
        let model =
          Model.make ~bounds:[ bound ]
            (List.map
               (fun (name, c, period, deadline) ->
                 {
                   Model.tname = name;
                   period;
                   deadline;
                   tasks =
                     [|
                       {
                         Model.name;
                         c;
                         cb = c;
                         res = 0;
                         prio = 1000 - Q.floor deadline;
                       };
                     |];
                 })
               tasks)
        in
        let session = Analysis.Engine.create model in
        if Analysis.Engine.classical_schedulable session ~resource:0 then
          incr fp_ok;
        if Analysis.Engine.edf_schedulable session ~resource:0 then incr edf_ok
      done;
      Format.printf "%7d%% %14d %14d@." percent !fp_ok !edf_ok)
    [ 50; 60; 70; 80; 90; 95 ];
  Format.printf
    "EDF admits every FP-schedulable set (optimality; asserted by qcheck in@.\
     test_edf.ml) and keeps admitting sets deep into the region FP loses.@."

(* ------------------------------------------------------------------ *)
(* X6: sensitivity of the paper example                                *)
(* ------------------------------------------------------------------ *)

let sensitivity () =
  header "X6 — sensitivity of the paper example";
  let sys = Hsched.Paper_example.system () in
  (* one session: every margin search and the slack report below share
     the compiled model *)
  let engine = Analysis.Engine.create_system sys in
  Format.printf "%a@." Design.Sensitivity.pp_margins
    (Design.Sensitivity.all_task_margins ~engine ~precision:6 sys);
  Format.printf "end-to-end slack:@.";
  List.iter
    (fun (name, response, deadline) ->
      match response with
      | Report.Divergent -> Format.printf "  %-24s unbounded@." name
      | Report.Finite r ->
          Format.printf "  %-24s R = %s, D = %s, slack = %s@." name (dec r)
            (dec deadline)
            (dec Q.(deadline - r)))
    (Design.Sensitivity.transaction_slack ~engine sys);
  Format.printf
    "the integration platform's sporadic server (tau_4,1) is the critical@.\
     element: its WCET tolerates only ~34%% growth, while the sensor-side@.\
     tasks have 4.5-9.5x margins.@."

(* ------------------------------------------------------------------ *)
(* X8: best-case ablation — the paper's simple bound vs Redell-style   *)
(* ------------------------------------------------------------------ *)

let best_case_ablation () =
  header "X8 — best-case response-time ablation (simple vs refined)";
  let m = Hsched.Paper_example.model () in
  let zeros =
    Array.map
      (fun (tx : Model.txn) -> Array.make (Array.length tx.Model.tasks) Q.zero)
      m.Model.txns
  in
  let simple = Analysis.Best_case.simple m in
  let refined = Analysis.Best_case.refined m ~jit:zeros in
  Format.printf "%-28s %10s %10s@." "task (paper example)" "simple" "refined";
  Array.iteri
    (fun a (tx : Model.txn) ->
      Array.iteri
        (fun b (tk : Model.task) ->
          Format.printf "%-28s %10s %10s@." tk.Model.name (dec simple.(a).(b))
            (dec refined.(a).(b)))
        tx.Model.tasks)
    m.Model.txns;
  (* effect on the final analysis: refined Rbest lowers the jitter bounds
     J = R - Rbest, which can tighten the worst-case responses *)
  let default = Hsched.Paper_example.report () in
  let with_refined =
    Hsched.Paper_example.report
      ~params:
        {
          Analysis.Params.default with
          Analysis.Params.best_case = Analysis.Params.Refined;
        }
      ()
  in
  let total report =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc (res : Report.task_result) ->
            match res.Report.response with
            | Report.Divergent -> acc
            | Report.Finite r -> Q.(acc + r))
          acc row)
      Q.zero report.Report.results
  in
  Format.printf
    "sum of response bounds: simple %s, refined %s (both schedulable: %b/%b)@."
    (dec (total default))
    (dec (total with_refined))
    default.Report.schedulable with_refined.Report.schedulable;
  (* a contended platform where the refinement bites: a long section
     shares the CPU with a fast high-priority task, so some of its
     interference is guaranteed whatever the phasing *)
  let contended =
    Model.make ~bounds:[ LB.full ]
      [
        {
          Model.tname = "hi";
          period = q "5";
          deadline = q "5";
          tasks = [| { Model.name = "hi.t"; c = q "2"; cb = q "2"; res = 0; prio = 2 } |];
        };
        {
          Model.tname = "chain";
          period = q "60";
          deadline = q "60";
          tasks =
            [|
              { Model.name = "chain.long"; c = q "12"; cb = q "12"; res = 0; prio = 1 };
              { Model.name = "chain.tail"; c = q "1"; cb = q "1"; res = 0; prio = 1 };
            |];
        };
      ]
  in
  let zeros2 =
    Array.map
      (fun (tx : Model.txn) -> Array.make (Array.length tx.Model.tasks) Q.zero)
      contended.Model.txns
  in
  let s2 = Analysis.Best_case.simple contended in
  let r2 = Analysis.Best_case.refined contended ~jit:zeros2 in
  Format.printf
    "@.contended platform (12-cycle section against a 2-every-5 task):@.";
  Format.printf "  Rbest(chain.long): simple %s, refined %s@." (dec s2.(1).(0))
    (dec r2.(1).(0));
  Format.printf
    "(the refined lower bound counts phase-independent guaranteed@.     interference; it tightens the jitter bounds J = R - Rbest on loaded@.     platforms, while the paper's simple bound remains the sound default)@."

(* ------------------------------------------------------------------ *)
(* X9: analyses next to a domain pool                                  *)
(* ------------------------------------------------------------------ *)

let parallel_scaling () =
  header "X9 — analyses next to a domain pool";
  Format.printf
    "host offers %d domain(s); speedup beyond that count is not expected@."
    (Domain.recommended_domain_count ());
  (* an 8-transaction workload on two shared platforms: interference
     concentrates, so the exact scenario product (Eq. 12) dominates *)
  let spec =
    {
      Workload.Gen.default_spec with
      Workload.Gen.n_txns = 8;
      n_resources = 2;
      max_tasks_per_txn = 3;
    }
  in
  let sys = Workload.Gen.system ~seed:3 spec in
  let m = Model.of_system sys in
  let scenarios =
    let total = ref 0 in
    Array.iteri
      (fun a (tx : Model.txn) ->
        Array.iteri
          (fun b _ ->
            total := !total + Analysis.Rta.scenario_count m Analysis.Params.exact ~a ~b)
          tx.Model.tasks)
      m.Model.txns;
    !total
  in
  Format.printf "workload: seed 3, 8 txns on 2 platforms, %d exact scenarios@."
    scenarios;
  Format.printf "%6s %12s %9s %10s@." "jobs" "wall (ms)" "speedup" "identical";
  (* one base session; every cell below derives from it, so the model is
     compiled once for the whole matrix.  A cell runs the analysis on
     this domain next to a pool of [jobs] slots — the way a fleet
     shard's analysis runs next to the other shards' domains — so the
     pool's idle domains must not slow it down.  Only the analysis is
     timed, not the pool's spawn and join *)
  let base = Analysis.Engine.create ~params:Analysis.Params.exact m in
  let cell jobs =
    let pool = Parallel.Pool.create ~jobs in
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () ->
        (* with_model: share the IR but rebuild the session's tables
           in every cell, so the wall clocks of the cells stay
           comparable *)
        let session = Analysis.Engine.with_model base m in
        wall (fun () -> Analysis.Engine.analyze session))
  in
  let baseline = ref Float.nan in
  let reference = ref None in
  let all_identical = ref true in
  List.iter
    (fun jobs ->
      let ms, report = cell jobs in
      if Float.is_nan !baseline then baseline := ms;
      (* Report.t is pure data (exact rationals, ints, bools), so
         structural equality is the bit-identical check the engine
         promises *)
      let identical =
        match !reference with
        | None ->
            reference := Some report;
            true
        | Some r -> r = report
      in
      if not identical then all_identical := false;
      metric (Printf.sprintf "x9/exact_jobs%d_ms" jobs) ms;
      Format.printf "%6d %12.1f %9.2f %10s@." jobs ms (!baseline /. ms)
        (if identical then "yes" else "NO"))
    (if !quick then [ 1; 4 ] else [ 1; 2; 4 ]);
  check "x9/determinism across job counts" !all_identical;
  (* Regression guard: a pool's idle domains must not make an analysis
     slower than the one-domain run (1.2x covers timer noise).  One
     analysis takes about 2 ms, so the gate compares medians of rounds
     that each run a jobs-1 then a jobs-4 cell. *)
  if not !quick then begin
    let rounds = 5 in
    let t1, t4 =
      median_pairs ~rounds (fun () -> fst (cell 1)) (fun () -> fst (cell 4))
    in
    Format.printf "medians of %d rounds: jobs 1 %.2f ms, jobs 4 %.2f ms@."
      rounds t1 t4;
    metric "x9/median_jobs1_ms" t1;
    metric "x9/median_jobs4_ms" t4;
    check "x9/jobs4 within 1.2x of jobs1" (t4 <= 1.2 *. t1)
  end

(* ------------------------------------------------------------------ *)
(* X10: branch-and-bound pruning — naive vs prune                      *)
(* ------------------------------------------------------------------ *)

let prune_incremental () =
  header "X10 — branch-and-bound pruning: naive vs prune";
  (* same interference-heavy workload as X9: the exact scenario product
     dominates, which is exactly what pruning attacks *)
  let spec =
    {
      Workload.Gen.default_spec with
      Workload.Gen.n_txns = (if !quick then 6 else 8);
      n_resources = 2;
      max_tasks_per_txn = 3;
    }
  in
  let sys = Workload.Gen.system ~seed:3 spec in
  let m = Model.of_system sys in
  (* one base session for the whole matrix; each cell re-derives it with
     its own params and counters, and rebuilds its tables (with_model)
     so the wall clocks stay comparable *)
  let base = Analysis.Engine.create ~params:Analysis.Params.exact m in
  let cell ~prune =
    let params = { Analysis.Params.exact with Analysis.Params.prune } in
    let counters = Analysis.Rta.counters () in
    let session =
      Analysis.Engine.with_model
        (Analysis.Engine.with_overrides base ~params ~counters)
        m
    in
    let ms, report = wall (fun () -> Analysis.Engine.analyze session) in
    (ms, report, counters)
  in
  Format.printf "%-22s %10s %10s %10s %10s %8s@." "cell" "wall (ms)" "total"
    "visited" "pruned" "bounds";
  let show name ((ms, _, c) as r) =
    Format.printf "%-22s %10.1f %10d %10d %10d %8d@." name ms
      (Analysis.Rta.total_scenarios c)
      (Analysis.Rta.visited_scenarios c)
      (Analysis.Rta.pruned_scenarios c)
      (Analysis.Rta.bound_evaluations c);
    metric (Printf.sprintf "x10/%s_ms" name) ms;
    metric (Printf.sprintf "x10/%s_total" name)
      (float_of_int (Analysis.Rta.total_scenarios c));
    metric (Printf.sprintf "x10/%s_visited" name)
      (float_of_int (Analysis.Rta.visited_scenarios c));
    metric (Printf.sprintf "x10/%s_bounds" name)
      (float_of_int (Analysis.Rta.bound_evaluations c));
    r
  in
  let naive = show "naive" (cell ~prune:false) in
  let pruned = show "prune" (cell ~prune:true) in
  let report (_, r, _) = r in
  let visited (_, _, c) = Analysis.Rta.visited_scenarios c in
  (* Reports are pure data (exact rationals, ints, bools): structural
     equality is the bit-identity every cell promises. *)
  check "x10/identity prune" (report pruned = report naive);
  check "x10/naive visits everything" (visited naive = Analysis.Rta.total_scenarios (let _, _, c = naive in c));
  check "x10/pruning visits strictly fewer scenarios"
    (visited pruned < visited naive);
  (* Every visited scenario and every block bound is one busy-period
     evaluation per own initiator at most: the search, bounds included,
     must cost no more of them than enumerating every scenario. *)
  let bounds (_, _, c) = Analysis.Rta.bound_evaluations c in
  check
    "x10/pruned search evaluates no more busy periods than the naive \
     enumeration"
    (visited pruned + bounds pruned <= visited naive);
  if not !quick then begin
    let ms (t, _, _) = t in
    Format.printf "speedup vs naive: prune %.2fx@." (ms naive /. ms pruned);
    check "x10/prune faster than naive" (ms pruned < ms naive)
  end

(* ------------------------------------------------------------------ *)
(* X11: admission-control service — throughput, warm vs cold IR        *)
(* ------------------------------------------------------------------ *)

let service_base =
  String.concat "\n"
    [
      "platform P1 { alpha = 0.4; delta = 1; beta = 1; host = \"n\"; }";
      "platform P2 { alpha = 0.4; delta = 1; beta = 1; host = \"n\"; }";
      "platform P3 { alpha = 0.2; delta = 2; beta = 1; host = \"n\"; }";
    ]

(* Every probe has the same shape — one periodic task on P3 at priority
   1 — so successive rebinds keep the compiled IR warm; only the demand
   varies.  The fractional part encodes [i] directly, keeping the wcet
   injective over the probe range: distinct demands mean distinct
   snapshot hashes, so every probe exercises the engine, not the result
   cache. *)
let probe_spec i =
  Printf.sprintf
    "component Probe { implementation: scheduler fixed_priority; thread T \
     periodic(period = 40, deadline = 40) priority 1 { task work(wcet = \
     %d.%02d, bcet = 0.1); } } instance ProbeI : Probe on P3;"
    (1 + (i mod 3))
    (i mod 100)

(* Admitted units must coexist: distinct names, periods and priorities,
   spread over the three platforms. *)
let unit_spec i =
  Printf.sprintf
    "component U%d { implementation: scheduler fixed_priority; thread T \
     periodic(period = %d, deadline = %d) priority %d { task work(wcet = \
     0.2, bcet = 0.1); } } instance I%d : U%d on P%d;"
    i (30 + i) (30 + i) (i + 1) i i ((i mod 3) + 1)

let service_throughput () =
  header "X11 — admission-control service: throughput and warm vs cold IR";
  let params =
    { Analysis.Params.default with Analysis.Params.keep_history = false }
  in
  let items =
    match Spec.Parser.parse service_base with
    | Ok items -> items
    | Error e -> failwith e
  in
  let mk_server () =
    match Service.Fleet.create ~params items with
    | Ok s -> s
    | Error es -> failwith (String.concat "; " es)
  in
  let n_probes = if !quick then 12 else 32 in
  let what_if i =
    Service.Protocol.What_if { uid = "probe"; spec = probe_spec i }
  in
  (* The probe batch and the admission loop each take 1–3 ms, so one
     timed run measures how warm the process is more than the service.
     Each is timed as the median over rounds, every round on a fresh
     fleet created (and shut down) outside the timed region, so every
     round does the same work from the same cold caches. *)
  let rounds = if !quick then 3 else 21 in
  let median_on_fresh_fleets f =
    let fleets = Array.init rounds (fun _ -> mk_server ()) in
    let next = ref 0 in
    let ms =
      median_wall ~rounds (fun () ->
          let srv = fleets.(!next) in
          incr next;
          f srv)
    in
    Array.iter Service.Fleet.shutdown fleets;
    ms
  in
  (* one batch of read-only probes, evaluated in arrival order on the
     shard's session *)
  let envs =
    List.init n_probes (fun i ->
        {
          Service.Protocol.seq = i + 1;
          arrival = Unix.gettimeofday ();
          deadline_ms = None;
          tenant = None;
          req = what_if i;
        })
  in
  let ms =
    median_on_fresh_fleets (fun srv ->
        ignore (Service.Fleet.process_batch srv envs))
  in
  metric "x11/probe_batch_ms" ms;
  Format.printf
    "probe batch: %d what_if probes, median %.1f ms over %d rounds (%.0f \
     probes/sec)@."
    n_probes ms rounds
    (float_of_int n_probes /. ms *. 1000.);
  (* admission throughput: one transactional commit per request, each
     finished before the next starts *)
  let n_units = if !quick then 8 else 16 in
  let admitted_ok = ref 0 in
  let admit_ms =
    median_on_fresh_fleets (fun srv ->
        for i = 0 to n_units - 1 do
          match
            Service.Fleet.handle srv
              (Service.Protocol.Admit
                 { uid = Printf.sprintf "u%d" i; spec = unit_spec i })
          with
          | Service.Json.Obj fields
            when List.assoc_opt "status" fields
                 = Some (Service.Json.String "admitted") ->
              incr admitted_ok
          | _ -> ()
        done)
  in
  Format.printf
    "admissions: %d/%d committed over %d rounds, median %.1f ms (%.0f \
     admissions/sec)@."
    !admitted_ok (rounds * n_units) rounds admit_ms
    (float_of_int n_units /. admit_ms *. 1000.);
  metric "x11/admissions_per_sec" (float_of_int n_units /. admit_ms *. 1000.);
  check "x11/every admission committed" (!admitted_ok = rounds * n_units);
  (* warm vs cold: the same what_if candidates analyzed through one
     long-lived session (the rebind keeps the IR — only demands move)
     and by a fresh engine per candidate.  The store is populated first
     so each probe analyzes a multi-transaction assembly: compilation,
     which the warm session skips, is then a visible share of the cold
     path — against an empty store both loops are dominated by
     per-request bookkeeping and the comparison measures nothing. *)
  let srv = mk_server () in
  for i = 0 to 5 do
    ignore
      (Service.Fleet.handle srv
         (Service.Protocol.Admit
            { uid = Printf.sprintf "u%d" i; spec = unit_spec i }))
  done;
  ignore (Service.Fleet.handle srv (what_if 0));
  for i = 1 to n_probes do
    ignore (Service.Fleet.handle srv (what_if i))
  done;
  let m = Service.Fleet.metrics srv in
  check "x11/rebinds kept the IR warm" (m.Service.Metrics.ir_warm >= n_probes);
  (* the timed comparison runs at the engine-session layer on
     precomputed candidate models, so both sides do identical work
     except for what session reuse actually skips — the parse, store
     hashing, result cache and response construction of the service
     path would otherwise drown the compilation cost on one side
     only *)
  let store = Service.Fleet.default_store srv in
  let models =
    Array.init (n_probes + 1) (fun i ->
        match Service.Store.admit store ~uid:"probe" ~spec:(probe_spec i) with
        | Error _ -> assert false
        | Ok cand -> Model.of_system cand.Service.Store.sys)
  in
  let session = ref (Analysis.Engine.create ~params models.(0)) in
  ignore (Analysis.Engine.analyze !session);
  (* several rounds over the probe set: one sweep is a fraction of a
     millisecond, well inside scheduler noise.  One untimed sweep of
     each loop first — the comparison is rebind vs create, not who
     pays the first-touch page faults *)
  for i = 1 to n_probes do
    session := Analysis.Engine.with_model !session models.(i);
    ignore (Analysis.Engine.analyze !session);
    ignore (Analysis.Engine.analyze (Analysis.Engine.create ~params models.(i)))
  done;
  (* Each round runs a warm then a cold batch, so a drift in host load
     weighs on both sides alike. *)
  let rounds = 8 in
  let warm_batch_ms, cold_batch_ms =
    median_walls ~rounds
      (fun () ->
        for i = 1 to n_probes do
          session := Analysis.Engine.with_model !session models.(i);
          ignore (Analysis.Engine.analyze !session)
        done)
      (fun () ->
        for i = 1 to n_probes do
          ignore
            (Analysis.Engine.analyze
               (Analysis.Engine.create ~params models.(i)))
        done)
  in
  Service.Fleet.shutdown srv;
  (* each timed sample is a whole probe batch, so the recorded numbers
     are per-batch medians over the rounds — not per-probe figures *)
  Format.printf
    "%d same-shape probes x %d rounds: warm rebind+analyze %.1f ms/batch, \
     cold create+analyze %.1f ms/batch (%.2fx, medians)@."
    n_probes rounds warm_batch_ms cold_batch_ms
    (cold_batch_ms /. warm_batch_ms);
  metric "x11/warm_rebind_batch_ms" warm_batch_ms;
  metric "x11/cold_create_batch_ms" cold_batch_ms;
  (* profiled ([Engine.with_model]): the rebind keeps the IR and the
     scaled rows of every transaction the probe leaves unchanged, and
     converts only the probe's own row; both sides still pay
     first-use sites, and the fixed point itself dominates both.  The check bounds the regression (rebind must never cost
     materially more than a fresh create) instead of asserting a win,
     and runs under --quick too. *)
  check "x11/warm rebind no slower than cold create (within 10%)"
    (warm_batch_ms <= 1.1 *. cold_batch_ms)

(* ------------------------------------------------------------------ *)
(* X13: delta re-analysis — warm admit vs cold re-analysis             *)
(* ------------------------------------------------------------------ *)

(* A localized admission: one task on P3 at priority 1, below every
   admitted unit, so the dirty closure is the candidate's own
   transaction and the rest of the system is carried from the previous
   fixed point.  Distinct demands keep the candidates distinct. *)
let candidate_spec i =
  Printf.sprintf
    "component Cand { implementation: scheduler fixed_priority; thread T \
     periodic(period = 50, deadline = 50) priority 1 { task work(wcet = \
     %d.%02d, bcet = 0.1); } } instance CandI : Cand on P3;"
    (1 + (i mod 3))
    (i mod 100)

let delta_admit () =
  header "X13 — delta re-analysis: warm admit vs cold re-analysis";
  let params =
    { Analysis.Params.default with Analysis.Params.keep_history = false }
  in
  let items =
    match Spec.Parser.parse service_base with
    | Ok items -> items
    | Error e -> failwith e
  in
  (* a populated store, so a localized admission leaves a large clean
     majority for the warm fixed point to carry *)
  let n_units = if !quick then 9 else 48 in
  let store =
    let s =
      match Service.Store.boot items with
      | Ok s -> s
      | Error es -> failwith (String.concat "; " es)
    in
    let acc = ref s in
    for i = 0 to n_units - 1 do
      match
        Service.Store.admit !acc
          ~uid:(Printf.sprintf "u%d" i)
          ~spec:(unit_spec i)
      with
      | Ok s -> acc := s
      | Error es -> failwith (String.concat "; " es)
    done;
    !acc
  in
  let prev_model = Model.of_system store.Service.Store.sys in
  let prev_report =
    Analysis.Engine.analyze (Analysis.Engine.create ~params prev_model)
  in
  check "x13/baseline converged" prev_report.Report.converged;
  let n_cands = if !quick then 8 else 24 in
  let models =
    Array.init n_cands (fun i ->
        match
          Service.Store.admit store ~uid:"cand" ~spec:(candidate_spec i)
        with
        | Error es -> failwith (String.concat "; " es)
        | Ok cand -> Model.of_system cand.Service.Store.sys)
  in
  (* the warm loop is the server's admission path at the engine layer:
     rebind the live session onto the candidate and seed its fixed
     point from the previous converged report; the cold loop builds a
     fresh session and iterates from the bottom *)
  let outcomes = Array.make n_cands None in
  let warm_reports = Array.make n_cands None in
  let session = ref (Analysis.Engine.create ~params prev_model) in
  ignore (Analysis.Engine.analyze !session);
  let rounds = 8 in
  let warm_sweep () =
    for i = 0 to n_cands - 1 do
      session := Analysis.Engine.with_model !session models.(i);
      let r, outcome =
        Analysis.Engine.analyze_delta !session ~prev_model ~prev_report
      in
      outcomes.(i) <- Some outcome;
      warm_reports.(i) <- Some r
    done
  in
  let cold_reports = Array.make n_cands None in
  let cold_sweep () =
    for i = 0 to n_cands - 1 do
      cold_reports.(i) <-
        Some
          (Analysis.Engine.analyze (Analysis.Engine.create ~params models.(i)))
    done
  in
  (* one untimed sweep each: the comparison is warm vs cold analysis,
     not who pays the first-touch page faults *)
  warm_sweep ();
  cold_sweep ();
  (* Each round runs a warm then a cold batch, so a drift in host load
     weighs on both sides alike. *)
  let warm_batch_ms, cold_batch_ms =
    median_walls ~rounds warm_sweep cold_sweep
  in
  let all_warm = ref true
  and dirty_below_total = ref true
  and identical = ref true
  and dirty_sum = ref 0
  and total_tasks = ref 0 in
  Array.iteri
    (fun i outcome ->
      (match outcome with
      | Some (Analysis.Engine.Delta_warm { dirty; total; carried = _ }) ->
          dirty_sum := !dirty_sum + dirty;
          total_tasks := total;
          if dirty >= total then dirty_below_total := false
      | Some (Analysis.Engine.Delta_cold _) | None -> all_warm := false);
      match (warm_reports.(i), cold_reports.(i)) with
      | Some w, Some c ->
          if
            not
              (w.Report.results = c.Report.results
              && w.Report.converged = c.Report.converged
              && w.Report.schedulable = c.Report.schedulable)
          then identical := false
      | _ -> identical := false)
    outcomes;
  check "x13/every admit analyzed warm" !all_warm;
  check "x13/warm results bit-identical to cold" !identical;
  check "x13/dirty strictly below total on localized admits"
    !dirty_below_total;
  let dirty_mean = float_of_int !dirty_sum /. float_of_int n_cands in
  Format.printf
    "%d localized admits x %d rounds over %d tasks: warm %.1f ms/batch, cold \
     %.1f ms/batch (%.2fx, medians), mean dirty set %.1f@."
    n_cands rounds !total_tasks warm_batch_ms cold_batch_ms
    (cold_batch_ms /. warm_batch_ms)
    dirty_mean;
  metric "x13/warm_admit_batch_ms" warm_batch_ms;
  metric "x13/cold_admit_batch_ms" cold_batch_ms;
  metric "x13/speedup" (cold_batch_ms /. warm_batch_ms);
  metric "x13/dirty_tasks_mean" dirty_mean;
  metric "x13/total_tasks" (float_of_int !total_tasks);
  (* the warm path must never lose to cold: [Engine.Delta.plan] skips
     its diff bookkeeping the moment it cannot pay off (no removals —
     no removal scan; everything dirty — straight to cold), so even on
     the small --quick store the admit loop is at worst a cold analysis
     plus a cheap plan.  This regression bound stays on under --quick *)
  check "x13/warm admit no slower than cold re-analysis (within 10%)"
    (warm_batch_ms <= 1.1 *. cold_batch_ms);
  (* 2x, not the historical 3x: the SoA skeleton tables and the direct
     evaluation of short demand curves sped the cold baseline up by
     ~40% while the warm path's absolute time stayed put, so the ratio
     shrank for the right reason *)
  if not !quick then
    check "x13/warm admit at least 2x faster than cold re-analysis"
      (cold_batch_ms >= 2. *. warm_batch_ms);
  (* Revokes of the mid-priority third of the units: by the reads rule
     a survivor re-iterates iff it has a task on a platform the revoked
     unit used, at a priority no higher than the revoked task's.  Every
     unit is one transaction of one task on one platform, so the closure
     adds nothing to that seed and the count is exact. *)
  let revoked = List.init (n_units / 3) (fun k -> (n_units / 3) + k) in
  let revoke_warm = ref true
  and revoke_identical = ref true
  and revoke_reads_rule = ref true
  and revoke_dirty = ref 0 in
  List.iter
    (fun i ->
      let model =
        match Service.Store.revoke store ~uid:(Printf.sprintf "u%d" i) with
        | Error es -> failwith (String.concat "; " es)
        | Ok cand -> Model.of_system cand.Service.Store.sys
      in
      let top = Array.make (Array.length prev_model.Model.bounds) min_int in
      Array.iter
        (fun (tx : Model.txn) ->
          if Model.find_txn model tx.Model.tname = None then
            Array.iter
              (fun (tk : Model.task) ->
                top.(tk.Model.res) <- Int.max top.(tk.Model.res) tk.Model.prio)
              tx.Model.tasks)
        prev_model.Model.txns;
      let expected =
        Array.fold_left
          (fun acc (tx : Model.txn) ->
            if
              Array.exists
                (fun (tk : Model.task) -> tk.Model.prio <= top.(tk.Model.res))
                tx.Model.tasks
            then acc + Array.length tx.Model.tasks
            else acc)
          0 model.Model.txns
      in
      session := Analysis.Engine.with_model !session model;
      let warm, outcome =
        Analysis.Engine.analyze_delta !session ~prev_model ~prev_report
      in
      let cold =
        Analysis.Engine.analyze (Analysis.Engine.create ~params model)
      in
      (match outcome with
      | Analysis.Engine.Delta_warm { dirty; _ } ->
          revoke_dirty := !revoke_dirty + dirty;
          if dirty <> expected then revoke_reads_rule := false
      | Analysis.Engine.Delta_cold _ -> revoke_warm := false);
      if
        not
          (warm.Report.results = cold.Report.results
          && warm.Report.converged = cold.Report.converged
          && warm.Report.schedulable = cold.Report.schedulable)
      then revoke_identical := false)
    revoked;
  let revoke_dirty_mean =
    float_of_int !revoke_dirty /. float_of_int (List.length revoked)
  in
  Format.printf "%d mid-priority revokes: mean dirty set %.1f of %d tasks@."
    (List.length revoked) revoke_dirty_mean (n_units - 1);
  check "x13/every revoke analyzed warm" !revoke_warm;
  check "x13/revoke warm results bit-identical to cold" !revoke_identical;
  check "x13/revoke dirty set = reads-rule count" !revoke_reads_rule;
  metric "x13/revoke_dirty_mean" revoke_dirty_mean

(* ------------------------------------------------------------------ *)
(* Bechamel timings: one Test.make per paper artefact                  *)
(* ------------------------------------------------------------------ *)

let timings () =
  header "Timings (Bechamel, one test per regenerated artefact)";
  let open Bechamel in
  let open Toolkit in
  let sys = Hsched.Paper_example.system () in
  let m = Hsched.Paper_example.model () in
  let asm = Hsched.Paper_example.assembly () in
  let printed = Spec.to_string asm in
  let big_sys =
    Workload.Gen.system ~seed:1
      { Workload.Gen.default_spec with Workload.Gen.n_txns = 10; n_resources = 4 }
  in
  let big_m = Model.of_system big_sys in
  (* sessions created outside the timed thunks: these benchmarks measure
     the steady state of a reused session (compiled IR and tables) *)
  let session_red = Analysis.Engine.create m in
  let session_ex = Analysis.Engine.create ~params:Analysis.Params.exact m in
  let session_big = Analysis.Engine.create big_m in
  let tests =
    [
      Test.make ~name:"figure3:supply-functions"
        (Staged.stage (fun () ->
             (* [open Toolkit] shadows the [S] alias; qualify fully *)
             let server =
               Platform.Supply.Periodic_server { budget = q "2"; period = q "5" }
             in
             for i = 0 to 30 do
               ignore (Platform.Supply.z_min server (Q.make i 2));
               ignore (Platform.Supply.z_max server (Q.make i 2))
             done));
      Test.make ~name:"figure5:derivation"
        (Staged.stage (fun () -> ignore (Transaction.Derive.derive_exn asm)));
      Test.make ~name:"table1:spec-parse+derive"
        (Staged.stage (fun () ->
             match Spec.load printed with
             | Ok a -> ignore (Transaction.Derive.derive_exn a)
             | Error _ -> assert false));
      Test.make ~name:"table3:holistic-reduced"
        (Staged.stage (fun () -> ignore (Analysis.Engine.analyze session_red)));
      Test.make ~name:"table3:holistic-exact"
        (Staged.stage (fun () -> ignore (Analysis.Engine.analyze session_ex)));
      Test.make ~name:"x1:holistic-10txn"
        (Staged.stage (fun () -> ignore (Analysis.Engine.analyze session_big)));
      Test.make ~name:"x2:simulation-10k"
        (Staged.stage (fun () ->
             ignore
               (Engine.run
                  ~config:{ Engine.default_config with horizon = Q.of_int 10_000 }
                  sys)));
      Test.make ~name:"x3:design-min-rate"
        (Staged.stage (fun () ->
             ignore
               (Design.Param_search.min_rate ~precision:6 sys ~resource:2
                  ~family:
                    (Design.Param_search.fixed_latency_family ~delta:(q "2")
                       ~beta:Q.one))));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"hsched" tests) in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let results = Analyze.merge ols instances results in
  Format.printf "%-40s %16s@." "benchmark" "time/run";
  let rows = ref [] in
  Hashtbl.iter
    (fun _clock per_test ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> rows := (name, est) :: !rows
          | Some _ | None -> rows := (name, nan) :: !rows)
        per_test)
    results;
  List.iter
    (fun (name, est) ->
      let human =
        if Float.is_nan est then "n/a"
        else if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%.2f µs" (est /. 1e3)
        else Printf.sprintf "%.0f ns" est
      in
      Format.printf "%-40s %16s@." name human)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* X12: integer timeline kernel — identity and sequential speedup      *)
(* ------------------------------------------------------------------ *)

let int_kernel_bench () =
  header "X12 — integer timeline kernel: identity and sequential speedup";
  (* same standard workload as X9's scaling matrix, analysed
     sequentially: the kernel's win is per-evaluation arithmetic, so the
     one-domain wall clock is the honest comparison *)
  let spec =
    {
      Workload.Gen.default_spec with
      Workload.Gen.n_txns = (if !quick then 6 else 8);
      n_resources = 2;
      max_tasks_per_txn = 3;
    }
  in
  let sys = Workload.Gen.system ~seed:3 spec in
  let m = Model.of_system sys in
  Format.printf "%8s %14s %16s %9s@." "variant" "kernel (ms)" "rational (ms)"
    "speedup";
  let exercise name params =
    let kc = Analysis.Rta.counters () in
    let session = Analysis.Engine.create ~params ~counters:kc m in
    check
      (Printf.sprintf "x12/%s kernel compiled" name)
      (Analysis.Engine.kernel_scale session <> None);
    let kernel_ms, kernel_report =
      wall (fun () -> Analysis.Engine.analyze session)
    in
    let rational_ms, rational_report =
      wall (fun () ->
          Analysis.Engine.analyze
            (Analysis.Engine.create
               ~params:{ params with Analysis.Params.int_kernel = false }
               m))
    in
    check
      (Printf.sprintf "x12/%s reports bit-identical" name)
      (kernel_report = rational_report);
    (* a kernel that silently never engaged would make the identity
       check vacuous, so engagement is a hard FAIL, not a metric *)
    check
      (Printf.sprintf "x12/%s kernel engaged without fallback" name)
      (Analysis.Rta.kernel_runs kc = 1
      && Analysis.Rta.kernel_fallbacks kc = 0);
    metric (Printf.sprintf "x12/%s_kernel_ms" name) kernel_ms;
    metric (Printf.sprintf "x12/%s_rational_ms" name) rational_ms;
    metric (Printf.sprintf "x12/%s_speedup" name) (rational_ms /. kernel_ms);
    Format.printf "%8s %14.1f %16.1f %8.2fx@." name kernel_ms rational_ms
      (rational_ms /. kernel_ms);
    (kernel_ms, rational_ms)
  in
  let k_exact, r_exact = exercise "exact" Analysis.Params.exact in
  let _ = exercise "reduced" Analysis.Params.default in
  if not !quick then
    check "x12/exact sequential speedup >= 1.5x" (r_exact >= 1.5 *. k_exact)

(* Shared speedup gate (X15/X16/X17): record the ratio and assert
   [faster_ms *. factor <= baseline_ms] — but only when [enabled].  A
   host too small for the expectation (or a --quick run too short to
   time) records the skip as a metric instead, so CI can tell a pass
   from a dodge. *)
let speedup_gate ~enabled ~skip_reason ~prefix ~speedup_name ~check_name
    ~factor ~baseline_ms ~faster_ms =
  if enabled then begin
    metric (prefix ^ "/speedup_gate_skipped") 0.;
    metric speedup_name (baseline_ms /. faster_ms);
    check check_name (faster_ms *. factor <= baseline_ms)
  end
  else begin
    Format.printf "SKIPPED: %s (%s)@." check_name skip_reason;
    metric (prefix ^ "/speedup_gate_skipped") 1.
  end

(* ------------------------------------------------------------------ *)
(* X15: sharded fleet — cross-shard identity, durable replay, speedup  *)
(* ------------------------------------------------------------------ *)

let fleet_sharding () =
  header "X15 — sharded fleet: identity across shard counts, durable replay";
  let host_cores = Domain.recommended_domain_count () in
  metric "x15/host_cores" (float_of_int host_cores);
  let params =
    { Analysis.Params.default with Analysis.Params.keep_history = false }
  in
  let items =
    match Spec.Parser.parse service_base with
    | Ok items -> items
    | Error e -> failwith e
  in
  let tenants =
    [| "acme"; "globex"; "initech"; "umbrella"; "stark"; "wayne"; "tyrell"; "hooli" |]
  in
  let n_tenants = Array.length tenants in
  let per_tenant = if !quick then 5 else 8 in
  (* per-tenant unit k: all on P3, so admission k re-analyzes the
     tenant's whole assembly — the work sharding parallelizes *)
  let t_unit k =
    Printf.sprintf
      "component S%d { implementation: scheduler fixed_priority; thread T \
       periodic(period = %d, deadline = %d) priority %d { task work(wcet = \
       0.2, bcet = 0.1); } } instance SI%d : S%d on P3;"
      k (30 + k) (30 + k) (k + 2) k k
  in
  (* round-robin across tenants: admissions of different tenants
     commute, so a 4-shard fleet runs up to 4 tenants' streams
     concurrently; each admit is followed by a query for read coverage *)
  let envs =
    let seq = ref 0 in
    List.concat_map
      (fun k ->
        Array.to_list tenants
        |> List.concat_map (fun tenant ->
               List.map
                 (fun req ->
                   incr seq;
                   {
                     Service.Protocol.seq = !seq;
                     arrival = 0.;
                     deadline_ms = None;
                     tenant = Some tenant;
                     req;
                   })
                 [
                   Service.Protocol.Admit
                     { uid = Printf.sprintf "s%d" k; spec = t_unit k };
                   Service.Protocol.Query;
                 ]))
      (List.init per_tenant (fun k -> k))
  in
  let n_admits = n_tenants * per_tenant in
  let tenant_hashes srv =
    Array.to_list tenants
    |> List.map (fun t ->
           match Service.Fleet.tenant_store srv t with
           | Some s -> s.Service.Store.hash
           | None -> "missing")
  in
  let run shards log =
    match
      Service.Fleet.create ~shards ~params
        ~max_batch:(List.length envs) ?log items
    with
    | Error es -> failwith (String.concat "; " es)
    | Ok srv ->
        let ms, resps =
          wall (fun () -> Service.Fleet.process_batch srv envs)
        in
        let hashes = tenant_hashes srv in
        Service.Fleet.shutdown srv;
        (ms, List.map Service.Json.to_string resps, hashes)
  in
  let t1, r1, h1 = run 1 None in
  let t2, r2, _ = run 2 None in
  let t4, r4, _ = run 4 None in
  metric "x15/admit_batch_s1_ms" t1;
  metric "x15/admit_batch_s2_ms" t2;
  metric "x15/admit_batch_s4_ms" t4;
  metric "x15/admissions_per_sec_s1" (float_of_int n_admits /. (t1 /. 1000.));
  metric "x15/admissions_per_sec_s4" (float_of_int n_admits /. (t4 /. 1000.));
  Format.printf
    "%d tenants x %d admissions: s1 %.1f ms, s2 %.1f ms, s4 %.1f ms (s4 \
     speedup %.2fx)@."
    n_tenants per_tenant t1 t2 t4 (t1 /. t4);
  check "x15/responses identical across shard counts" (r1 = r2 && r2 = r4);
  (* durable replay: the same session through a write-ahead log, then a
     restart at a different shard count must reach identical hashes *)
  let log = Filename.temp_file "hsched_x15" ".wal" in
  Sys.remove log;
  let _, _, logged = run 2 (Some log) in
  let replayed =
    match Service.Fleet.create ~shards:4 ~params ~log items with
    | Error es -> failwith (String.concat "; " es)
    | Ok srv ->
        let hs = tenant_hashes srv in
        Service.Fleet.shutdown srv;
        hs
  in
  Sys.remove log;
  check "x15/live hashes match the single-shard run" (logged = h1);
  check "x15/replayed hashes identical after restart" (replayed = logged);
  speedup_gate ~enabled:(host_cores >= 4)
    ~skip_reason:
      (Printf.sprintf "needs >= 4 cores, host offers %d" host_cores)
    ~prefix:"x15" ~speedup_name:"x15/speedup_s4"
    ~check_name:"x15/4 shards at least 1.5x the single-shard admission rate"
    ~factor:1.5 ~baseline_ms:t1 ~faster_ms:t4

(* ------------------------------------------------------------------ *)
(* X16: parametric interface region — build once, answer many          *)
(* ------------------------------------------------------------------ *)

let region_interface () =
  header "X16 — (α, Δ) schedulability region: build once, answer many";
  let module D = Design.Param_search in
  let sys = Hsched.Paper_example.system () in
  let resource = 2 in
  let base_bounds =
    Array.map
      (fun (r : Platform.Resource.t) -> r.Platform.Resource.bound)
      sys.Transaction.System.resources
  in
  let beta = base_bounds.(resource).LB.beta in
  let engine =
    Analysis.Engine.create ~params:Analysis.Params.default
      (Model.of_system sys)
  in
  let n_queries = 100 in
  (* one "least rate at delay Δ" question per Δ, spread over [1/2, 8]
     off the dyadic grid so no two questions share a probe point *)
  let deltas =
    List.init n_queries (fun i ->
        Q.add (Q.make 1 2) (Q.make (15 * i) (2 * n_queries)))
  in
  (* Both sides run with the warm probe ladder disabled: the ladder
     speeds the multisections themselves up (X17 measures exactly
     that), which would shrink this ratio for a reason that has nothing
     to do with the region subsystem.  Ladder off keeps X16 the
     algorithmic build-once-vs-search-many crossover it always was. *)
  let no_ladder = Regions.Probe_ladder.create ~enabled:false () in
  (* baseline: the status-quo answer — one dyadic multisection
     (default precision 10) per question, all on the shared session *)
  let multisections () =
    List.map
      (fun delta ->
        D.min_rate ~engine ~ladder:no_ladder sys ~resource
          ~family:(D.fixed_latency_family ~delta ~beta))
      deltas
  in
  (* region mode: one build, then every answer is an O(log) lookup on
     the certified Pareto frontier — no further analyses *)
  let region_answers () =
    let rm = D.region ~engine ~ladder:no_ladder ~precision:5 sys ~resource in
    (rm, List.map (fun delta -> D.region_min_alpha rm ~delta) deltas)
  in
  (* one untimed run of each supplies the answers checked below; the
     gate then compares medians over several rounds, so one scheduler
     spike in either loop cannot flip it *)
  let multi = multisections () in
  let rm, reg = region_answers () in
  let rounds = 5 in
  let multi_ms = median_wall ~rounds multisections in
  let region_ms = median_wall ~rounds region_answers in
  let stats = Regions.Cell.stats rm.D.cells in
  metric "x16/queries" (float_of_int n_queries);
  metric "x16/multisection_ms" multi_ms;
  metric "x16/region_ms" region_ms;
  metric "x16/region_cells" (float_of_int stats.Regions.Cell.cells);
  metric "x16/region_probes" (float_of_int stats.Regions.Cell.probes);
  Format.printf
    "%d min-rate questions: multisections %.1f ms, region build+answers \
     %.1f ms (%.2fx, medians of %d rounds); the region ran %d probes over \
     %d cells@."
    n_queries multi_ms region_ms (multi_ms /. region_ms) rounds
    stats.Regions.Cell.probes stats.Regions.Cell.cells;
  (* both sides answer every question, and agree to within a couple of
     grid cells (the region certifies on the [2^-p, 1] lattice, the
     multisection searches k/2^p — see Param_search.region_min_alpha) *)
  let tolerance = Q.make 3 32 in
  let agree =
    List.for_all2
      (fun m r ->
        match (m, r) with
        | Some m, Some r -> Q.(abs (r - m) <= tolerance)
        | _ -> false)
      multi reg
  in
  check "x16/region and multisection answers agree within a cell" agree;
  (* identity spot-check: the region's certified minima really are
     schedulable under a direct analysis at that exact point *)
  let verified = ref true in
  List.iteri
    (fun i (delta, r) ->
      if i mod (n_queries / 10) = 0 then
        match r with
        | None -> verified := false
        | Some alpha ->
            let bounds = Array.copy base_bounds in
            bounds.(resource) <- Platform.Linear_bound.make ~alpha ~delta ~beta;
            if not (D.schedulable_with ~engine sys ~bounds) then
              verified := false)
    (List.combine deltas reg);
  check "x16/region answers verified by direct analysis" !verified;
  (* unlike the X15 gate this is not a parallel-speedup claim:
     the margin comes from the probe counts (≈125 build probes against
     ≈1000 multisection probes), so core count cannot flip it and
     --quick keeps it.  It is still a ratio of wall times, which host
     load moves; the medians above keep a single slow round from
     deciding it *)
  speedup_gate ~enabled:true ~skip_reason:"" ~prefix:"x16"
    ~speedup_name:"x16/speedup_region"
    ~check_name:"x16/one region + 100 answers at least 5x faster than 100 \
                 multisections"
    ~factor:5. ~baseline_ms:multi_ms ~faster_ms:region_ms

(* ------------------------------------------------------------------ *)
(* X17: warm probe ladders — certificates and seeded fixed points      *)
(* ------------------------------------------------------------------ *)

let warm_probes_bench () =
  header
    "X17 — warm probe ladders: region build + min-rate multisections, warm \
     vs cold";
  let module D = Design.Param_search in
  let module PL = Regions.Probe_ladder in
  (* One workload = one region build plus one min-rate multisection per
     question, run on a fresh session either through one shared warm
     ladder (dominance certificates + seeded fixed points) or through a
     disabled ladder (every probe a cold analysis).  Both searches are
     deterministic and the ladder never changes a verdict, so the two
     sides probe the same points in the same order; only the fixed-point
     work behind each verdict changes. *)
  let spread n_queries =
    List.init n_queries (fun i ->
        Q.add (Q.make 1 2) (Q.make (15 * i) (2 * n_queries)))
  in
  let run ?rate_precision ?sink sys ~resource ~precision ~deltas ~enabled () =
    let beta =
      sys.Transaction.System.resources.(resource).Platform.Resource.bound
        .LB.beta
    in
    let ladder = PL.create ~enabled () in
    let engine =
      Analysis.Engine.create ?sink ~params:Analysis.Params.default
        (Model.of_system sys)
    in
    let rm = D.region ~engine ~ladder ~precision sys ~resource in
    let answers =
      List.map
        (fun delta ->
          D.min_rate ~engine ~ladder ?precision:rate_precision sys ~resource
            ~family:(D.fixed_latency_family ~delta ~beta))
        deltas
    in
    ((rm, answers), PL.stats ladder)
  in
  let measure ?rate_precision sys ~resource ~precision ~deltas =
    let run = run ?rate_precision sys ~resource ~precision ~deltas in
    (* one untimed run of each side supplies the answers and ladder
       counts checked below; the times are medians of rounds that run a
       cold then a warm side, each on a fresh session and ladder, so
       neither one scheduler spike (cold and warm times are each bimodal
       on a 2-core host) nor a drift in host load can flip the gate *)
    let cold_run, cold_stats = run ~enabled:false () in
    let warm_run, warm_stats = run ~enabled:true () in
    let cold_ms, warm_ms =
      median_walls ~rounds:5 (run ~enabled:false) (run ~enabled:true)
    in
    (cold_ms, warm_ms, cold_run, warm_run, cold_stats, warm_stats)
  in
  let same_answer a b =
    match (a, b) with
    | Some a, Some b -> Q.equal a b
    | None, None -> true
    | _ -> false
  in
  let same_point (a : Regions.Frontier.point) (b : Regions.Frontier.point) =
    Q.equal a.Regions.Frontier.f_alpha b.Regions.Frontier.f_alpha
    && Q.equal a.Regions.Frontier.f_delta b.Regions.Frontier.f_delta
    && a.Regions.Frontier.f_refined = b.Regions.Frontier.f_refined
  in
  let same_points a b =
    List.length a = List.length b && List.for_all2 same_point a b
  in
  let identical (rm_cold, cold_answers) (rm_warm, warm_answers) =
    List.for_all2 same_answer warm_answers cold_answers
    && Regions.Cell.stats rm_warm.D.cells = Regions.Cell.stats rm_cold.D.cells
    && same_points
         (Regions.Frontier.points rm_warm.D.frontier)
         (Regions.Frontier.points rm_cold.D.frontier)
    && same_points rm_warm.D.refined rm_cold.D.refined
  in
  (* Part 1: the X16 workload (paper example, 100 questions).  The
     models are tiny — a cold analysis costs ~30µs — so wall time here
     is mostly probe dispatch and noisy under host load; the gate is the
     algorithmic ratio instead, like X16's analysis-count gates: the
     warm side must answer the same probes with at most half the
     fixed-point analyses (certificates answer for free, the rest is
     seeding).  Deterministic, so --quick keeps it. *)
  let sys = Hsched.Paper_example.system () in
  let resource = 2 in
  let cold_ms, warm_ms, cold_run, warm_run, cs, ws =
    measure sys ~resource ~precision:5 ~deltas:(spread 100)
  in
  let certified = ws.PL.cert_feasible + ws.PL.cert_infeasible in
  let warm_analyses = ws.PL.seeded + ws.PL.cold in
  metric "x17/cold_ms" cold_ms;
  metric "x17/warm_ms" warm_ms;
  metric "x17/probes" (float_of_int ws.PL.probes);
  metric "x17/certified" (float_of_int certified);
  metric "x17/seeded" (float_of_int ws.PL.seeded);
  metric "x17/cold_analyses" (float_of_int cs.PL.cold);
  metric "x17/analysis_ratio"
    (float_of_int cs.PL.cold /. float_of_int (max 1 warm_analyses));
  Format.printf
    "paper example: %d probes each side; warm ladder answered %d by \
     certificate (zero analyses), %d seeded, %d cold — %d analyses vs %d \
     cold (%.2fx); wall warm %.1f ms vs cold %.1f ms (%.2fx, medians of 5 \
     rounds)@."
    ws.PL.probes certified ws.PL.seeded ws.PL.cold warm_analyses cs.PL.cold
    (float_of_int cs.PL.cold /. float_of_int (max 1 warm_analyses))
    warm_ms cold_ms (cold_ms /. warm_ms);
  check "x17/warm and cold runs probed the same points"
    (ws.PL.probes = cs.PL.probes);
  check "x17/warm answers bit-identical to cold (multisection + region)"
    (identical cold_run warm_run);
  check "x17/warm ladder runs at most half the cold fixed-point analyses"
    (warm_analyses * 2 <= cs.PL.cold);
  (* Part 2: the same flow on an interference-heavy generated workload
     (8 transactions, 3 tasks each, 2 resources) where one cold analysis
     costs ~900µs and seeding roughly halves the iteration count — here
     the 2x shows up in wall time.  Unlike Part 1's analysis-count
     ratio this is a wall-clock claim, so the gate follows the
     X13/X15 convention: full mode only, loud skip under --quick. *)
  let heavy =
    Workload.Gen.system ~seed:3
      {
        Workload.Gen.default_spec with
        Workload.Gen.n_txns = 8;
        n_resources = 2;
        max_tasks_per_txn = 3;
      }
  in
  let h_cold_ms, h_warm_ms, h_cold_run, h_warm_run, hcs, hws =
    measure heavy ~resource:0 ~precision:4 ~deltas:(spread 20)
  in
  let h_certified = hws.PL.cert_feasible + hws.PL.cert_infeasible in
  metric "x17/heavy_cold_ms" h_cold_ms;
  metric "x17/heavy_warm_ms" h_warm_ms;
  metric "x17/heavy_probes" (float_of_int hws.PL.probes);
  metric "x17/heavy_certified" (float_of_int h_certified);
  metric "x17/heavy_seeded" (float_of_int hws.PL.seeded);
  metric "x17/heavy_cold_analyses" (float_of_int hcs.PL.cold);
  Format.printf
    "heavy workload: %d probes each side (%d certified, %d seeded, %d \
     cold); wall warm %.1f ms vs cold %.1f ms (%.2fx, medians of 5 \
     rounds)@."
    hws.PL.probes h_certified hws.PL.seeded hws.PL.cold h_warm_ms h_cold_ms
    (h_cold_ms /. h_warm_ms);
  check "x17/heavy warm and cold runs probed the same points"
    (hws.PL.probes = hcs.PL.probes);
  check "x17/heavy warm answers bit-identical to cold (multisection + region)"
    (identical h_cold_run h_warm_run);
  speedup_gate ~enabled:(not !quick)
    ~skip_reason:"--quick run too short to time" ~prefix:"x17"
    ~speedup_name:"x17/speedup_warm"
    ~check_name:"x17/warm probe ladder at least 2x faster than cold probes"
    ~factor:2. ~baseline_ms:h_cold_ms ~faster_ms:h_warm_ms;
  (* Part 3: design_region's shape — 16 single-task transactions over 2
     platforms at 40% load, per platform a region build at p = 5 and 5
     min-rate questions on the 2^-8 grid at Δ spread over (0, D/2), D
     the smallest deadline.  A probe moves one platform, so a pinned
     run re-iterates only that platform's transactions; the gate counts
     the task responses the sweeps recomputed on each side, which no
     host load moves, so --quick keeps it.  Certificates and seeds alone
     leave the warm side at 0.75 of the cold count; pinning brings it to
     0.37. *)
  let generated =
    Workload.Gen.system ~seed:8020
      {
        Workload.Gen.default_spec with
        Workload.Gen.n_txns = 16;
        n_resources = 2;
        max_tasks_per_txn = 1;
        utilization = Q.make 2 5;
      }
  in
  let dmin =
    Array.fold_left
      (fun acc (tx : Transaction.Txn.t) -> Q.min acc tx.Transaction.Txn.deadline)
      generated.Transaction.System.transactions.(0).Transaction.Txn.deadline
      generated.Transaction.System.transactions
  in
  let deltas = List.init 5 (fun i -> Q.mul dmin (Q.make (i + 1) 12)) in
  (* The task responses the sweeps of one untimed run recompute. *)
  let recomputed ~resource ~enabled =
    let n = ref 0 in
    let sink : Analysis.Engine.sink = function
      | Analysis.Engine.Sweep { recomputed; _ } -> n := !n + recomputed
      | _ -> ()
    in
    ignore
      (run ~rate_precision:8 ~sink generated ~resource ~precision:5 ~deltas
         ~enabled ());
    !n
  in
  let g_cold_ms = ref 0. and g_warm_ms = ref 0. and g_probes = ref 0 in
  let g_certified = ref 0 and g_seeded = ref 0 and same_probes = ref true in
  let g_identical = ref true and g_cold_tasks = ref 0 and g_warm_tasks = ref 0 in
  for resource = 0 to Transaction.System.n_resources generated - 1 do
    let cold_ms, warm_ms, cold_run, warm_run, cs, ws =
      measure generated ~resource ~precision:5 ~rate_precision:8 ~deltas
    in
    g_cold_ms := !g_cold_ms +. cold_ms;
    g_warm_ms := !g_warm_ms +. warm_ms;
    g_probes := !g_probes + ws.PL.probes;
    g_certified := !g_certified + ws.PL.cert_feasible + ws.PL.cert_infeasible;
    g_seeded := !g_seeded + ws.PL.seeded;
    same_probes := !same_probes && ws.PL.probes = cs.PL.probes;
    g_identical := !g_identical && identical cold_run warm_run;
    g_cold_tasks := !g_cold_tasks + recomputed ~resource ~enabled:false;
    g_warm_tasks := !g_warm_tasks + recomputed ~resource ~enabled:true
  done;
  let ratio = float_of_int !g_warm_tasks /. float_of_int (max 1 !g_cold_tasks) in
  metric "x17/generated_cold_ms" !g_cold_ms;
  metric "x17/generated_warm_ms" !g_warm_ms;
  metric "x17/generated_probes" (float_of_int !g_probes);
  metric "x17/generated_certified" (float_of_int !g_certified);
  metric "x17/generated_seeded" (float_of_int !g_seeded);
  metric "x17/generated_cold_recomputed" (float_of_int !g_cold_tasks);
  metric "x17/generated_warm_recomputed" (float_of_int !g_warm_tasks);
  metric "x17/generated_recomputed_ratio" ratio;
  Format.printf
    "generated workload: %d probes each side (%d certified, %d seeded); \
     task responses recomputed warm %d vs cold %d (%.2f); wall warm %.1f \
     ms vs cold %.1f ms (medians of 5 rounds per platform, summed)@."
    !g_probes !g_certified !g_seeded !g_warm_tasks !g_cold_tasks ratio
    !g_warm_ms !g_cold_ms;
  check "x17/generated warm and cold runs probed the same points" !same_probes;
  check
    "x17/generated warm answers bit-identical to cold (multisection + region)"
    !g_identical;
  check
    "x17/generated warm probes recompute at most half the task responses \
     cold probes do"
    (2 * !g_warm_tasks <= !g_cold_tasks)

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("figure3", figure3);
    ("figure5", figure5);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("exact_vs_reduced", exact_vs_reduced);
    ("analysis_vs_simulation", analysis_vs_simulation);
    ("design_search", design_search);
    ("classical_equivalence", classical_equivalence);
    ("fp_vs_edf", fp_vs_edf);
    ("sensitivity", sensitivity);
    ("scalability", scalability);
    ("parallel_scaling", parallel_scaling);
    ("best_case_ablation", best_case_ablation);
    ("prune_incremental", prune_incremental);
    ("int_kernel", int_kernel_bench);
    ("service_throughput", service_throughput);
    ("delta_admit", delta_admit);
    ("fleet_sharding", fleet_sharding);
    ("region_interface", region_interface);
    ("warm_probes", warm_probes_bench);
    ("timings", timings);
  ]

module J = Service.Json

(* Where the results were measured. *)
let git_rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
      let rev = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if rev = "" then "unknown" else rev

let rev = lazy (git_rev ())

(* Records of the sections this run finished, newest first. *)
let ran : (string * J.t) list ref = ref []

(* A crashing section records a failed check instead of aborting the
   run: [finish] must still execute so the JSON summary reaches --out
   whatever happened (CI asserts on the file, not the exit trace). *)
let run_section (name, f) =
  checks := [];
  metrics := [];
  let ms, () =
    wall (fun () ->
        try f ()
        with exn ->
          Format.printf "section %s raised: %s@." name (Printexc.to_string exn);
          check (Printf.sprintf "%s/completed without exception" name) false)
  in
  metric (Printf.sprintf "section/%s_ms" name) ms;
  let value v =
    if Float.is_finite v then J.Float (Float.round (v *. 1000.) /. 1000.)
    else J.Null
  in
  ran :=
    ( name,
      J.Obj
        [
          ("quick", J.Bool !quick);
          ("rev", J.String (Lazy.force rev));
          ("nproc", J.Int (Domain.recommended_domain_count ()));
          ("clock", J.String "monotonic");
          ( "checks",
            J.Obj (List.rev_map (fun (k, ok) -> (k, J.Bool ok)) !checks) );
          ( "metrics",
            J.Obj (List.rev_map (fun (k, v) -> (k, value v)) !metrics) );
        ] )
    :: !ran

(* Objects one field per line, everything else as [J.to_string]. *)
let rec render b indent (v : J.t) =
  match v with
  | J.Obj (_ :: _ as fields) ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          Printf.bprintf b "%s\"%s\": " pad (J.escape k);
          render b (indent + 2) v)
        fields;
      Printf.bprintf b "\n%s}" (String.make indent ' ')
  | v -> Buffer.add_string b (J.to_string v)

(* Merge this run's records into the file: sections in [sections]
   order, then any the file holds under other names. *)
let write_json path =
  let previous =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> []
    | text -> ( match J.parse text with Ok (J.Obj fields) -> fields | _ -> [])
  in
  let latest name =
    match List.assoc_opt name !ran with
    | Some r -> Some (name, r)
    | None -> Option.map (fun r -> (name, r)) (List.assoc_opt name previous)
  in
  let known = List.filter_map (fun (name, _) -> latest name) sections in
  let others =
    List.filter (fun (name, _) -> not (List.mem_assoc name sections)) previous
  in
  let b = Buffer.create 4096 in
  render b 0 (J.Obj (known @ others));
  Buffer.add_char b '\n';
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)

let finish () =
  write_json !out_path;
  Format.printf "@.%s written: %d check(s), %d failed@." !out_path !n_checks
    (List.length !failures);
  List.iter (Format.printf "FAILED: %s@.") (List.rev !failures);
  if !failures <> [] then exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    if List.mem "--quick" args then begin
      quick := true;
      List.filter (fun a -> a <> "--quick") args
    end
    else args
  in
  let rec take_out acc = function
    | "--out" :: path :: rest ->
        out_path := path;
        take_out acc rest
    | [ "--out" ] ->
        prerr_endline "bench: --out requires a FILE argument";
        exit 1
    | a :: rest -> take_out (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = take_out [] args in
  match args with
  | [] ->
      List.iter run_section sections;
      finish ()
  | [ "list" ] -> List.iter (fun (n, _) -> print_endline n) sections
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n sections with
          | Some f -> run_section (n, f)
          | None ->
              Format.printf "unknown section %s (try: list)@." n;
              exit 1)
        names;
      finish ()
