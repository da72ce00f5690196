(* The discrete-event simulator: queue substrate, hand-checkable
   schedules, supply mechanisms, preemption, RPC chaining, determinism. *)

module Q = Rational
module LB = Platform.Linear_bound
module R = Platform.Resource
module S = Platform.Supply
module Task = Transaction.Task
module Txn = Transaction.Txn
module Sys_ = Transaction.System
module Engine = Simulator.Engine
module Stats = Simulator.Stats
module Pqueue = Simulator.Pqueue

let q = Q.of_decimal_string

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

(* --- priority queue --- *)

let test_pqueue_sorts () =
  let h = Pqueue.of_list ~cmp:compare [ 5; 1; 4; 1; 3; 9; 0 ] in
  Alcotest.(check (list int)) "sorted drain" [ 0; 1; 1; 3; 4; 5; 9 ]
    (Pqueue.to_sorted_list h)

let test_pqueue_interleaved () =
  let h = Pqueue.create ~cmp:compare in
  Pqueue.add h 3;
  Pqueue.add h 1;
  Alcotest.(check (option int)) "peek min" (Some 1) (Pqueue.peek h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Pqueue.pop h);
  Pqueue.add h 0;
  Alcotest.(check (option int)) "pop new min" (Some 0) (Pqueue.pop h);
  Alcotest.(check (option int)) "pop last" (Some 3) (Pqueue.pop h);
  Alcotest.(check (option int)) "empty" None (Pqueue.pop h);
  Alcotest.(check bool) "is_empty" true (Pqueue.is_empty h)

let pqueue_law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"drain is sorted" ~count:200
       QCheck.(list int)
       (fun xs ->
         let drained = Pqueue.to_sorted_list (Pqueue.of_list ~cmp:compare xs) in
         drained = List.sort compare xs))

(* --- helpers --- *)

let mk_task ?(name = "t") ?(wcet = "1") ?(bcet = "1") ?(resource = 0) ?(priority = 1) () =
  Task.make ~name ~wcet:(q wcet) ~bcet:(q bcet) ~resource ~priority ()

let single_system ?(resource = R.full ~name:"cpu" ()) ~period ~wcet () =
  Sys_.make ~resources:[ resource ]
    [
      Txn.make ~name:"g" ~period:(q period) ~deadline:(q period)
        [ mk_task ~wcet ~bcet:wcet () ];
    ]

let max_response stats ~txn ~task =
  match Stats.sample stats ~txn ~task with
  | None -> Alcotest.fail "task never completed"
  | Some s -> s.Stats.max_response

let run ?(horizon = "1000") ?(exec = Engine.Worst) ?release_jitter sys =
  Engine.run
    ~config:{ Engine.default_config with horizon = q horizon; exec }
    ?release_jitter sys

(* --- basic execution --- *)

let test_single_task_full_platform () =
  let res = run (single_system ~period:"10" ~wcet:"3" ()) in
  check_q "R = C" (q "3") (max_response res.Engine.stats ~txn:0 ~task:0);
  Alcotest.(check int) "no misses" 0 res.Engine.deadline_misses

let test_preemption () =
  (* low-priority task preempted by a high-priority one on one CPU *)
  let sys =
    Sys_.make ~resources:[ R.full ~name:"cpu" () ]
      [
        Txn.make ~name:"hi" ~period:(q "4") ~deadline:(q "4")
          [ mk_task ~name:"h" ~priority:2 () ];
        Txn.make ~name:"lo" ~period:(q "10") ~deadline:(q "10")
          [ mk_task ~name:"l" ~wcet:"2" ~bcet:"2" ~priority:1 () ];
      ]
  in
  let res = run sys in
  check_q "hi unaffected" Q.one (max_response res.Engine.stats ~txn:0 ~task:0);
  (* lo: 2 units + 1 preemption at the synchronous critical instant *)
  check_q "lo delayed" (q "3") (max_response res.Engine.stats ~txn:1 ~task:0)

let test_deadline_misses_counted () =
  let sys =
    Sys_.make ~resources:[ R.full ~name:"cpu" () ]
      [
        Txn.make ~name:"g" ~period:(q "10") ~deadline:(q "1")
          [ mk_task ~wcet:"2" ~bcet:"2" () ];
      ]
  in
  let res = run ~horizon:"100" sys in
  Alcotest.(check bool) "misses detected" true (res.Engine.deadline_misses >= 9)

(* --- supply mechanisms --- *)

let test_periodic_server_slowdown () =
  (* 1 cycle of work on a server granting 1 per 4: the first instance
     completes within budget, but supply is not continuously available *)
  let server = R.of_supply ~name:"srv" (S.Periodic_server { budget = q "1"; period = q "4" }) in
  let res = run (single_system ~resource:server ~period:"8" ~wcet:"2" ()) in
  let r = max_response res.Engine.stats ~txn:0 ~task:0 in
  (* needs two budgets: at least one replenish gap is paid *)
  Alcotest.(check bool) "slower than dedicated" true Q.(r > q "2");
  Alcotest.(check bool) "within the analysis bound" true
    (let b = S.linear_bound (S.Periodic_server { budget = q "1"; period = q "4" }) in
     Q.(r <= LB.time_for b (q "2")))

let test_slots_platform () =
  (* supply only in [0,2) of every frame of 4 *)
  let slots = R.of_supply ~name:"tdma" (S.Static_slots { frame = q "4"; slots = [ (q "0", q "2") ] }) in
  let res = run (single_system ~resource:slots ~period:"8" ~wcet:"3" ()) in
  (* 2 cycles in the first slot, 1 in the next: completes at 5 *)
  check_q "slot arithmetic" (q "5") (max_response res.Engine.stats ~txn:0 ~task:0)

let test_nested_platform () =
  (* a 1-per-4 server inside a half-duty slot table: budget depletes
     only while the outer partition supplies.  2 cycles of work:
     [0,1) first budget inside the first slot; replenish at 4, second
     slot window [4,5): completes at 5. *)
  let nested =
    R.of_supply ~name:"nested"
      (S.Nested
         {
           inner = S.Periodic_server { budget = q "1"; period = q "4" };
           outer = S.Static_slots { frame = q "2"; slots = [ (q "0", q "1") ] };
         })
  in
  let res = run (single_system ~resource:nested ~period:"32" ~wcet:"2" ()) in
  check_q "composed mechanics" (q "5") (max_response res.Engine.stats ~txn:0 ~task:0);
  (* the composed analysis bound dominates the observation *)
  let sys = single_system ~resource:nested ~period:"32" ~wcet:"2" () in
  let report = Analysis.Engine.(analyze (create_system sys)) in
  match report.Analysis.Report.results.(0).(0).Analysis.Report.response with
  | Analysis.Report.Divergent -> Alcotest.fail "diverged"
  | Analysis.Report.Finite b ->
      (* bound = Delta + C/alpha = 13 + 16 = 29 *)
      check_q "composed bound" (q "29") b;
      Alcotest.(check bool) "bound dominates" true Q.(q "5" <= b)

let test_fluid_platform () =
  let fluid = R.of_bound ~name:"fluid" (LB.make ~alpha:(q "0.5") ~delta:Q.zero ~beta:Q.zero) in
  let res = run (single_system ~resource:fluid ~period:"10" ~wcet:"3" ()) in
  check_q "rate-scaled" (q "6") (max_response res.Engine.stats ~txn:0 ~task:0)

(* --- transactions across platforms (RPC) --- *)

let test_rpc_chain () =
  let sys =
    Sys_.make
      ~resources:[ R.full ~name:"c1" (); R.full ~name:"c2" () ]
      [
        Txn.make ~name:"g" ~period:(q "10") ~deadline:(q "10")
          [
            mk_task ~name:"a" ~wcet:"2" ~bcet:"2" ~resource:0 ();
            mk_task ~name:"b" ~wcet:"3" ~bcet:"3" ~resource:1 ();
            mk_task ~name:"c" ~wcet:"1" ~bcet:"1" ~resource:0 ();
          ];
      ]
  in
  let res = run sys in
  check_q "a" (q "2") (max_response res.Engine.stats ~txn:0 ~task:0);
  check_q "b = a + 3" (q "5") (max_response res.Engine.stats ~txn:0 ~task:1);
  check_q "c = b + 1" (q "6") (max_response res.Engine.stats ~txn:0 ~task:2)

(* --- execution models and determinism --- *)

let test_exec_models () =
  let sys =
    Sys_.make ~resources:[ R.full ~name:"cpu" () ]
      [
        Txn.make ~name:"g" ~period:(q "10") ~deadline:(q "10")
          [ mk_task ~wcet:"4" ~bcet:"2" () ];
      ]
  in
  let worst = run ~exec:Engine.Worst sys and best = run ~exec:Engine.Best sys in
  check_q "worst" (q "4") (max_response worst.Engine.stats ~txn:0 ~task:0);
  check_q "best" (q "2") (max_response best.Engine.stats ~txn:0 ~task:0);
  let uni = run ~exec:Engine.Uniform sys in
  let r = max_response uni.Engine.stats ~txn:0 ~task:0 in
  Alcotest.(check bool) "uniform within [2,4]" true Q.(r >= q "2" && r <= q "4")

let test_determinism () =
  let sys = Workload.Gen.system ~seed:7 Workload.Gen.default_spec in
  let r1 = run ~exec:Engine.Uniform sys and r2 = run ~exec:Engine.Uniform sys in
  Stats.iter r1.Engine.stats (fun ~txn ~task s1 ->
      match Stats.sample r2.Engine.stats ~txn ~task with
      | None -> Alcotest.fail "runs disagree on completions"
      | Some s2 ->
          Alcotest.(check int) "same count" s1.Stats.count s2.Stats.count;
          check_q "same max" s1.Stats.max_response s2.Stats.max_response)

let test_release_jitter_injection () =
  let sys = single_system ~period:"10" ~wcet:"1" () in
  let res = run ~release_jitter:[| q "5" |] sys in
  (* responses measured from the nominal activation include the jitter *)
  check_q "max-jitter policy" (q "6") (max_response res.Engine.stats ~txn:0 ~task:0)

let test_trace_recording () =
  let sys = single_system ~period:"10" ~wcet:"1" () in
  let res =
    Engine.run
      ~config:{ Engine.default_config with horizon = q "25"; trace_limit = 100 }
      sys
  in
  let releases =
    List.filter (function Engine.Release _ -> true | _ -> false) res.Engine.trace
  and completions =
    List.filter (function Engine.Completion _ -> true | _ -> false) res.Engine.trace
  in
  Alcotest.(check int) "3 releases in [0,25]" 3 (List.length releases);
  Alcotest.(check int) "3 completions" 3 (List.length completions)

let test_run_segments_and_gantt () =
  (* hi preempts lo at t=0; segments must show lo split around hi *)
  let sys =
    Sys_.make ~resources:[ R.full ~name:"cpu" () ]
      [
        Txn.make ~name:"hi" ~period:(q "10") ~deadline:(q "10")
          [ mk_task ~name:"h" ~wcet:"1" ~bcet:"1" ~priority:2 () ];
        Txn.make ~name:"lo" ~period:(q "20") ~deadline:(q "20")
          [ mk_task ~name:"l" ~wcet:"3" ~bcet:"3" ~priority:1 () ];
      ]
  in
  let res =
    Engine.run
      ~config:{ Engine.default_config with horizon = q "20"; trace_limit = 1000 }
      sys
  in
  let runs =
    List.filter_map
      (function
        | Engine.Run { from; until; txn; task; _ } -> Some (from, until, txn, task)
        | Engine.Release _ | Engine.Completion _ -> None)
      res.Engine.trace
  in
  (* [0,1) hi, [1,4) lo, [10,11) hi *)
  Alcotest.(check int) "three segments" 3 (List.length runs);
  (match runs with
  | [ (f1, u1, t1, _); (f2, u2, t2, _); (f3, u3, t3, _) ] ->
      check_q "hi starts at 0" Q.zero f1;
      check_q "hi ends at 1" Q.one u1;
      Alcotest.(check int) "first is hi" 0 t1;
      check_q "lo runs 1..4" Q.one f2;
      check_q "lo until 4" (q "4") u2;
      Alcotest.(check int) "second is lo" 1 t2;
      check_q "hi again at 10" (q "10") f3;
      check_q "until 11" (q "11") u3;
      Alcotest.(check int) "third is hi" 0 t3
  | _ -> Alcotest.fail "unexpected segment shape");
  (* the Gantt renderer agrees with the segments *)
  let names a b = ignore b; if a = 0 then "hi" else "lo" in
  let gantt =
    Simulator.Trace.gantt ~width:20 ~names ~horizon:(q "20") ~n_platforms:1
      res.Engine.trace
  in
  Alcotest.(check bool) "row rendered" true
    (String.length gantt > 0 && String.sub gantt 0 3 = "Π0");
  (* column 0 is 'a' (hi), columns 1-3 'b' (lo), column 10 'a' again *)
  let row = List.hd (String.split_on_char '\n' gantt) in
  let cells_start = 1 + String.index row '|' in
  Alcotest.(check char) "col 0 = hi" 'a' row.[cells_start];
  Alcotest.(check char) "col 1 = lo" 'b' row.[cells_start + 1];
  Alcotest.(check char) "col 10 = hi" 'a' row.[cells_start + 10];
  Alcotest.(check char) "idle tail" '.' row.[cells_start + 12]

let test_engine_error_paths () =
  let sys = single_system ~period:"10" ~wcet:"1" () in
  (match
     Simulator.Engine.run ~release_jitter:[| Q.zero; Q.zero |] sys
   with
  | _ -> Alcotest.fail "expected length-mismatch error"
  | exception Invalid_argument _ -> ())

let test_gantt_empty_trace () =
  (* no Run events (tracing off): rows render fully idle *)
  let g =
    Simulator.Trace.gantt ~width:10
      ~names:(fun _ _ -> "x")
      ~horizon:(q "10") ~n_platforms:2 []
  in
  let lines = String.split_on_char '\n' g in
  Alcotest.(check bool) "two platform rows" true (List.length lines >= 3);
  Alcotest.(check bool) "all idle" true
    (List.for_all
       (fun l ->
         not (String.contains l 'a'))
       lines)

let test_edf_vs_fp_same_when_priorities_agree () =
  (* when priorities are deadline-monotonic and periods implicit, EDF and
     FP produce the same observed maxima on this simple set *)
  let sys =
    Sys_.make ~resources:[ R.full ~name:"cpu" () ]
      [
        Txn.make ~name:"hi" ~period:(q "5") ~deadline:(q "5")
          [ mk_task ~name:"h" ~priority:2 () ];
        Txn.make ~name:"lo" ~period:(q "15") ~deadline:(q "15")
          [ mk_task ~name:"l" ~wcet:"3" ~bcet:"3" ~priority:1 () ];
      ]
  in
  let run policy =
    Simulator.Engine.run
      ~config:{ Engine.default_config with horizon = q "600"; policy }
      sys
  in
  let fp = run Engine.Fixed_priority and edf = run Engine.Edf in
  Stats.iter fp.Engine.stats (fun ~txn ~task s ->
      match Stats.sample edf.Engine.stats ~txn ~task with
      | None -> Alcotest.fail "missing"
      | Some e -> check_q "same max" s.Stats.max_response e.Stats.max_response)

(* statistics accumulate min/mean/max *)
let test_stats () =
  let s = Stats.create ~n_txns:1 ~tasks_per_txn:(fun _ -> 1) in
  Stats.record s ~txn:0 ~task:0 (q "1");
  Stats.record s ~txn:0 ~task:0 (q "3");
  match Stats.sample s ~txn:0 ~task:0 with
  | None -> Alcotest.fail "missing sample"
  | Some sample ->
      Alcotest.(check int) "count" 2 sample.Stats.count;
      check_q "min" Q.one sample.Stats.min_response;
      check_q "max" (q "3") sample.Stats.max_response;
      check_q "mean" (q "2") (Stats.mean sample)

let () =
  Alcotest.run "simulator"
    [
      ( "pqueue",
        [
          Alcotest.test_case "sorts" `Quick test_pqueue_sorts;
          Alcotest.test_case "interleaved ops" `Quick test_pqueue_interleaved;
          pqueue_law;
        ] );
      ( "execution",
        [
          Alcotest.test_case "single task" `Quick test_single_task_full_platform;
          Alcotest.test_case "preemption" `Quick test_preemption;
          Alcotest.test_case "deadline misses" `Quick test_deadline_misses_counted;
        ] );
      ( "supply",
        [
          Alcotest.test_case "periodic server" `Quick test_periodic_server_slowdown;
          Alcotest.test_case "static slots" `Quick test_slots_platform;
          Alcotest.test_case "nested reservation" `Quick test_nested_platform;
          Alcotest.test_case "fluid rate" `Quick test_fluid_platform;
        ] );
      ("rpc", [ Alcotest.test_case "chain across platforms" `Quick test_rpc_chain ]);
      ( "models",
        [
          Alcotest.test_case "exec models" `Quick test_exec_models;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "release jitter" `Quick test_release_jitter_injection;
          Alcotest.test_case "trace" `Quick test_trace_recording;
          Alcotest.test_case "run segments and gantt" `Quick
            test_run_segments_and_gantt;
          Alcotest.test_case "error paths" `Quick test_engine_error_paths;
          Alcotest.test_case "gantt empty trace" `Quick test_gantt_empty_trace;
          Alcotest.test_case "edf = fp under DM agreement" `Quick
            test_edf_vs_fp_same_when_priorities_agree;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
    ]
