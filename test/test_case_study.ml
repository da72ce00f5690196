(* The shipped case studies load, validate, analyze and simulate.  Keeps
   the .hsc files in the repository honest: a change that breaks their
   schedulability or their syntax fails here. *)

module Q = Rational
module Report = Analysis.Report

(* `dune runtest` runs with cwd = the test directory, `dune exec` from
   the workspace root; accept both. *)
let resolve file =
  let candidates = [ "../examples/" ^ file; "examples/" ^ file ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "cannot find %s from %s" file (Sys.getcwd ())

let load file =
  let path = resolve file in
  match Spec.load_file path with
  | Ok asm -> asm
  | Error es -> Alcotest.failf "%s: %s" path (String.concat " | " es)

let analyze sys = Analysis.Engine.(analyze (create_system sys))

let test_sensor_fusion () =
  let asm = load "sensor_fusion.hsc" in
  let sys = Transaction.Derive.derive_exn asm in
  let report = analyze sys in
  Alcotest.(check bool) "schedulable" true report.Report.schedulable;
  (* must be byte-equivalent to the programmatic Paper_example *)
  let reference = Hsched.Paper_example.report () in
  Array.iteri
    (fun a row ->
      Array.iteri
        (fun b (res : Report.task_result) ->
          Alcotest.(check bool)
            (Printf.sprintf "τ%d,%d" a b)
            true
            (Report.equal_bound res.Report.response
               reference.Report.results.(a).(b).Report.response))
        row)
    report.Report.results

let test_cruise_control_analysis () =
  let asm = load "cruise_control.hsc" in
  let sys = Transaction.Derive.derive_exn asm in
  (* shape: 5 ECU reservations + 2 CAN segments; driver transactions,
     the fusion and control chains, the safety monitor, and no
     environment-driven extras beyond fusion.objectList's second use *)
  Alcotest.(check int) "platforms" 7 (Transaction.System.n_resources sys);
  Alcotest.(check bool) "several transactions" true
    (Transaction.System.n_transactions sys >= 5);
  let report = analyze sys in
  Alcotest.(check bool) "converged" true report.Report.converged;
  Alcotest.(check bool) "schedulable" true report.Report.schedulable;
  (* the exact analysis agrees with the verdict *)
  let exact =
    Analysis.Engine.(analyze (create_system ~params:Analysis.Params.exact sys))
  in
  Alcotest.(check bool) "exact schedulable" true exact.Report.schedulable

let test_cruise_control_messages () =
  let asm = load "cruise_control.hsc" in
  let sys = Transaction.Derive.derive_exn asm in
  (* CAN1 carries 4 message tasks (2 calls × req+rep), CAN2 one *)
  let count_messages rname =
    let r =
      let rec find i =
        if
          sys.Transaction.System.resources.(i).Platform.Resource.name = rname
        then i
        else find (i + 1)
      in
      find 0
    in
    List.length (Transaction.System.tasks_on sys r)
  in
  Alcotest.(check int) "CAN1 frames" 4 (count_messages "CAN1");
  Alcotest.(check int) "CAN2 frames" 1 (count_messages "CAN2")

let test_cruise_control_simulation () =
  let asm = load "cruise_control.hsc" in
  let sys = Transaction.Derive.derive_exn asm in
  let report = analyze sys in
  List.iter
    (fun exec ->
      let res =
        Simulator.Engine.run
          ~config:
            {
              Simulator.Engine.default_config with
              horizon = Q.of_int 20_000;
              exec;
            }
          sys
      in
      Alcotest.(check int) "no deadline misses" 0
        res.Simulator.Engine.deadline_misses;
      Simulator.Stats.iter res.Simulator.Engine.stats (fun ~txn ~task s ->
          match report.Report.results.(txn).(task).Report.response with
          | Report.Divergent -> Alcotest.fail "divergent bound"
          | Report.Finite b ->
              if not Q.(s.Simulator.Stats.max_response <= b) then
                Alcotest.failf "τ%d,%d: observed %s > bound %s" txn task
                  (Q.to_string s.Simulator.Stats.max_response)
                  (Q.to_string b)))
    [ Simulator.Engine.Worst; Simulator.Engine.Uniform ]

let test_cruise_control_round_trip () =
  let asm = load "cruise_control.hsc" in
  let printed = Spec.to_string asm in
  match Spec.load printed with
  | Error es -> Alcotest.failf "reload: %s" (String.concat " | " es)
  | Ok asm2 -> Alcotest.(check string) "stable" printed (Spec.to_string asm2)

let () =
  Alcotest.run "case_study"
    [
      ( "sensor fusion",
        [ Alcotest.test_case "matches Paper_example" `Quick test_sensor_fusion ] );
      ( "cruise control",
        [
          Alcotest.test_case "analysis" `Quick test_cruise_control_analysis;
          Alcotest.test_case "message derivation" `Quick
            test_cruise_control_messages;
          Alcotest.test_case "simulation within bounds" `Quick
            test_cruise_control_simulation;
          Alcotest.test_case "round trip" `Quick test_cruise_control_round_trip;
        ] );
    ]
