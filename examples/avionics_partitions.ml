(* ARINC-653-flavoured time partitioning.

   One flight computer is divided by a static 20 ms major frame into two
   partitions — flight control in [0, 6), navigation in [8, 14) — and an
   I/O coprocessor runs a periodic server.  Slot tables and servers are
   *supply models*: the library computes their (α, Δ, β) abstraction
   for the analysis (Definitions 4-5), while the simulator executes the
   concrete slot/budget mechanics.  The navigation partition reaches the
   I/O component through a synchronous RPC.

   The program prints the computed abstractions, the analysis, and a
   Gantt chart of the first two major frames.

   Run with: dune exec examples/avionics_partitions.exe *)

module Q = Rational
module LB = Platform.Linear_bound
module Report = Analysis.Report

let source =
  {|
// the two partitions of the flight computer's 10 ms minor frame.
// A fine-grained frame matters analytically: the same rate spread over a
// 20 ms frame would give Δ = 14 and the linear bound α(t−Δ) could no
// longer prove the 20 ms deadlines (try it!), while the simulator shows
// the concrete slot table meeting every deadline either way.
platform FLT { slots(frame = 10) [0, 4];  host = "fcc"; }
platform NAV { slots(frame = 10) [5, 4];  host = "fcc"; }
// the I/O server lives on a coprocessor shared with other functions:
// a 2-per-5 server nested inside the 60% partition this function owns
// (a three-level hierarchy; the library composes the supply bounds)
platform IOP { server(budget = 2, period = 5) within slots(frame = 5) [0, 3]; host = "fcc"; }

component FlightControl {
  implementation:
    scheduler fixed_priority;
    // sections carry descending priority overrides: the holistic
    // analysis treats equal-priority peers of one thread as mutual
    // interference and their jitters feed each other, which is wildly
    // pessimistic; ordering the sections by priority removes it.
    // 20 ms sampling for throughput; the control law tolerates one
    // extra frame of latency (D = 2T), which absorbs the per-hop
    // platform delays the linear abstraction charges
    thread InnerLoop periodic(period = 20, deadline = 40) priority 3 {
      task gyro(wcet = 1, bcet = 1/2) priority 5;
      task law(wcet = 2, bcet = 1) priority 4;
      task surface(wcet = 1, bcet = 1/2);
    }
    thread OuterLoop periodic(period = 40, deadline = 40) priority 2 {
      task guidance(wcet = 2, bcet = 1);
    }
}

component IoServer {
  provided:
    query() mit 40;
  implementation:
    scheduler fixed_priority;
    thread Handle realizes query() priority 1 {
      task fetch(wcet = 1, bcet = 1/2);
    }
}

component Navigation {
  required:
    readIo() mit 40;
  implementation:
    scheduler fixed_priority;
    thread Fuse periodic(period = 40, deadline = 40) priority 2 {
      task predict(wcet = 2, bcet = 1) priority 3;
      call readIo();
      task update(wcet = 2, bcet = 1);
    }
}

instance flight : FlightControl on FLT;
instance nav    : Navigation    on NAV;
instance io     : IoServer      on IOP;

bind nav.readIo -> io.query;
|}

let () =
  let assembly =
    match Spec.load source with
    | Ok a -> a
    | Error es ->
        List.iter print_endline es;
        exit 1
  in
  (* the (α, Δ, β) the library computed from the slot tables / server *)
  Format.printf "== computed platform abstractions ==@.";
  List.iter
    (fun (r : Platform.Resource.t) ->
      Format.printf "  %-4s %-28s -> %a@." r.Platform.Resource.name
        (Format.asprintf "%a" Platform.Supply.pp r.Platform.Resource.supply)
        LB.pp r.Platform.Resource.bound)
    assembly.Component.Assembly.resources;

  let system = Transaction.Derive.derive_exn assembly in
  let model = Analysis.Model.of_system system in
  let report = Analysis.Engine.analyze (Analysis.Engine.create model) in
  let names a b = (Analysis.Model.task model a b).Analysis.Model.name in
  Format.printf "@.== analysis ==@.%a@." (Report.pp ~names) report;

  (* simulate the concrete mechanisms and draw two major frames *)
  let sim =
    Simulator.Engine.run
      ~config:
        {
          Simulator.Engine.default_config with
          horizon = Q.of_int 4000;
          exec = Simulator.Engine.Worst;
          trace_limit = 100_000;
        }
      system
  in
  Format.printf "@.== simulated responses ==@.%a@.deadline misses: %d@."
    (Simulator.Stats.pp ~names) sim.Simulator.Engine.stats
    sim.Simulator.Engine.deadline_misses;
  Format.printf "@.== first two major frames (simulated) ==@.%s@."
    (Simulator.Trace.gantt ~width:80 ~names ~horizon:(Q.of_int 40)
       ~n_platforms:(Transaction.System.n_resources system)
       sim.Simulator.Engine.trace)
