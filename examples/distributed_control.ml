(* A distributed steer-by-wire control loop, written in the .hsc
   language the paper's pseudo notation inspired (Figures 1-2).

   Two ECUs exchange RPCs over a CAN-like shared bus:

     node "steer": SteeringSensor (servers) + the 5 ms safety monitor
     node "rack":  RackController, whose 10 ms control thread reads the
                   steering angle remotely and drives the actuator

   The bus is itself an abstract platform (§2.2.1: "the network is
   similar to a computational node"): each remote call contributes a
   request and a reply message task scheduled on it by fixed priority.

   The example shows:
     - message tasks appearing inside the derived transactions,
     - end-to-end response-time analysis across CPU and network
       platforms,
     - what happens when the bus reservation is squeezed.

   Run with: dune exec examples/distributed_control.exe *)

module Q = Rational
module Report = Analysis.Report

let source =
  {|
// --- platforms: two ECU reservations and the bus ---
platform ECU_STEER { server(budget = 2, period = 5/2); host = "steer"; }
platform ECU_RACK  { server(budget = 2, period = 5/2); host = "rack"; }
// the CAN segment reserved for this function: 40% of the bandwidth,
// one-message blocking is folded into delta
platform BUS network { alpha = 0.4; delta = 1; beta = 0; host = "wire"; }

// --- the steering-angle producer ---
component SteeringSensor {
  provided:
    angle() mit 10;
  implementation:
    scheduler fixed_priority;
    // sample the Hall sensors every 2.5 ms
    thread Sampler periodic(period = 5/2, deadline = 5/2) priority 3 {
      task sample(wcet = 1/2, bcet = 1/4);
    }
    thread Serve realizes angle() priority 2 {
      task encode(wcet = 1/2, bcet = 1/4);
    }
}

// --- the rack-side controller ---
component RackController {
  required:
    readAngle() mit 10;
  implementation:
    scheduler fixed_priority;
    // the loop is pipelined: two periods of end-to-end latency are fine
    thread Control periodic(period = 10, deadline = 20) priority 2 {
      task observe(wcet = 1, bcet = 1/2);
      call readAngle();
      task actuate(wcet = 3/2, bcet = 1);
    }
}

// --- a local safety monitor sharing the steering ECU ---
component SafetyMonitor {
  implementation:
    scheduler fixed_priority;
    thread Watch periodic(period = 5, deadline = 5) priority 1 {
      task check(wcet = 1/2, bcet = 1/4);
    }
}

instance sensor  : SteeringSensor on ECU_STEER;
instance rack    : RackController on ECU_RACK;
instance monitor : SafetyMonitor  on ECU_STEER;

bind rack.readAngle -> sensor.angle
  via BUS priority 2 request(wcet = 1/2, bcet = 1/2)
                     reply(wcet = 1/2, bcet = 1/2);
|}

let () =
  let assembly =
    match Spec.load source with
    | Ok a -> a
    | Error es ->
        List.iter print_endline es;
        exit 1
  in
  let system = Transaction.Derive.derive_exn assembly in
  Format.printf "== derived transactions (note the BUS message tasks) ==@.%a@."
    Transaction.System.pp system;

  let model = Analysis.Model.of_system system in
  let report = Analysis.Engine.analyze (Analysis.Engine.create model) in
  let names a b = (Analysis.Model.task model a b).Analysis.Model.name in
  Format.printf "== analysis ==@.%a@.@." (Report.pp ~names) report;

  (* end-to-end latency of the control transaction *)
  (match Transaction.System.find_transaction system "rack.Control" with
  | None -> ()
  | Some i -> (
      match Report.transaction_response report i with
      | Report.Divergent -> Format.printf "control loop: unbounded!@."
      | Report.Finite r ->
          Format.printf
            "control loop end-to-end latency bound: %a ms (deadline 20 ms)@."
            Q.pp_decimal r));

  (* simulate the real mechanisms: both ECUs are periodic servers *)
  let sim =
    Simulator.Engine.run
      ~config:
        {
          Simulator.Engine.default_config with
          horizon = Q.of_int 20_000;
          exec = Simulator.Engine.Uniform;
        }
      system
  in
  Format.printf "@.== simulation (uniform demands) ==@.%a@."
    (Simulator.Stats.pp ~names) sim.Simulator.Engine.stats;

  (* squeeze the bus: how slow can the reservation go? *)
  let bus_index =
    match
      Array.to_list system.Transaction.System.resources
      |> List.mapi (fun i r -> (i, r))
      |> List.find_opt (fun (_, (r : Platform.Resource.t)) ->
             r.Platform.Resource.name = "BUS")
    with
    | Some (i, _) -> i
    | None -> assert false
  in
  let family =
    Design.Param_search.fixed_latency_family ~delta:Q.one ~beta:Q.zero
  in
  (match Design.Param_search.min_rate ~precision:8 system ~resource:bus_index ~family with
  | None -> Format.printf "no feasible bus reservation?!@."
  | Some alpha ->
      Format.printf
        "@.minimal feasible bus rate (Δ = 1 fixed): %a (provisioned: 0.4)@."
        Q.pp_decimal alpha);

  (* and how much delay does the control loop tolerate on the bus? *)
  match Design.Param_search.max_delta ~precision:8 system ~resource:bus_index with
  | None -> ()
  | Some d -> Format.printf "maximal tolerable bus delay: %a ms@." Q.pp_decimal d
