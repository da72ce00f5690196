(* hsched — command-line front end.

   Subcommands operate on .hsc system descriptions:

     hsched validate    sys.hsc      static architecture checks
     hsched derive      sys.hsc      print the derived transactions
     hsched analyze     sys.hsc      holistic schedulability analysis
     hsched simulate    sys.hsc      discrete-event simulation (+ Gantt)
     hsched design      sys.hsc      platform parameter synthesis
     hsched sensitivity sys.hsc      per-task margins, per-txn slack
     hsched serve       sys.hsc      online admission-control service
     hsched format      sys.hsc      canonical re-formatting
     hsched example                  run the paper's worked example    *)

open Cmdliner
module Q = Rational
module Report = Analysis.Report

let load_assembly path =
  match Spec.load_file path with
  | Ok asm -> Ok asm
  | Error es -> Error (String.concat "\n" es)

let load_system path =
  match load_assembly path with
  | Error e -> Error e
  | Ok asm -> (
      match Transaction.Derive.derive asm with
      | Ok sys -> Ok sys
      | Error es -> Error (String.concat "\n" es))

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline msg;
      exit 1

(* A system whose exact arithmetic leaves native ints is bad input, not
   an internal error: every command that computes on it says so and
   exits 1. *)
let or_overflow f =
  try f ()
  with Q.Overflow ->
    prerr_endline "arithmetic overflow: exact rationals exceed native ints";
    1

(* --- common args --- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"System description (.hsc).")

let exact_flag =
  Arg.(
    value & flag
    & info [ "exact" ]
        ~doc:
          "Use the exact scenario enumeration (Section 3.1.1) instead of the \
           reduced analysis.  Exponential in the number of interfering tasks.")

let params_of_exact exact =
  if exact then Analysis.Params.exact else Analysis.Params.default

let no_prune_flag =
  Arg.(
    value & flag
    & info [ "no-prune" ]
        ~doc:
          "Disable the branch-and-bound pruning of the exact scenario \
           enumeration and enumerate exhaustively.  Reports are identical \
           either way; this only trades speed for a reference measurement.")

let no_int_kernel_flag =
  Arg.(
    value & flag
    & info [ "no-int-kernel" ]
        ~doc:
          "Run the analysis on exact rationals instead of the scaled-integer \
           timeline kernel.  Reports are identical either way (the kernel \
           falls back to rationals by itself when the model does not fit \
           native integers); this only trades speed for a reference \
           measurement.")

(* Search-grid precisions are exponents (grids have 2^bits points), so
   a typo like 1000 would hang the process for geological time; bound
   them at parse time (cmdliner parse errors exit 124). *)
let precision_conv ~max_bits =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %s" s))
    | Some n when n < 1 -> Error (`Msg (Printf.sprintf "must be >= 1, got %d" n))
    | Some n when n > max_bits ->
        Error (`Msg (Printf.sprintf "must be <= %d, got %d" max_bits n))
    | Some n -> Ok n
  in
  Arg.conv ~docv:"BITS" (parse, Format.pp_print_int)

let engine_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the engine's structured events (model compilation, one line \
           per fixed-point sweep, final verdict) to $(docv) as JSON lines.")

(* [f] receives a line writer.  The channel is closed through an
   idempotent closure registered both as the [Fun.protect] finalizer
   and with [at_exit]: [Stdlib.exit] does not unwind the stack, so a
   command that exits from inside the traced scope (unschedulable
   verdicts exit 2) would otherwise drop whatever the channel still
   buffers and truncate the trace file. *)
let with_trace trace f =
  match trace with
  | None -> f None
  | Some path ->
      let oc = open_out path in
      let closed = ref false in
      let close () =
        if not !closed then begin
          closed := true;
          close_out_noerr oc
        end
      in
      at_exit close;
      Fun.protect ~finally:close (fun () ->
          f
            (Some
               (fun line ->
                 output_string oc line;
                 output_char oc '\n')))

let engine_sink writer =
  Option.map
    (fun w e -> w (Analysis.Engine.event_to_json e))
    writer

(* --- validate --- *)

let validate_cmd =
  let run file =
    let asm = or_die (load_assembly file) in
    match Component.Assembly.validate asm with
    | Ok () ->
        print_endline "valid";
        0
    | Error es ->
        List.iter prerr_endline es;
        1
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check the architecture of a system description.")
    Term.(const run $ file_arg)

(* --- derive --- *)

let derive_cmd =
  let run file =
    let sys = or_die (load_system file) in
    or_overflow @@ fun () ->
    (* rendered whole first, so an overflow prints nothing *)
    print_string (Format.asprintf "%a@." Transaction.System.pp sys);
    0
  in
  Cmd.v
    (Cmd.info "derive"
       ~doc:"Print the real-time transactions derived from the components (§2.4).")
    Term.(const run $ file_arg)

(* --- analyze --- *)

let history_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "history" ] ~docv:"TXN"
        ~doc:"Also print the per-iteration history of the named transaction.")

let csv_flag =
  Arg.(
    value & flag
    & info [ "csv" ]
        ~doc:"Emit machine-readable CSV (one row per task) instead of the table.")

let analyze_cmd =
  let run file exact history csv trace no_prune no_int_kernel =
    let sys = or_die (load_system file) in
    or_overflow @@ fun () ->
    let m = Analysis.Model.of_system sys in
    let params =
      let p = params_of_exact exact in
      {
        p with
        Analysis.Params.prune = not no_prune;
        int_kernel = not no_int_kernel;
        (* only --history prints the per-sweep matrices *)
        keep_history = history <> None;
      }
    in
    let report =
      with_trace trace @@ fun writer ->
      let sink = engine_sink writer in
      Analysis.Engine.analyze (Analysis.Engine.create ~params ?sink m)
    in
    let names a b = (Analysis.Model.task m a b).Analysis.Model.name in
    if csv then begin
      print_endline
        "transaction,task,platform,priority,wcet,bcet,offset,jitter,rbest,response,deadline,meets_deadline";
      Array.iteri
        (fun a row ->
          Array.iteri
            (fun b (res : Report.task_result) ->
              let tk = Analysis.Model.task m a b in
              let tx = m.Analysis.Model.txns.(a) in
              let response, meets =
                match res.Report.response with
                | Report.Divergent -> ("inf", false)
                | Report.Finite r ->
                    (Q.to_string r, Q.(r <= tx.Analysis.Model.deadline))
              in
              Printf.printf "%s,%s,%d,%d,%s,%s,%s,%s,%s,%s,%s,%b\n"
                tx.Analysis.Model.tname (names a b) tk.Analysis.Model.res
                tk.Analysis.Model.prio
                (Q.to_string tk.Analysis.Model.c)
                (Q.to_string tk.Analysis.Model.cb)
                (Q.to_string res.Report.offset)
                (Q.to_string res.Report.jitter)
                (Q.to_string res.Report.rbest)
                response
                (Q.to_string tx.Analysis.Model.deadline)
                meets)
            row)
        report.Report.results
    end
    else Format.printf "%a@." (Report.pp ~names) report;
    (match history with
    | None -> ()
    | Some name -> (
        match Transaction.System.find_transaction sys name with
        | None -> Format.printf "no transaction named %s@." name
        | Some txn ->
            Format.printf "@.iteration history of %s:@.%a@." name
              (Report.pp_history ~names ~txn)
              report));
    if report.Report.schedulable then 0 else 2
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Holistic schedulability analysis on abstract platforms (Section 3).  \
          Exits 0 when schedulable, 2 when not.")
    Term.(
      const run $ file_arg $ exact_flag $ history_arg $ csv_flag
      $ engine_trace_arg $ no_prune_flag $ no_int_kernel_flag)

(* --- simulate --- *)

let horizon_arg =
  Arg.(
    value & opt int 10_000
    & info [ "horizon" ] ~docv:"T" ~doc:"Simulated time span.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let exec_arg =
  let models =
    [ ("worst", Simulator.Engine.Worst); ("best", Simulator.Engine.Best);
      ("uniform", Simulator.Engine.Uniform) ]
  in
  Arg.(
    value
    & opt (enum models) Simulator.Engine.Worst
    & info [ "exec" ] ~docv:"MODEL"
        ~doc:"Execution-demand model: $(b,worst), $(b,best) or $(b,uniform).")

let trace_arg =
  Arg.(
    value & opt int 0
    & info [ "trace" ] ~docv:"N" ~doc:"Print the first $(docv) events.")

let policy_arg =
  let policies =
    [ ("fp", Simulator.Engine.Fixed_priority); ("edf", Simulator.Engine.Edf) ]
  in
  Arg.(
    value
    & opt (enum policies) Simulator.Engine.Fixed_priority
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Local dispatching on every platform: $(b,fp) (the paper's fixed \
           priorities) or $(b,edf).")

let gantt_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "gantt" ] ~docv:"T"
        ~doc:
          "Render a Gantt chart of the first $(docv) time units (implies \
           tracing).")

let simulate_cmd =
  let run file horizon seed exec trace policy gantt =
    let sys = or_die (load_system file) in
    let trace_limit =
      match gantt with None -> trace | Some _ -> max trace 100_000
    in
    let config =
      {
        Simulator.Engine.default_config with
        horizon = Q.of_int horizon;
        seed;
        exec;
        trace_limit;
        policy;
      }
    in
    let res = Simulator.Engine.run ~config sys in
    let m = Analysis.Model.of_system sys in
    let names a b = (Analysis.Model.task m a b).Analysis.Model.name in
    Format.printf "%a@." (Simulator.Stats.pp ~names) res.Simulator.Engine.stats;
    Format.printf "deadline misses: %d@." res.Simulator.Engine.deadline_misses;
    if trace > 0 then begin
      Format.printf "@.trace:@.";
      List.iteri
        (fun i e ->
          if i < trace then
            Format.printf "  %a@." Simulator.Engine.pp_event e)
        res.Simulator.Engine.trace
    end;
    (match gantt with
    | None -> ()
    | Some window ->
        Format.printf "@.%s@."
          (Simulator.Trace.gantt ~names ~horizon:(Q.of_int window)
             ~n_platforms:(Transaction.System.n_resources sys)
             res.Simulator.Engine.trace));
    if res.Simulator.Engine.deadline_misses = 0 then 0 else 2
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Execute the system in the discrete-event simulator (reservation \
          servers, local fixed-priority or EDF dispatching, synchronous RPC).")
    Term.(
      const run $ file_arg $ horizon_arg $ seed_arg $ exec_arg $ trace_arg
      $ policy_arg $ gantt_arg)

(* --- sensitivity --- *)

let sensitivity_cmd =
  let run file precision trace =
    let sys = or_die (load_system file) in
    or_overflow @@ fun () ->
    with_trace trace @@ fun writer ->
    let sink = engine_sink writer in
    (* One session for the whole command: every margin search and the
       slack report reuse the model compiled here. *)
    let engine = Analysis.Engine.create_system ?sink sys in
    Format.printf "per-task WCET scaling margins (most critical first):@.%a@."
      Design.Sensitivity.pp_margins
      (Design.Sensitivity.all_task_margins ~engine ~precision sys);
    Format.printf "@.end-to-end slack per transaction:@.";
    List.iter
      (fun (name, response, deadline) ->
        match response with
        | Analysis.Report.Divergent ->
            Format.printf "  %-28s response unbounded@." name
        | Analysis.Report.Finite r ->
            Format.printf "  %-28s R = %a, D = %a, slack = %a@." name
              Q.pp_decimal r Q.pp_decimal deadline Q.pp_decimal Q.(deadline - r))
      (Design.Sensitivity.transaction_slack ~engine sys);
    0
  in
  let precision_arg =
    Arg.(
      value
      & opt (precision_conv ~max_bits:24) 6
      & info [ "precision" ] ~docv:"BITS" ~doc:"Search-grid precision.")
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Per-task growth margins and per-transaction slack.")
    Term.(const run $ file_arg $ precision_arg $ engine_trace_arg)

(* --- design --- *)

let precision_arg =
  Arg.(
    value
    & opt (precision_conv ~max_bits:24) 7
    & info [ "precision" ] ~docv:"BITS"
        ~doc:"Rates are searched on the grid k/2^$(docv).")

(* A server period must be a positive rational; anything else is a
   parse error (exit 124), not an exception out of the design search. *)
let period_conv =
  let parse s =
    match Q.of_decimal_string s with
    | p when Q.(p > zero) -> Ok p
    | _ | (exception (Invalid_argument _ | Rational.Overflow)) ->
        Error (`Msg (Printf.sprintf "expected a positive rational, got %s" s))
  in
  Arg.conv ~docv:"P" (parse, Q.pp)

let server_period_arg =
  Arg.(
    value
    & opt (some period_conv) None
    & info [ "server-period" ] ~docv:"P"
        ~doc:
          "Realise every platform as a periodic server of period $(docv) \
           (rate and latency then trade off); default keeps each platform's \
           delay and burstiness fixed.")

let region_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "region" ] ~docv:"PLATFORM"
        ~doc:
          "Instead of the rate search, compute platform $(docv)'s exact (α, \
           Δ) schedulability region (rate and delay free, burstiness fixed) \
           and print its cells, Pareto supply frontier and refined boundary \
           vertices as JSON ($(b,--csv): one vertex per row).  Exits 0 when \
           the platform's current parameters lie in the region, 2 when not.")

let grid_arg =
  Arg.(
    value
    & opt (precision_conv ~max_bits:10) 5
    & info [ "grid" ] ~docv:"BITS"
        ~doc:
          "Region cell resolution: the (α, Δ) domain is subdivided down to \
           2^$(docv) × 2^$(docv) cells (each extra bit up to doubles the \
           probe analyses).  Only meaningful with $(b,--region).")

(* The region report: one JSON object (or CSV vertex rows) with the
   certified cell statistics, the Pareto staircase and the
   affine-refined boundary vertices.  Exact rationals are printed as
   "p/q" strings — decimals would lie about exactness. *)
let print_region ~csv ~name ~grid rm current_alpha current_delta member =
  let module D = Design.Param_search in
  let module C = Regions.Cell in
  let module S = Regions.Symbolic in
  let module F = Regions.Frontier in
  let frontier = F.points rm.D.frontier in
  if csv then begin
    print_endline "kind,alpha,delta";
    List.iter
      (fun (p : F.point) ->
        Printf.printf "frontier,%s,%s\n"
          (Q.to_string p.F.f_alpha)
          (Q.to_string p.F.f_delta))
      frontier;
    List.iter
      (fun (p : F.point) ->
        Printf.printf "refined,%s,%s\n"
          (Q.to_string p.F.f_alpha)
          (Q.to_string p.F.f_delta))
      rm.D.refined
  end
  else begin
    let st = C.stats rm.D.cells in
    let dom = C.domain rm.D.cells in
    let ls = Regions.Probe_ladder.stats rm.D.ladder in
    let vertices pts =
      String.concat ","
        (List.map
           (fun (p : F.point) ->
             Printf.sprintf {|{"alpha":"%s","delta":"%s"}|}
               (Q.to_string p.F.f_alpha)
               (Q.to_string p.F.f_delta))
           pts)
    in
    Printf.printf
      {|{"platform":"%s","grid":%d,"domain":{"alpha":["%s","%s"],"delta":["%s","%s"]},"cells":%d,"feasible":%d,"infeasible":%d,"boundary":%d,"refined":%d,"probes":%d,"probe_hits":%d,"probe_ladder":{"probes":%d,"seeded":%d,"cold":%d,"cert_feasible":%d,"cert_infeasible":%d},"current":{"alpha":"%s","delta":"%s","member":%b},"frontier":[%s],"refined_vertices":[%s]}|}
      name grid
      (Q.to_string dom.S.a_lo)
      (Q.to_string dom.S.a_hi)
      (Q.to_string dom.S.d_lo)
      (Q.to_string dom.S.d_hi)
      st.C.cells st.C.feasible st.C.infeasible st.C.boundary st.C.refined
      st.C.probes st.C.probe_hits ls.Regions.Probe_ladder.probes ls.Regions.Probe_ladder.seeded
      ls.Regions.Probe_ladder.cold ls.Regions.Probe_ladder.cert_feasible
      ls.Regions.Probe_ladder.cert_infeasible
      (Q.to_string current_alpha)
      (Q.to_string current_delta)
      member (vertices frontier)
      (vertices rm.D.refined);
    print_newline ()
  end

let design_cmd =
  let run file precision server_period region grid csv trace =
    let sys = or_die (load_system file) in
    or_overflow @@ fun () ->
    with_trace trace @@ fun writer ->
    let sink = engine_sink writer in
    (* One session for the whole command: every probe of the rate search
       and the breakdown sweep reuses the model compiled here. *)
    let engine = Analysis.Engine.create_system ?sink sys in
    let resources = sys.Transaction.System.resources in
    match region with
    | Some name -> (
        let resource = ref (-1) in
        Array.iteri
          (fun i (r : Platform.Resource.t) ->
            if r.Platform.Resource.name = name then resource := i)
          resources;
        match !resource with
        | -1 ->
            Printf.eprintf "no platform named %s\n" name;
            1
        | resource ->
            let module D = Design.Param_search in
            let region_sink =
              Option.map
                (fun w e -> w (Regions.Cell.event_to_json e))
                writer
            in
            let rm =
              D.region ~engine ~precision:grid ?sink:region_sink sys ~resource
            in
            let b = resources.(resource).Platform.Resource.bound in
            let alpha = b.Platform.Linear_bound.alpha in
            let delta = b.Platform.Linear_bound.delta in
            let member = D.region_member rm ~alpha ~delta in
            print_region ~csv ~name ~grid rm alpha delta member;
            if member then 0 else 2)
    | None -> (
        let families =
          match server_period with
          | Some period ->
              Array.map
                (fun (_ : Platform.Resource.t) ->
                  Design.Param_search.periodic_server_family ~period)
                resources
          | None ->
              Array.map
                (fun (r : Platform.Resource.t) ->
                  let b = r.Platform.Resource.bound in
                  Design.Param_search.fixed_latency_family
                    ~delta:b.Platform.Linear_bound.delta
                    ~beta:b.Platform.Linear_bound.beta)
                resources
        in
        (* Return the code instead of calling [exit] here: [exit] would
           not unwind [with_trace]'s finalizer (see its comment). *)
        match
          Design.Param_search.balance_rates ~engine ~precision sys ~families
        with
        | None ->
            print_endline "not schedulable even at full rates";
            2
        | Some rates ->
            Format.printf "minimal balanced rates:@.";
            Array.iteri
              (fun i a ->
                Format.printf "  %-12s α = %a  (%s)@."
                  resources.(i).Platform.Resource.name Q.pp_decimal a
                  families.(i).Design.Param_search.describe)
              rates;
            Format.printf "  Σα = %a@." Q.pp_decimal
              (Array.fold_left Q.add Q.zero rates);
            Format.printf "breakdown utilization: %a@." Q.pp_decimal
              (Design.Param_search.breakdown_utilization ~engine ~precision
                 sys);
            0)
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:
         "Search minimal platform rates keeping the system schedulable (the \
          optimisation of the paper's Section 5), or compute one platform's \
          exact (α, Δ) schedulability region ($(b,--region)).")
    Term.(
      const run $ file_arg $ precision_arg $ server_period_arg $ region_arg
      $ grid_arg $ csv_flag $ engine_trace_arg)

(* --- serve --- *)

(* Counts that must be at least one (shards, batch sizes, accept
   limits): garbage, zero, negatives and counts beyond any plausible
   deployment are typos rejected at parse time, not values to serve
   with. *)
let max_jobs = 512

let positive_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %s" s))
    | Some n when n < 1 -> Error (`Msg (Printf.sprintf "must be >= 1, got %d" n))
    | Some n when n > max_jobs ->
        Error (`Msg (Printf.sprintf "must be <= %d, got %d" max_jobs n))
    | Some n -> Ok n
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let shards_arg =
  Arg.(
    value & opt positive_conv 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Partition tenants onto $(docv) shards by consistent hashing, \
           each with its own engine session.  The shards run on one domain \
           pool, at most one domain per core, so shards beyond the core \
           count share domains.  Per-tenant responses are bit-identical \
           for every shard count.")

let log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Durable write-ahead log: committed admissions/revocations are \
           appended to $(docv) as JSON lines and replayed on restart \
           (refusing to start if the replay diverges from the recorded \
           hashes).  Compacted periodically into per-tenant snapshots.")

let max_batch_arg =
  Arg.(
    value & opt positive_conv 64
    & info [ "max-batch" ] ~docv:"N"
        ~doc:
          "Overload threshold: when a drained batch exceeds $(docv) \
           requests, $(b,what_if)/$(b,region) probes are shed first, then \
           queries, then admissions — never $(b,stats).  Applied per shard \
           batch.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Serve on a Unix-domain socket at $(docv) (one client at a time) \
           instead of stdin/stdout.")

let accept_limit_arg =
  Arg.(
    value
    & opt (some positive_conv) None
    & info [ "accept-limit" ] ~docv:"N"
        ~doc:"With $(b,--socket): exit after serving $(docv) connections.")

let serve_cmd =
  let run file shards log exact max_batch trace socket accept_limit =
    let src =
      try Ok (In_channel.with_open_bin file In_channel.input_all)
      with Sys_error e -> Error e
    in
    let src = or_die src in
    match Spec.Parser.parse src with
    | Error e ->
        prerr_endline e;
        1
    | Ok items -> (
        with_trace trace @@ fun writer ->
        let trace =
          Option.map (fun w e -> w (Service.Events.to_json e)) writer
        in
        let params =
          { (params_of_exact exact) with Analysis.Params.keep_history = false }
        in
        match
          Service.Fleet.create ~shards ~params ~max_batch ?trace ?log items
        with
        | Error es ->
            List.iter prerr_endline es;
            1
        | Ok fleet ->
            Fun.protect
              ~finally:(fun () -> Service.Fleet.shutdown fleet)
              (fun () ->
                match socket with
                | None -> Service.Server.run fleet stdin stdout
                | Some path ->
                    Service.Server.run_unix_socket ?accept_limit fleet ~path);
            0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online admission-control service over the base system \
          $(b,FILE): JSON-lines requests ($(b,admit), $(b,revoke), \
          $(b,query), $(b,what_if), $(b,region), $(b,stats)) on stdin or a \
          Unix socket, one response per line.  Protocol reference in \
          docs/SERVICE.md.")
    Term.(
      const run $ file_arg $ shards_arg $ log_arg $ exact_flag $ max_batch_arg
      $ engine_trace_arg $ socket_arg $ accept_limit_arg)

(* --- format --- *)

let format_cmd =
  let run file =
    let asm = or_die (load_assembly file) in
    print_string (Spec.to_string asm);
    0
  in
  Cmd.v
    (Cmd.info "format"
       ~doc:
         "Parse a system description and print its canonical form (stable \
          under re-formatting).")
    Term.(const run $ file_arg)

(* --- example --- *)

let example_cmd =
  let run exact =
    let m = Hsched.Paper_example.model () in
    let report =
      Analysis.Engine.analyze
        (Analysis.Engine.create ~params:(params_of_exact exact) m)
    in
    let names a b = (Analysis.Model.task m a b).Analysis.Model.name in
    Format.printf "%a@.@.Γ1 iteration history (the paper's Table 3):@.%a@."
      (Report.pp ~names) report
      (Report.pp_history ~names ~txn:0)
      report;
    if report.Report.schedulable then 0 else 2
  in
  Cmd.v
    (Cmd.info "example" ~doc:"Analyze the paper's sensor-fusion example.")
    Term.(const run $ exact_flag)

let main =
  Cmd.group
    (Cmd.info "hsched" ~version:Hsched.version
       ~doc:
         "Hierarchical scheduling analysis for component-based real-time \
          systems (Lorente, Lipari & Bini, IPPS 2006).")
    [
      validate_cmd;
      derive_cmd;
      analyze_cmd;
      simulate_cmd;
      design_cmd;
      sensitivity_cmd;
      serve_cmd;
      format_cmd;
      example_cmd;
    ]

let () = exit (Cmd.eval' main)
