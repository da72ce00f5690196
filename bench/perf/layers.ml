(* The per-layer metrics of the traced run: one fixed list, reported by
   every workload (BENCHMARK.json names the same list, in this order).

   Layer times a workload's ops always pass through are mean self times
   per call, in µs.  Layer times only some workloads pass through are
   shares of the traced ops' total time, in %, so a layer a workload
   never calls reads 0 rather than a meaningless time.  The absolute
   per-call times of every layer are printed in the trace table and
   written to the span file. *)

(* (metric, span) *)
let us_layers =
  [
    ("analysis.model_us", "analysis.model") (* Model.of_system *);
    ("analysis.ir_compile_us", "analysis.ir_compile") (* Ir.compile *);
    ("analysis.timebase_us", "analysis.timebase") (* Ir.timebase *);
    ("analysis.create_us", "analysis.create") (* Engine.create *);
  ]

let pct_layers =
  [
    ("protocol.parse_pct", "protocol.parse") (* Protocol.parse *);
    ("store.mutate_pct", "store.mutate") (* Store.admit / revoke *);
    ("spec.parse_pct", "spec.parse") (* Spec.Parser.parse *);
    ("spec.elaborate_pct", "spec.elaborate") (* Spec.Elaborate.assembly *);
    ("transaction.derive_pct", "transaction.derive")
    (* Transaction.Derive.derive_with_origins *);
    ("spec.print_digest_pct", "spec.print_digest")
    (* Spec.to_string + Digest *);
    ("wal.append_pct", "wal.append") (* Wal.append *);
    ("analysis.rebind_pct", "analysis.rebind") (* Engine.with_model *);
    ("analysis.delta_pct", "analysis.delta") (* Engine.analyze_delta *);
    ("analysis.fixpoint_pct", "analysis.fixpoint") (* Engine.analyze *);
    ("protocol.summarize_pct", "protocol.summarize") (* Protocol.summarize *);
    ("json.render_pct", "json.render")
    (* response functions + Json.to_string *);
    ("report.render_pct", "report.render") (* the analyze --csv output *);
    ("design.region_pct", "design.region") (* Param_search.region *);
    ("design.min_rate_pct", "design.min_rate") (* Param_search.min_rate *);
  ]

(* Metrics the workloads fill in by name, with their units. *)
let others =
  [
    ("engine.fixpoint_us", "us") (* Analysis_started → Finished *);
    ("analysis.outer_iterations", "count") (* per analysis *);
    ("analysis.dirty_ratio", "ratio") (* Engine.Delta.plan dirty / total *);
    ("engine.compiled_events", "count") (* per op *);
    ("engine.sweeps_per_analysis", "count");
    ("rta.scenarios_visited", "count") (* per analysis *);
    ("rta.pruned_ratio", "ratio");
    ("rta.bound_evals", "count") (* per analysis *);
    ("rta.kernel_fallbacks", "count") (* total; stays 0 *);
    ("memo.hit_ratio", "ratio");
    ("memo.invalidations", "count") (* per analysis *);
    ("ladder.probes_per_op", "count");
    ("ladder.certified_ratio", "ratio");
    ("ladder.seeded_ratio", "ratio");
    ("cell.cells", "count") (* per region build *);
    ("cell.boundary", "count") (* per region build *);
    ("tenant.cache_hit_ratio", "ratio") (* from the server's stats *);
    ("tenant.cache_entries", "count");
    ("engine.ir_warm_ratio", "ratio");
    ("engine.delta_warm_ratio", "ratio");
    ("engine.carried_ratio", "ratio");
    ("server.batch_mean", "count") (* requests per batch *);
    ("server.residual_pct", "%") (* client latency not spent in the server *);
    ("trace.overhead_pct", "%") (* traced vs untraced time of the same ops *);
  ]

(* The engine-sink and scenario counters of the traced ops. *)
let engine_values ~ops ~(counters : Analysis.Rta.counters) =
  let module P = Span.Engine_probe in
  let module Rta = Analysis.Rta in
  let n = !P.fixpoints in
  [
    ( "engine.fixpoint_us",
      if n = 0 then 0. else !P.fixpoint_ns /. float_of_int n /. 1e3 );
    ("analysis.outer_iterations", Run.ratio !P.iterations n);
    ("engine.compiled_events", Run.ratio !P.compiled ops);
    ("engine.sweeps_per_analysis", Run.ratio !P.sweeps n);
    ("rta.scenarios_visited", Run.ratio (Rta.visited_scenarios counters) n);
    ( "rta.pruned_ratio",
      Run.ratio (Rta.pruned_scenarios counters) (Rta.total_scenarios counters)
    );
    ("rta.bound_evals", Run.ratio (Rta.bound_evaluations counters) n);
    ("rta.kernel_fallbacks", float_of_int (Rta.kernel_fallbacks counters));
  ]

(* Memo statistics summed over the sessions the traced ops analysed on. *)
type memo = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

let memo () = { hits = 0; misses = 0; invalidations = 0 }

let add_memo m session =
  match Analysis.Engine.memo_stats session with
  | None -> ()
  | Some s ->
      m.hits <- m.hits + s.Analysis.Memo.hits;
      m.misses <- m.misses + s.Analysis.Memo.misses;
      m.invalidations <- m.invalidations + s.Analysis.Memo.invalidations

let memo_values m =
  [
    ("memo.hit_ratio", Run.ratio m.hits (m.hits + m.misses));
    ( "memo.invalidations",
      Run.ratio m.invalidations !Span.Engine_probe.fixpoints );
  ]

(* Steps timed on an op's input after the op, under a [breakdown] span;
   a workload may break down only one op in [breakdown_every]. *)
let breakdown_steps =
  [
    "breakdown";
    "spec.parse";
    "spec.elaborate";
    "transaction.derive";
    "spec.print_digest";
    "analysis.plan";
    "analysis.ir_compile";
    "analysis.timebase";
  ]

(* The compilation steps inside [Engine.create] and [Engine.with_model],
   on the same model. *)
let compile_steps model ~horizon_factor =
  ignore
    (Span.with_ "analysis.ir_compile" (fun () -> Analysis.Ir.compile model));
  ignore
    (Span.with_ "analysis.timebase" (fun () ->
         Analysis.Ir.timebase model ~horizon_factor))

(* A span's self time as a share of the traced ops' time, breakdown
   steps scaled back up to every op. *)
let share ~op_ns ~breakdown_every name (l : Span.layer) =
  let k =
    if List.mem name breakdown_steps then float_of_int breakdown_every else 1.
  in
  100. *. k *. l.Span.self_ns /. op_ns

let mean_us (l : Span.layer) =
  if l.Span.calls = 0 then 0.
  else l.Span.self_ns /. float_of_int l.Span.calls /. 1e3

(* The trace table: every span name with calls, mean self time per call
   and its share of the traced ops' time. *)
let table layers ~op_ns ~ops ~breakdown_every =
  Printf.sprintf "  %-24s %9s %9s %12s %8s" "layer" "calls" "calls/op"
    "self us/call" "share"
  :: List.map
       (fun (name, (l : Span.layer)) ->
         Printf.sprintf "  %-24s %9d %9.2f %12.1f %7.1f%%" name l.Span.calls
           (Run.ratio l.Span.calls ops)
           (mean_us l)
           (share ~op_ns ~breakdown_every name l))
       layers

(* The traced run's report: every declared metric, span-derived ones
   first, [values] filling the rest by name (anything it leaves out
   reads 0); times at the calibrated reference host speed, like the
   end-to-end metrics; the trace table; the span file. *)
let report ?(breakdown_every = 1) r (ctx : Run.ctx) ~op_ns ~ops values =
  let layers = Span.aggregate () in
  let f = Calib.factor () in
  Run.info r "host_factor" (Printf.sprintf "%.3f" f);
  List.iter
    (fun (name, span) ->
      Run.metric r name (f *. mean_us (Span.find layers span)) "us")
    us_layers;
  List.iter
    (fun (name, span) ->
      Run.metric r name
        (share ~op_ns ~breakdown_every span (Span.find layers span))
        "%")
    pct_layers;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name others) then
        invalid_arg ("Layers.report: " ^ name))
    values;
  List.iter
    (fun (name, unit_) ->
      let v = Option.value (List.assoc_opt name values) ~default:0. in
      Run.metric r name (if unit_ = "us" then f *. v else v) unit_)
    others;
  r.Run.table <- table layers ~op_ns ~ops ~breakdown_every;
  Span.write ctx.Run.spans
