(* analyze_exact: cold exact analyses of generated systems, in process —
   what [hsched analyze --exact --csv] does for one system, repeated
   over a corpus.  The branch-and-bound site fixed points, the int
   kernels and the memo do nearly all the work. *)

module E = Analysis.Engine
module M = Analysis.Model
module R = Analysis.Report
module Q = Rational

(* 12 transactions of at most 3 tasks over 2 platforms, each platform
   loaded to 40% of its rate.  At the generator's default 50% a few
   systems in a thousand need 50 to 100 outer sweeps and cost 100x the
   median, so a corpus's total cost swings with the seed; at 40% the
   costliest system stays within 10x the median. *)
let gen_spec =
  {
    Workload.Gen.default_spec with
    Workload.Gen.n_txns = 12;
    n_resources = 2;
    max_tasks_per_txn = 3;
    utilization = Q.make 2 5;
  }

(* The corpus is stratified on the size of each system's exact scenario
   space (Ir.exact_scenarios, which the exact analysis's cost follows):
   quotas per ⌊log2 size⌋ following the generator's own mix over
   48,000 systems, scaled to 1024, with the thin ends pooled (≤ 5 and
   11–12).  Every seed then has the same cost profile, and the tail
   percentile moves with the code, not with which handful of systems a
   seed drew.  p99_ms is about the eleventh costliest system: with 2^10
   to 2^12 pooled in one stratum, the number of its systems above 2^11
   swung p99_ms by a third from seed to seed, and with the top stratum
   at its natural 10 systems p99_ms sat on its edge and still moved by
   a tenth.  The top stratum therefore holds twice its share, 20
   systems, and p99_ms falls in its middle.  The rarest 0.05% (sizes
   ≥ 2^13) are left out.  A 20 s run analyses each system four or five
   times. *)
let strata =
  [ (5, 84); (6, 240); (7, 339); (8, 220); (9, 90); (10, 31); (11, 20) ]

let stratum size =
  match Float.to_int (Float.log2 (float_of_int (max 1 size))) with
  | b when b <= 5 -> Some 5
  | b when b <= 10 -> Some b
  | b when b <= 12 -> Some 11
  | _ -> None

(* Drawing stops at the last quota filled, but not before this many
   candidates, about twice the usual need: the draws a seed needs to
   fill the thin strata vary by a third, and set-up time with them. *)
let min_candidates = 2500

let quick_size = 8
let quick_ops = 20

let make_corpus ~seed ~quick =
  let system i = Workload.Gen.system ~seed:((seed * 1_000_003) + i) gen_spec in
  if quick then Array.init quick_size system
  else begin
    let left = Hashtbl.create 8 in
    List.iter (fun (b, k) -> Hashtbl.replace left b k) strata;
    let need = ref (List.fold_left (fun acc (_, k) -> acc + k) 0 strata) in
    let kept = ref [] and i = ref 0 in
    while !need > 0 || !i < min_candidates do
      let sys = system !i in
      incr i;
      let m = M.of_system sys in
      match stratum (Analysis.Ir.exact_scenarios (Analysis.Ir.compile m)) with
      | Some b when Hashtbl.find left b > 0 ->
          Hashtbl.replace left b (Hashtbl.find left b - 1);
          decr need;
          kept := sys :: !kept
      | _ -> ()
    done;
    Array.of_list (List.rev !kept)
  end

(* The CSV [hsched analyze --csv] prints. *)
let csv (m : M.t) (report : R.t) =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "transaction,task,platform,priority,wcet,bcet,offset,jitter,rbest,\
     response,deadline,meets_deadline\n";
  let q = Q.to_string in
  Array.iteri
    (fun a row ->
      let tx = m.M.txns.(a) in
      Array.iteri
        (fun i (res : R.task_result) ->
          let tk = tx.M.tasks.(i) in
          let response, meets =
            match res.R.response with
            | R.Divergent -> ("inf", false)
            | R.Finite r -> (q r, Q.(r <= tx.M.deadline))
          in
          Printf.bprintf b "%s,%s,%d,%d,%s,%s,%s,%s,%s,%s,%s,%b\n" tx.M.tname
            tk.M.name tk.M.res tk.M.prio (q tk.M.c) (q tk.M.cb) (q res.R.offset)
            (q res.R.jitter) (q res.R.rbest) response (q tx.M.deadline) meets)
        row)
    report.R.results;
  Buffer.contents b

(* One op: model, cold exact session (one job), fixed point, CSV. *)
let analyze ?sink ?counters sys =
  let m = Span.with_ "analysis.model" (fun () -> M.of_system sys) in
  let e =
    Span.with_ "analysis.create" (fun () ->
        E.create ~params:Analysis.Params.exact ?counters ?sink m)
  in
  let report = Span.with_ "analysis.fixpoint" (fun () -> E.analyze e) in
  let out = Span.with_ "report.render" (fun () -> csv m report) in
  (m, e, report, out)

let bound_le x y =
  match (x, y) with
  | _, R.Divergent -> true
  | R.Divergent, R.Finite _ -> false
  | R.Finite a, R.Finite b -> Q.(a <= b)

(* Where both variants converge, every exact bound is at most the
   reduced bound of the same task.  A report that stopped early on an
   unschedulable system holds intermediate iterates, not bounds. *)
let check_reduced r i sys (exact : R.t) =
  if exact.R.converged then
    let reduced =
      E.analyze (E.create ~params:Analysis.Params.default (M.of_system sys))
    in
    if reduced.R.converged then
      Array.iteri
        (fun a row ->
          Array.iteri
            (fun b (res : R.task_result) ->
              Run.check r
                (bound_le res.R.response reduced.R.results.(a).(b).R.response)
                (Printf.sprintf "system %d: exact bound above the reduced bound"
                   i))
            row)
        exact.R.results

let run (ctx : Run.ctx) =
  let r = Run.create () in
  Calib.reset ~domains:1;
  (* Set-up: drawing the corpus, timed several times. *)
  let corpus = ref [||] in
  let set_ups =
    List.init (Run.set_ups ctx) (fun _ ->
        ignore (Calib.maybe ());
        let t0 = Span.now () in
        corpus := make_corpus ~seed:ctx.seed ~quick:ctx.quick;
        Span.s_since t0)
  in
  let corpus = !corpus in
  let n = Array.length corpus in
  (* The first analysis of each system is its reference; every later
     analysis of it must reproduce the CSV byte for byte. *)
  let reference = Array.make n None in
  let check_op i (report : R.t) out =
    match reference.(i mod n) with
    | None -> reference.(i mod n) <- Some (report, out)
    | Some (_, first) ->
        Run.check r (String.equal out first)
          (Printf.sprintf "system %d: report differs from its first analysis"
             (i mod n))
  in
  (* The timed phase; half of the run when it is traced. *)
  let phase =
    if ctx.trace then { ctx with seconds = ctx.seconds /. 2. } else ctx
  in
  let per_op = Array.make n [] and untraced_ms = ref 0. in
  let deadline = Run.deadline phase in
  let ops = ref 0 in
  while not (Run.expired phase deadline ~ops:!ops ~budget:quick_ops) do
    let k = !ops mod n in
    let t = Span.now () in
    let _, _, report, out = analyze corpus.(k) in
    let ms = Span.ms_since t in
    per_op.(k) <- ms :: per_op.(k);
    untraced_ms := !untraced_ms +. ms;
    check_op !ops report out;
    incr ops;
    ignore (Calib.maybe ())
  done;
  let ops = !ops in
  r.Run.attempted <- ops;
  Run.info r "ops" (string_of_int ops);
  Run.info r "passes" (Printf.sprintf "%.2f" (Run.ratio ops n));
  Array.iteri
    (fun i ->
      Option.iter (fun (report, _) -> check_reduced r i corpus.(i) report))
    reference;
  if not ctx.trace then
    Run.repeated_end_to_end r ~per_op
      ~set_up_s:(Summary.median set_ups)
      ~rss_mb:(Run.peak_rss_mb None)
  else begin
    (* The traced run: the same ops again, spans and engine sink on. *)
    Span.reset ();
    Span.Engine_probe.reset ();
    Span.enabled := true;
    let counters = Analysis.Rta.counters () in
    let memo = Layers.memo () in
    let op_ns = ref 0. in
    for i = 0 to ops - 1 do
      let t = Span.now () in
      let m, e, report, out =
        Span.op "op.analyze" ~req:i (fun () ->
            analyze ~sink:Span.Engine_probe.sink ~counters corpus.(i mod n))
      in
      op_ns := !op_ns +. Span.ns_since t;
      check_op i report out;
      Layers.add_memo memo e;
      ignore (Calib.maybe ());
      Span.with_ "breakdown" (fun () ->
          Layers.compile_steps m
            ~horizon_factor:(E.params e).Analysis.Params.horizon_factor)
    done;
    Span.enabled := false;
    let overhead = 100. *. ((!op_ns /. (1e6 *. !untraced_ms)) -. 1.) in
    Layers.report r ctx ~op_ns:!op_ns ~ops
      (Layers.engine_values ~ops ~counters
      @ Layers.memo_values memo
      @ [ ("trace.overhead_pct", overhead) ])
  end;
  r
