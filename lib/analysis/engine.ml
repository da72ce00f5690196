module Q = Rational

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type event =
  | Compiled of { txns : int; tasks : int; exact_scenarios : int }
  | Kernel_compiled of { scale : int }
  | Kernel_fallback of { reason : string }
  | Analysis_started of { variant : Params.variant }
  | Delta of { dirty : int; total : int; carried : int }
  | Seeded of { distance : Q.t; iterations : int; saved : int }
  | Sweep of { iteration : int; recomputed : int; carried : int }
  | Finished of { iterations : int; converged : bool; schedulable : bool }

type sink = event -> unit

let variant_name = function
  | Params.Exact -> "exact"
  | Params.Reduced -> "reduced"

let event_to_json = function
  | Compiled { txns; tasks; exact_scenarios } ->
      Printf.sprintf
        {|{"event":"compiled","txns":%d,"tasks":%d,"exact_scenarios":%d}|} txns
        tasks exact_scenarios
  | Kernel_compiled { scale } ->
      Printf.sprintf {|{"event":"kernel_compiled","scale":%d}|} scale
  | Kernel_fallback { reason } ->
      Printf.sprintf {|{"event":"kernel_fallback","reason":"%s"}|} reason
  | Analysis_started { variant } ->
      Printf.sprintf {|{"event":"analysis_started","variant":"%s"}|}
        (variant_name variant)
  | Delta { dirty; total; carried } ->
      Printf.sprintf {|{"event":"delta","dirty":%d,"total":%d,"carried":%d}|}
        dirty total carried
  | Seeded { distance; iterations; saved } ->
      Printf.sprintf
        {|{"event":"seeded","distance":"%s","iterations":%d,"saved":%d}|}
        (Q.to_string distance) iterations saved
  | Sweep { iteration; recomputed; carried } ->
      Printf.sprintf
        {|{"event":"sweep","iteration":%d,"recomputed":%d,"carried":%d}|}
        iteration recomputed carried
  | Finished { iterations; converged; schedulable } ->
      Printf.sprintf
        {|{"event":"finished","iterations":%d,"converged":%b,"schedulable":%b}|}
        iterations converged schedulable

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

module Exact = Fixpoint.Exact
module Scaled = Fixpoint.Scaled

(* How a model's transactions line up with those of the model before
   it: by position when both share one transaction array (design probes
   rebind [{m with bounds}]), by name otherwise — admission changes the
   transaction count, so positions do not transfer.  A transaction is
   clean when everything its own response equations read is unchanged:
   period, deadline, release jitter, blocking, the task chain (demands,
   placement, priorities) and the linear bounds of every platform its
   tasks run on.  Interference *from other* transactions is not part of
   this check — changes there are other transactions' dirtiness,
   propagated by the closure under the rows each site reads. *)
type align = {
  from : Model.t;  (* the earlier model *)
  old_of : int array;
      (* per transaction: the index of its clean counterpart in [from],
         or -1 when it is new or changed *)
  gone : int list;  (* [from]'s transactions no name matches *)
}

let task_eq (o : Model.task) (n : Model.task) =
  o == n
  || String.equal o.Model.name n.Model.name
     && Q.equal o.Model.c n.Model.c
     && Q.equal o.Model.cb n.Model.cb
     && o.Model.res = n.Model.res
     && o.Model.prio = n.Model.prio

let rows_eq eq x y =
  x == y
  || Array.length x = Array.length y
     &&
     let rec go i = i < 0 || (eq x.(i) y.(i) && go (i - 1)) in
     go (Array.length x - 1)

let txn_clean ~prev_model ~model ~prev_a ~a =
  let om = prev_model and nm = model in
  let ot = om.Model.txns.(prev_a) and nt = nm.Model.txns.(a) in
  (ot == nt
  || Q.equal ot.Model.period nt.Model.period
     && Q.equal ot.Model.deadline nt.Model.deadline
     && rows_eq task_eq ot.Model.tasks nt.Model.tasks)
  && Q.equal om.Model.release_jitter.(prev_a) nm.Model.release_jitter.(a)
  && rows_eq Q.equal om.Model.blocking.(prev_a) nm.Model.blocking.(a)
  && Array.for_all
       (fun (tk : Model.task) ->
         let r = tk.Model.res in
         r < Array.length om.Model.bounds
         &&
         let ob = om.Model.bounds.(r) and nb = nm.Model.bounds.(r) in
         ob == nb || Platform.Linear_bound.equal ob nb)
       nt.Model.tasks

module Names = Hashtbl.Make (String)

let align ~prev (m : Model.t) =
  let clean ~prev_a ~a =
    if txn_clean ~prev_model:prev ~model:m ~prev_a ~a then prev_a else -1
  in
  if prev.Model.txns == m.Model.txns then
    {
      from = prev;
      old_of = Array.init (Model.n_txns m) (fun a -> clean ~prev_a:a ~a);
      gone = [];
    }
  else begin
    (* A name aligns with its first index in [prev], as [Model.find_txn]
       would find it; [first] maps each of [prev]'s transactions to the
       first index of its name. *)
    let n_old = Model.n_txns prev in
    let index = Names.create (2 * n_old) in
    let first =
      Array.mapi
        (fun oa (tx : Model.txn) ->
          match Names.find_opt index tx.Model.tname with
          | Some f -> f
          | None ->
              Names.add index tx.Model.tname oa;
              oa)
        prev.Model.txns
    in
    let hit = Array.make n_old false in
    let old_of =
      Array.mapi
        (fun a (tx : Model.txn) ->
          match Names.find_opt index tx.Model.tname with
          | Some oa ->
              hit.(oa) <- true;
              clean ~prev_a:oa ~a
          | None -> -1)
        m.Model.txns
    in
    let gone = ref [] in
    for oa = n_old - 1 downto 0 do
      if not hit.(first.(oa)) then gone := oa :: !gone
    done;
    { from = prev; old_of; gone = !gone }
  end

type t = {
  ir : Ir.t;
  model : Model.t;
  params : Params.t;
  counters : Rta.counters;
  sink : sink option;
  scaled : Scaled.tables option;
      (* the integer timeline, when [params.int_kernel] and the model
         admits one — the value-dependent half of compilation, rebuilt
         whenever the model or the horizon factor changes *)
  exact : Exact.tables Lazy.t;
      (* the same constants as rationals, built only when the exact
         instance runs (fallbacks, [int_kernel = false]) *)
  align : align option;
      (* how [model] lines up with the model this session was rebound
         from; [None] for a created session *)
  kernel_poisoned : bool ref;
      (* set after a mid-analysis overflow: this model will overflow
         again, so later analyze calls skip straight to the exact
         instance instead of paying a doomed kernel attempt *)
}

let emit t e = match t.sink with None -> () | Some f -> f e

(* The C/α quotients are shared between the two tables.  [carry] keeps
   rows of an earlier scaled timebase built under the same params. *)
let tables_for ?carry model ir params =
  let horizon_factor = params.Params.horizon_factor in
  let quotients = Timebase.quotients model in
  let scaled =
    if params.Params.int_kernel then
      Option.map (Scaled.tables ir)
        (Timebase.of_model ~quotients ?carry model ~horizon_factor)
    else None
  in
  ( scaled,
    lazy (Exact.tables ir (Timebase.exact ~quotients model ~horizon_factor)) )

let emit_kernel_verdict t =
  if t.params.Params.int_kernel then
    match t.scaled with
    | Some s ->
        emit t (Kernel_compiled { scale = Timebase.scale (Scaled.timebase s) })
    | None -> emit t (Kernel_fallback { reason = "unrepresentable" })

let create ?(params = Params.default) ?counters ?sink m =
  let counters = match counters with Some c -> c | None -> Rta.counters () in
  let ir = Ir.compile m in
  let scaled, exact = tables_for m ir params in
  let t =
    {
      ir;
      model = m;
      params;
      counters;
      sink;
      scaled;
      exact;
      align = None;
      kernel_poisoned = ref false;
    }
  in
  (* Counting the exact scenarios builds every site, which a session
     otherwise builds on first use: only a listener pays for it. *)
  if Option.is_some sink then
    emit t
      (Compiled
         {
           txns = Ir.n_txns ir;
           tasks = Ir.n_tasks ir;
           exact_scenarios = Ir.exact_scenarios ir;
         });
  emit_kernel_verdict t;
  t

let create_system ?params ?counters ?sink sys =
  create ?params ?counters ?sink (Model.of_system sys)

let model t = t.model

let ir t = t.ir

let params t = t.params

let counters t = t.counters

let memo_stats _ = None

let with_overrides ?params ?keep_history ?counters ?sink t =
  let params = Option.value params ~default:t.params in
  let params =
    match keep_history with
    | None -> params
    | Some keep_history -> { params with Params.keep_history }
  in
  let counters = Option.value counters ~default:t.counters in
  let sink = match sink with Some _ as s -> s | None -> t.sink in
  (* The tables depend on the model and on the horizon only; keep them
     — and the poison verdict, which is a property of the same pair —
     unless the kernel switch or the horizon factor changed. *)
  let scaled, exact, kernel_poisoned =
    if
      params.Params.int_kernel = t.params.Params.int_kernel
      && params.Params.horizon_factor = t.params.Params.horizon_factor
    then (t.scaled, t.exact, t.kernel_poisoned)
    else
      let scaled, exact = tables_for t.model t.ir params in
      (scaled, exact, ref false)
  in
  { t with params; counters; sink; scaled; exact; kernel_poisoned }

let with_model t m =
  let ir = if Ir.compatible t.ir m then t.ir else Ir.compile m in
  (* A rebound model resets the overflow verdict.  The scaled tables
     keep the rows of the transactions the alignment found clean — their
     constants are the old ones, moved exactly onto the new lattice when
     it changed — and convert only new or changed rows.  The alignment
     is kept for the delta planner, whose baseline is usually the model
     rebound from. *)
  let al = align ~prev:t.model m in
  let carry =
    Option.map (fun s -> (Scaled.timebase s, al.old_of)) t.scaled
  in
  let scaled, exact = tables_for ?carry m ir t.params in
  {
    t with
    ir;
    model = m;
    scaled;
    exact;
    align = Some al;
    kernel_poisoned = ref false;
  }

let kernel_scale t =
  if !(t.kernel_poisoned) then None
  else Option.map (fun s -> Timebase.scale (Scaled.timebase s)) t.scaled

let timebase t = Option.map Scaled.timebase t.scaled

(* ------------------------------------------------------------------ *)
(* The holistic outer fixed point (Section 3.2)                        *)
(* ------------------------------------------------------------------ *)

(* One run of an instance's outer fixed point, framed by its events. *)
let run t analyze =
  emit t (Analysis_started { variant = t.params.Params.variant });
  let report =
    analyze ~params:t.params ~counters:t.counters
      ~sweep:(fun ~iteration ~recomputed ~carried ->
        emit t (Sweep { iteration; recomputed; carried }))
  in
  emit t
    (Finished
       {
         iterations = report.Report.outer_iterations;
         converged = report.Report.converged;
         schedulable = report.Report.schedulable;
       });
  report

let run_exact t warm =
  let tables = Lazy.force t.exact in
  run t
    (Exact.analyze tables ~warm:(Option.map (Exact.lift tables) warm))

(* The integer timeline when the session has one, else exact rationals.
   A warm start whose values are off the lattice runs exact for this
   call only; an overflow mid-run reruns exact and poisons the kernel
   for the session — it would overflow on every call.  Both instances
   compute the same report bit for bit. *)
let dispatch t warm =
  match t.scaled with
  | Some tables when not !(t.kernel_poisoned) -> (
      match Option.map (Scaled.lift tables) warm with
      | exception Q.Overflow -> run_exact t warm
      | lifted -> (
          Rta.record_kernel_run t.counters;
          try run t (Scaled.analyze tables ~warm:lifted)
          with Q.Overflow ->
            Rta.record_kernel_fallback t.counters;
            t.kernel_poisoned := true;
            emit t (Kernel_fallback { reason = "overflow" });
            run_exact t warm))
  | _ -> run_exact t warm

let analyze t = dispatch t None

(* ------------------------------------------------------------------ *)
(* Delta re-analysis: warm fixed points across model changes           *)
(* ------------------------------------------------------------------ *)

type delta_outcome =
  | Delta_warm of { dirty : int; total : int; carried : int }
  | Delta_cold of { reason : string }

(* The bottom of a row: the release jitter on the first task, 0 on the
   others — where a cold run starts it. *)
let bottom (m : Model.t) a =
  let row = Array.make (Model.n_tasks m a) Q.zero in
  row.(0) <- m.Model.release_jitter.(a);
  row

module Delta = struct
  type plan = { warm : Timeline.warm; dirty_tasks : int; total_tasks : int }

  (* A warm start over a closed dirty set: a clean row carries [base]'s
     report row [old_of a] whole, a dirty row starts from [start a] with
     its responses at bottom. *)
  let assemble t ~dirty ~(base : Report.t) ~old_of ~start ~floor =
    let m = t.model in
    let n = Model.n_txns m in
    let rows =
      Array.init n (fun a ->
          if dirty.(a) then [||] else base.Report.results.(old_of a))
    in
    let carried f a = Array.map f rows.(a) in
    let jit =
      Array.init n (fun a ->
          if dirty.(a) then start a else carried (fun r -> r.Report.jitter) a)
    in
    let resp =
      Array.init n (fun a ->
          if dirty.(a) then Array.make (Model.n_tasks m a) Report.Divergent
          else carried (fun r -> r.Report.response) a)
    in
    let dirty_tasks = ref 0 in
    Array.iteri
      (fun a d -> if d then dirty_tasks := !dirty_tasks + Model.n_tasks m a)
      dirty;
    {
      warm = { Timeline.dirty; jit; resp; rows; floor };
      dirty_tasks = !dirty_tasks;
      total_tasks = Ir.n_tasks t.ir;
    }

  (* The alignment is the session's own when [prev_model] is the model
     the session was rebound from — the serving path, where a tenant's
     baseline is the previous request's model — and is computed by the
     same function otherwise. *)
  let plan t ~prev_model ~prev_report =
    let params = t.params in
    if not prev_report.Report.converged then Error "previous-not-converged"
    else if params.Params.best_case <> Params.Simple then
      Error "refined-best-case"
    else if params.Params.keep_history then Error "history-requested"
    else begin
      let m = t.model in
      let al =
        match t.align with
        | Some al when al.from == prev_model -> al
        | _ -> align ~prev:prev_model m
      in
      let seed = Array.map (fun oa -> oa < 0) al.old_of in
      (* dirty = total already: every row restarts from bottom and the
         remaining diff bookkeeping has nothing left to mark, so skip
         straight to the cold path — this is where the planning overhead
         used to exceed the work it saved on small stores (bench X13) *)
      if Array.for_all Fun.id seed then Error "all-dirty"
      else begin
        (* A removed transaction's interference is gone from equations
           the new model's reads rule cannot see any more.  By that rule
           (Eq. 17) a survivor's site on platform r at priority p read
           the removed row iff the removed transaction had a task on r
           at priority >= p, so seed exactly those survivors: the
           closure's test, started from each platform's highest
           removed-task priority.  Clean survivors keep their resource
           indices (the task chains compared equal), so the test in the
           old model's indexing is exact.  With no removal — the
           admission-heavy common case — the scan is skipped. *)
        if al.gone <> [] then begin
          let top = Array.make (Array.length prev_model.Model.bounds) min_int in
          List.iter
            (fun oa ->
              Array.iter
                (fun (otk : Model.task) ->
                  let r = otk.Model.res in
                  if otk.Model.prio > top.(r) then top.(r) <- otk.Model.prio)
                prev_model.Model.txns.(oa).Model.tasks)
            al.gone;
          Array.iteri
            (fun a (tx : Model.txn) ->
              if
                Array.exists
                  (fun (tk : Model.task) ->
                    tk.Model.res < Array.length top
                    && top.(tk.Model.res) >= tk.Model.prio)
                  tx.Model.tasks
              then seed.(a) <- true)
            m.Model.txns
        end;
        let dirty = Ir.dirty_closure t.ir ~seed in
        if Array.for_all Fun.id dirty then Error "all-dirty"
        else
          Ok
            (assemble t ~dirty ~base:prev_report
               ~old_of:(fun a -> al.old_of.(a))
               ~start:(bottom m) ~floor:false)
      end
    end

  let warm p = p.warm

  let dirty_tasks p = p.dirty_tasks

  let total_tasks p = p.total_tasks
end

(* A planned warm run, announced by its carry. *)
let run_plan t (p : Delta.plan) =
  let dirty = p.Delta.dirty_tasks and total = p.Delta.total_tasks in
  let carried = total - dirty in
  Rta.record_delta_run t.counters;
  emit t (Delta { dirty; total; carried });
  (dispatch t (Some p.Delta.warm), Delta_warm { dirty; total; carried })

let analyze_delta t ~prev_model ~prev_report =
  match Delta.plan t ~prev_model ~prev_report with
  | Error reason -> (analyze t, Delta_cold { reason })
  | Ok p ->
      let report, outcome = run_plan t p in
      (* A warm run that converged reached the system's least fixed
         point (the seed is below it coordinatewise and the clean block
         is pinned at it — docs/INCREMENTAL.md), and under early exit a
         converged run is schedulable by construction, so the report is
         the cold report bit for bit.  Anything else — early exit on
         the dirty frontier, iteration cap — is rerun cold so the
         non-converged report matches the cold iterates exactly. *)
      if report.Report.converged then (report, outcome)
      else begin
        Rta.record_delta_fallback t.counters;
        (analyze t, Delta_cold { reason = "warm-not-converged" })
      end

(* ------------------------------------------------------------------ *)
(* Probe analysis: warm fixed points across parameter points           *)
(* ------------------------------------------------------------------ *)

module Seeded = struct
  (* Seeding across parameter points keeps the structure fixed — same
     transactions in the same order, same chains on the same platforms
     — and only the knobs the design-space searches turn may differ:
     the linear supply bounds and the task demands.  Alignment is
     positional (probe models are [{m with bounds}] rebinds or demand
     rescalings of one base model), with physical-equality fast paths
     for the arrays such rebinds share: polymorphic [=] walks even a
     physically equal array, and the ladder's scans test dominance
     against every frontier entry. *)
  let task_structure_eq (o : Model.task) (n : Model.task) =
    o == n
    || String.equal o.Model.name n.Model.name
       && o.Model.res = n.Model.res && o.Model.prio = n.Model.prio

  let txn_structure_eq (ot : Model.txn) (nt : Model.txn) =
    ot == nt
    || String.equal ot.Model.tname nt.Model.tname
       && Q.equal ot.Model.period nt.Model.period
       && Q.equal ot.Model.deadline nt.Model.deadline
       && Array.length ot.Model.tasks = Array.length nt.Model.tasks
       && Array.for_all2 task_structure_eq ot.Model.tasks nt.Model.tasks

  let same_structure (sm : Model.t) (tm : Model.t) =
    sm == tm
    || Array.length sm.Model.txns = Array.length tm.Model.txns
       && Array.length sm.Model.bounds = Array.length tm.Model.bounds
       && (sm.Model.release_jitter == tm.Model.release_jitter
          || sm.Model.release_jitter = tm.Model.release_jitter)
       && (sm.Model.blocking == tm.Model.blocking
          || sm.Model.blocking = tm.Model.blocking)
       && (sm.Model.txns == tm.Model.txns
          || Array.for_all2 txn_structure_eq sm.Model.txns tm.Model.txns)

  (* The seed platform must be easier coordinatewise: more rate, less
     delay.  Burstiness must be *equal* — a larger β shrinks the
     best-case responses, which *grows* the jitters J = R − Rbest, so
     the verdict is not monotone in β and a β-easier point is not a
     sound seed (the frontier machinery in {!Regions} fixes β for the
     same reason). *)
  let bound_dominates (s : Platform.Linear_bound.t) (t : Platform.Linear_bound.t)
      =
    s == t
    || Q.(s.Platform.Linear_bound.alpha >= t.Platform.Linear_bound.alpha)
       && Q.(s.Platform.Linear_bound.delta <= t.Platform.Linear_bound.delta)
       && Q.equal s.Platform.Linear_bound.beta t.Platform.Linear_bound.beta

  (* Demands: the jitter map J = R − Rbest grows with C (through R, at
     platform rate 1/α per unit) and *shrinks* with Cb (through Rbest,
     at the same rate at most).  A seed task is therefore easier only
     when both shrink together and the worst case shrinks at least as
     much as the best case: Cb_s ≤ Cb and C − C_s ≥ Cb − Cb_s (demand
     *scalings* f·(C, Cb) with f ≤ 1 satisfy this automatically since
     Cb ≤ C). *)
  let task_dominates (o : Model.task) (n : Model.task) =
    o == n
    || Q.(o.Model.cb <= n.Model.cb)
       && Q.(n.Model.c - o.Model.c >= n.Model.cb - o.Model.cb)

  let txn_dominates (ot : Model.txn) (nt : Model.txn) =
    ot == nt || Array.for_all2 task_dominates ot.Model.tasks nt.Model.tasks

  let dominates ~seed target =
    same_structure seed target
    && Array.for_all2 bound_dominates seed.Model.bounds target.Model.bounds
    && (seed.Model.txns == target.Model.txns
       || Array.for_all2 txn_dominates seed.Model.txns target.Model.txns)

  (* L1 gap between the two parameter points, used to pick the nearest
     dominating seed (fewest warm iterations to close) and reported in
     the [Seeded] event.  [gap] assumes [dominates ~seed target] (every
     summand is then non-negative): callers test dominance first. *)
  let gap ~seed target =
    begin
      let d = ref Q.zero in
      Array.iteri
        (fun r (sb : Platform.Linear_bound.t) ->
          let tb = target.Model.bounds.(r) in
          if sb != tb then
            d :=
              Q.(
                !d
                + (sb.Platform.Linear_bound.alpha
                  - tb.Platform.Linear_bound.alpha)
                + (tb.Platform.Linear_bound.delta
                  - sb.Platform.Linear_bound.delta)))
        seed.Model.bounds;
      if seed.Model.txns != target.Model.txns then
        Array.iteri
          (fun a (st : Model.txn) ->
            let tt = target.Model.txns.(a) in
            if st != tt then
              Array.iteri
                (fun b (stk : Model.task) ->
                  let ttk = tt.Model.tasks.(b) in
                  if stk != ttk then
                    d :=
                      Q.(
                        !d + (ttk.Model.c - stk.Model.c)
                        + (ttk.Model.cb - stk.Model.cb)))
                st.Model.tasks)
          seed.Model.txns;
      !d
    end

  (* A converged row is stable when its jitters are the ones a cold run
     starts it from. *)
  let stable (m : Model.t) (r : Report.t) a =
    let row = r.Report.results.(a) in
    Q.equal row.(0).Report.jitter m.Model.release_jitter.(a)
    &&
    let rec zero b =
      b >= Array.length row
      || (Q.equal row.(b).Report.jitter Q.zero && zero (b + 1))
    in
    zero 1

  (* The one planner of probe runs, against a converged [base] of the
     same structure: the reference (start the dirty rows from bottom) or
     a dominating seed (start them from its jitters, rounded down onto
     the lattice, which keeps the start below the least fixed point;
     pinned rows hold bottom values, already on it).  Positional: a row is dirty when its own constants
     changed or its converged jitters are not bottom, and the set is
     closed under the reads rule.  A pinned row is then clean, stable
     and reads only pinned rows, so a cold run computes its base
     responses from the first sweep on and never moves its jitters: the
     unseeded warm run *is* the cold run, sweep for sweep
     (docs/THEORY.md), and a seeded one is the run that iterates every
     row from the seed. *)
  let plan t ~base_model ~base_report ~seeded =
    let params = t.params in
    let what = if seeded then "seed" else "reference" in
    if not base_report.Report.converged then Error (what ^ "-not-converged")
    else if params.Params.best_case <> Params.Simple then
      Error "refined-best-case"
    else if params.Params.keep_history then Error "history-requested"
    else if not (same_structure base_model t.model) then
      Error (what ^ "-structure-mismatch")
    else if seeded && not (dominates ~seed:base_model t.model) then
      Error "seed-not-dominating"
    else begin
      let m = t.model in
      let seed =
        Array.init (Model.n_txns m) (fun a ->
            not
              (txn_clean ~prev_model:base_model ~model:m ~prev_a:a ~a
              && stable m base_report a))
      in
      let dirty = Ir.dirty_closure t.ir ~seed in
      if (not seeded) && Array.for_all Fun.id dirty then Error "all-dirty"
      else
        let start =
          if seeded then fun a ->
            Array.map (fun r -> r.Report.jitter) base_report.Report.results.(a)
          else bottom m
        in
        Ok
          (Delta.assemble t ~dirty ~base:base_report ~old_of:Fun.id ~start
             ~floor:seeded)
    end
end

(* Pinned rows sit at their fixed point from the first sweep, and the
   dirty rows start where a cold run starts them: the report is the cold
   report bit for bit — converged or not, iteration count included — so
   nothing is ever rerun. *)
let analyze_pinned t ~reference_model ~reference_report =
  match
    Seeded.plan t ~base_model:reference_model ~base_report:reference_report
      ~seeded:false
  with
  | Error reason -> (analyze t, Delta_cold { reason })
  | Ok p -> run_plan t p

let analyze_seeded ?(verdict_only = false) t ~seed_model ~seed_report =
  match
    Seeded.plan t ~base_model:seed_model ~base_report:seed_report ~seeded:true
  with
  | Error reason -> (analyze t, Delta_cold { reason })
  | Ok p ->
      let report, outcome = run_plan t p in
      let iterations = report.Report.outer_iterations in
      emit t
        (Seeded
           {
             distance = Seeded.gap ~seed:seed_model t.model;
             iterations;
             saved = max 0 (seed_report.Report.outer_iterations - iterations);
           });
      (* The seed jitters sit between bottom and the least fixed point,
         so the warm iterates are squeezed between the cold iterates
         and the fixed point (docs/THEORY.md): a converged warm run
         *is* the cold report bit for bit, and even a non-converged
         warm iterate decides the verdict exactly as cold would —
         early exit fires only on responses the fixed point also
         exceeds, and a capped warm run caps cold too.  Under
         [verdict_only] callers accept the warm numbers as-is (they
         only read [schedulable]); otherwise a non-converged run is
         rerun cold so the reported iterates match cold exactly. *)
      if report.Report.converged || verdict_only then (report, outcome)
      else begin
        Rta.record_delta_fallback t.counters;
        (analyze t, Delta_cold { reason = "warm-not-converged" })
      end

(* ------------------------------------------------------------------ *)
(* Classical baselines over a session                                  *)
(* ------------------------------------------------------------------ *)

(* The classical and EDF analyses model independent tasks on one
   platform: the degenerate systems where every transaction is a single
   task.  Multi-task transactions have precedence structure the
   baselines cannot express, so they are excluded from the view. *)
let single_tasks t ~resource =
  let out = ref [] in
  Array.iteri
    (fun a (tx : Model.txn) ->
      if Array.length tx.Model.tasks = 1 && tx.Model.tasks.(0).Model.res = resource
      then out := (a, tx, tx.Model.tasks.(0)) :: !out)
    t.model.Model.txns;
  List.rev !out

let classical_tasks t ~resource =
  List.map
    (fun (a, (tx : Model.txn), (tk : Model.task)) ->
      {
        Classical.name = tk.Model.name;
        c = tk.Model.c;
        period = tx.Model.period;
        deadline = tx.Model.deadline;
        jitter = t.model.Model.release_jitter.(a);
        prio = tk.Model.prio;
      })
    (single_tasks t ~resource)

let classical t ~resource =
  Classical.response_times
    ~bound:t.model.Model.bounds.(resource)
    ~horizon_factor:t.params.Params.horizon_factor
    (classical_tasks t ~resource)

let classical_schedulable t ~resource =
  Classical.schedulable
    ~bound:t.model.Model.bounds.(resource)
    ~horizon_factor:t.params.Params.horizon_factor
    (classical_tasks t ~resource)

let edf_tasks t ~resource =
  List.map
    (fun (_, (tx : Model.txn), (tk : Model.task)) ->
      {
        Edf.name = tk.Model.name;
        c = tk.Model.c;
        period = tx.Model.period;
        deadline = tx.Model.deadline;
      })
    (single_tasks t ~resource)

let edf_schedulable t ~resource =
  Edf.schedulable ~bound:t.model.Model.bounds.(resource) (edf_tasks t ~resource)
