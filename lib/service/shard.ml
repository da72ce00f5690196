module P = Protocol

type session_kind = Cold | Rebound | Warm

type t = {
  params : Analysis.Params.t;
  mutable session : Analysis.Engine.t option;
      (* the shard's one engine session, created on first use and only
         touched by the driving domain.  It is shared across the
         shard's tenants: rebinding between tenants' models is exactly
         the [with_model] path, and the report is bit-identical
         regardless of what the session analyzed before. *)
  boot : Store.t;  (* the snapshot a fresh tenant starts from *)
  tenants : (string, Tenant.t) Hashtbl.t;
      (* this shard's partition; written only by the driving domain *)
  metrics : Metrics.t;
  emit : (Events.event -> unit) option;
      (* fleet-serialized trace sink; safe from any domain *)
  max_batch : int;
  now : unit -> float;
  wal : Wal.t option;
}

(* A snapshot of the shard for the fleet's [stats] renderer.  Only read
   while the shard is quiescent (the fleet's previous pool region has
   finished), so plain field reads are ordered by the pool's mutex. *)
type view = {
  v_metrics : Metrics.t;
  v_entries : int;  (* result-cache entries summed over tenants *)
  v_kernel_sessions : int;
  v_fallback_count : int;
  v_tenants : (string * Store.t) list;  (* sorted by tenant id *)
}

let create ~params ~max_batch ~emit ~now ?wal ~boot ~tenants () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (tid, store) -> Hashtbl.replace tbl tid (Tenant.create ~id:tid store))
    tenants;
  {
    params;
    session = None;
    boot;
    tenants = tbl;
    metrics = Metrics.create ();
    emit;
    max_batch;
    now;
    wal;
  }

let metrics t = t.metrics

(* Find or create (from the boot snapshot) the tenant. *)
let tenant t tid =
  match Hashtbl.find_opt t.tenants tid with
  | Some ten -> ten
  | None ->
      let ten = Tenant.create ~id:tid t.boot in
      Hashtbl.replace t.tenants tid ten;
      ten

let tenant_find t tid = Hashtbl.find_opt t.tenants tid

let tenant_stores t =
  Hashtbl.fold (fun tid ten acc -> (tid, ten.Tenant.store) :: acc) t.tenants []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let view t =
  let kernel_sessions, fallback_count =
    match t.session with
    | None -> (0, 0)
    | Some e ->
        ( (if Analysis.Engine.kernel_scale e <> None then 1 else 0),
          Analysis.Rta.kernel_fallbacks (Analysis.Engine.counters e) )
  in
  {
    v_metrics = t.metrics;
    v_entries =
      Hashtbl.fold
        (fun _ ten acc -> acc + Tenant.cache_entries ten)
        t.tenants 0;
    v_kernel_sessions = kernel_sessions;
    v_fallback_count = fallback_count;
    v_tenants = tenant_stores t;
  }

let emit t e = match t.emit with None -> () | Some f -> f e

let engine_sink t =
  match t.emit with
  | None -> None
  | Some _ -> Some (fun e -> emit t (Events.Engine_event e))

(* Bind the shard's session to [model]: created cold on first use, else
   rebound via [with_model], which keeps the IR — physically — exactly
   when the placement and priorities are unchanged ([Ir.compatible]). *)
let rebind t model =
  let session, kind =
    match t.session with
    | None ->
        ( Analysis.Engine.create ~params:t.params ?sink:(engine_sink t) model,
          Cold )
    | Some s ->
        let s' = Analysis.Engine.with_model s model in
        ( s',
          if Analysis.Engine.ir s' == Analysis.Engine.ir s then Warm
          else Rebound )
  in
  t.session <- Some session;
  (session, kind)

let session_label = function
  | Cold -> "cold"
  | Rebound -> "rebound"
  | Warm -> "warm-ir"

let record_kind t = function
  | Cold ->
      t.metrics.Metrics.sessions_created <-
        t.metrics.Metrics.sessions_created + 1
  | Rebound ->
      t.metrics.Metrics.sessions_rebound <-
        t.metrics.Metrics.sessions_rebound + 1
  | Warm ->
      t.metrics.Metrics.sessions_rebound <-
        t.metrics.Metrics.sessions_rebound + 1;
      t.metrics.Metrics.ir_warm <- t.metrics.Metrics.ir_warm + 1

let record_cache t hit =
  if hit then t.metrics.Metrics.cache_hits <- t.metrics.Metrics.cache_hits + 1
  else t.metrics.Metrics.cache_misses <- t.metrics.Metrics.cache_misses + 1

let record_ladder t (s : Regions.Probe_ladder.stats) =
  t.metrics.Metrics.probe_probes <-
    t.metrics.Metrics.probe_probes + s.Regions.Probe_ladder.probes;
  t.metrics.Metrics.probe_seeded <-
    t.metrics.Metrics.probe_seeded + s.Regions.Probe_ladder.seeded;
  t.metrics.Metrics.probe_cold <-
    t.metrics.Metrics.probe_cold + s.Regions.Probe_ladder.cold;
  t.metrics.Metrics.probe_certified <-
    t.metrics.Metrics.probe_certified
    + s.Regions.Probe_ladder.cert_feasible
    + s.Regions.Probe_ladder.cert_infeasible

let record_delta t = function
  | Analysis.Engine.Delta_warm { dirty; total = _; carried } ->
      t.metrics.Metrics.delta_warm <- t.metrics.Metrics.delta_warm + 1;
      t.metrics.Metrics.delta_dirty_tasks <-
        t.metrics.Metrics.delta_dirty_tasks + dirty;
      t.metrics.Metrics.delta_carried_tasks <-
        t.metrics.Metrics.delta_carried_tasks + carried
  | Analysis.Engine.Delta_cold _ ->
      t.metrics.Metrics.delta_cold <- t.metrics.Metrics.delta_cold + 1

(* Analyze a snapshot on the shard's session for [ten]: the tenant's
   result cache first, then the session ([rebind]).  When the
   tenant has a baseline, the analysis runs through
   [Engine.analyze_delta]: the previous converged responses are carried
   across the snapshot change and only the affected tasks iterate, with
   a transparent cold fallback.  The request's bookkeeping (metrics,
   baseline, cache insert) is done here once nothing can raise any
   more, so an overflowing analysis records nothing.  Cache, baseline
   and therefore every wire-visible field depend only on the tenant's
   own request history, which is what keeps per-tenant responses
   bit-identical across shard counts and batch boundaries.  Returns the
   summary, whether it was cached, and the label of the session that
   ran. *)
let analyze_snapshot t (ten : Tenant.t) (snap : Store.t) =
  match Tenant.cache_find ten snap.Store.hash with
  | Some s ->
      record_cache t true;
      (s, true, None)
  | None ->
      let model = Analysis.Model.of_system snap.Store.sys in
      let session, kind = rebind t model in
      let report, delta =
        match ten.Tenant.baseline with
        | Some (prev_model, prev_report) ->
            let report, outcome =
              Analysis.Engine.analyze_delta session ~prev_model ~prev_report
            in
            (report, Some outcome)
        | None -> (Analysis.Engine.analyze session, None)
      in
      let summary = P.summarize ~store:snap ~model report in
      record_kind t kind;
      record_cache t false;
      Option.iter (record_delta t) delta;
      Tenant.update_baseline ten (Some (model, report));
      Tenant.cache_add ten summary;
      (summary, false, Some (session_label kind))

(* One region computation on the shard's session: the tenant's region
   cache first (keyed by snapshot hash, platform and grid — several
   regions can coexist per snapshot), then a [Design.Param_search]
   region build whose probe analyses all run through that session
   exactly like the bisection searches.  The region's wire summary
   reports membership of the platform's current (α, Δ) point, the cell
   statistics and the Pareto frontier.  Bookkeeping as in
   [analyze_snapshot]. *)
let region_snapshot t (ten : Tenant.t) (snap : Store.t) ~resource ~precision =
  match
    Tenant.region_find ten ~hash:snap.Store.hash ~resource ~precision
  with
  | Some r ->
      record_cache t true;
      Ok (r, true, None)
  | None -> (
      let sys = snap.Store.sys in
      let resources = sys.Transaction.System.resources in
      let idx = ref (-1) in
      Array.iteri
        (fun i (r : Platform.Resource.t) ->
          if r.Platform.Resource.name = resource then idx := i)
        resources;
      match !idx with
      | -1 -> Error [ Printf.sprintf "no platform named %s" resource ]
      | idx ->
          (* Rebind the session to this snapshot's model first —
             [D.region] probes through the engine's current model, and
             the session may have last served another tenant. *)
          let session, kind = rebind t (Analysis.Model.of_system sys) in
          let module D = Design.Param_search in
          let rm = D.region ~engine:session ~precision sys ~resource:idx in
          let b = resources.(idx).Platform.Resource.bound in
          let member =
            D.region_member rm ~alpha:b.Platform.Linear_bound.alpha
              ~delta:b.Platform.Linear_bound.delta
          in
          let st = Regions.Cell.stats rm.D.cells in
          let result =
            {
              P.r_hash = snap.Store.hash;
              r_platform = resource;
              r_precision = precision;
              r_schedulable = member;
              r_cells = st.Regions.Cell.cells;
              r_feasible = st.Regions.Cell.feasible;
              r_infeasible = st.Regions.Cell.infeasible;
              r_boundary = st.Regions.Cell.boundary;
              r_refined = st.Regions.Cell.refined;
              r_probes = st.Regions.Cell.probes;
              r_frontier =
                List.map
                  (fun (p : Regions.Frontier.point) ->
                    (p.Regions.Frontier.f_alpha, p.Regions.Frontier.f_delta))
                  (Regions.Frontier.points rm.D.frontier);
            }
          in
          record_kind t kind;
          record_cache t false;
          record_ladder t (Regions.Probe_ladder.stats rm.D.ladder);
          Tenant.region_add ten result;
          Ok (result, false, Some (session_label kind)))

(* The one [errors] entry of a request whose exact arithmetic overflows
   native ints: it is rejected as invalid, like a malformed one, and
   nothing is committed or cached. *)
let overflow_error = "arithmetic overflow: exact rationals exceed native ints"

(* The WAL record for a commit, written inside the commit itself so a
   crash at any later point replays to this exact store. *)
let wal_append t (ten : Tenant.t) uid ~op (cand : Store.t) =
  match t.wal with
  | None -> ()
  | Some w ->
      let record =
        match op with
        | `Admit ->
            let spec =
              match
                List.find_opt (fun u -> u.Store.uid = uid) cand.Store.units
              with
              | Some u -> u.Store.spec
              | None -> assert false (* the admit just appended it *)
            in
            Wal.Admit
              { tenant = ten.Tenant.id; uid; spec; hash = cand.Store.hash }
        | `Revoke ->
            Wal.Revoke { tenant = ten.Tenant.id; uid; hash = cand.Store.hash }
      in
      Wal.append w record

(* One request, run to completion: its shedding, analysis, commit,
   metrics and trace record are all done before the next request of
   the batch starts, each against the tenant's current store. *)
let serve t ~stats ~overload (env : P.envelope) =
  (* Resolved (and created) even when the request is shed, so [stats]
     lists the same tenants however the requests were batched. *)
  let ten = tenant t (Option.value env.P.tenant ~default:Tenant.default_id) in
  let seq = env.P.seq and tenant = env.P.tenant in
  let op = P.op_name env.P.req in
  Metrics.count_request t.metrics env.P.req;
  let finish ~status ?(cache_hit = false) ?session response =
    let ms = (t.now () -. env.P.arrival) *. 1000. in
    Metrics.record_latency t.metrics ms;
    emit t
      (Events.Request
         { seq; op; status; latency_ms = ms; cache_hit; session; tenant });
    response
  in
  let shed reason =
    if reason = "deadline" then
      t.metrics.Metrics.shed_deadline <- t.metrics.Metrics.shed_deadline + 1
    else
      t.metrics.Metrics.shed_overload <- t.metrics.Metrics.shed_overload + 1;
    finish ~status:"shed" (P.shed ?tenant ~seq ~op ~reason ())
  in
  (* Rejected as invalid: the tenant's store is untouched and nothing is
     cached. *)
  let invalid errors =
    let uid =
      match env.P.req with
      | P.Admit { uid; _ } | P.What_if { uid; _ } | P.Revoke { uid } -> uid
      | P.Region { resource; _ } -> resource
      | P.Query | P.Stats -> "?"
    in
    t.metrics.Metrics.rejected <- t.metrics.Metrics.rejected + 1;
    finish ~status:"rejected"
      (P.rejected ?tenant ~seq ~op ~uid ~reason:"invalid" ~errors
         ~hash:ten.Tenant.store.Store.hash ())
  in
  let guarded f = try f () with Rational.Overflow -> Error [ overflow_error ] in
  (* Build a candidate from the tenant's current store and analyze it;
     a query's candidate is the store itself. *)
  let analyze_candidate build =
    guarded (fun () ->
        Result.map
          (fun cand -> (cand, analyze_snapshot t ten cand))
          (build ten.Tenant.store))
  in
  (* A commit sees the store its tenant's previous commit left, however
     the two were batched. *)
  let commit uid ~op:kind build =
    match analyze_candidate build with
    | Error errors -> invalid errors
    | Ok (cand, (summary, cache_hit, session)) -> (
        let apply status response =
          ten.Tenant.store <- cand;
          wal_append t ten uid ~op:kind cand;
          t.metrics.Metrics.committed <- t.metrics.Metrics.committed + 1;
          finish ~status ~cache_hit ?session response
        in
        match kind with
        | `Admit ->
            if summary.P.s_schedulable then
              apply "admitted"
                (P.admitted ?tenant ~seq ~uid ~txns:(Store.n_transactions cand)
                   ~cached:cache_hit summary)
            else (
              (* Rollback: the candidate is dropped, the tenant's store was
                 never touched. *)
              t.metrics.Metrics.rejected <- t.metrics.Metrics.rejected + 1;
              finish ~status:"rejected" ~cache_hit ?session
                (P.rejected ?tenant ~seq ~op ~uid ~reason:"unschedulable"
                   ~violations:summary.P.s_violations
                   ~candidate_instances:(Store.unit_instances cand uid)
                   ~hash:ten.Tenant.store.Store.hash ()))
        | `Revoke ->
            (* Revocation commits whenever the remaining assembly is valid:
               shrinking the admitted set must not be refusable on analysis
               grounds, but the response still reports the verdict. *)
            apply "revoked"
              (P.revoked ?tenant ~seq ~uid ~txns:(Store.n_transactions cand)
                 ~cached:cache_hit summary))
  in
  let expired =
    match env.P.deadline_ms with
    | None -> false
    | Some d -> (t.now () -. env.P.arrival) *. 1000. >= d
  in
  if overload then shed "overload"
  else if expired then shed "deadline"
  else
    match env.P.req with
    | P.Stats ->
        (* The fleet renders stats: every shard is quiescent while this
           one serves a [stats], so the renderer may read all of them
           and merge. *)
        finish ~status:"ok" (stats ~seq ~tenant)
    | P.Query -> (
        match analyze_candidate Result.ok with
        | Error errors -> invalid errors
        | Ok (_, (summary, cache_hit, session)) ->
            finish ~status:"ok" ~cache_hit ?session
              (P.query_ok ?tenant ~seq ~cached:cache_hit summary))
    | P.What_if { uid; spec } -> (
        match analyze_candidate (Store.admit ~uid ~spec) with
        | Error errors -> invalid errors
        | Ok (cand, (summary, cache_hit, session)) ->
            finish ~status:"ok" ~cache_hit ?session
              (P.what_if_ok ?tenant ~seq ~uid ~cached:cache_hit
                 ~candidate_instances:(Store.unit_instances cand uid)
                 summary))
    | P.Region { resource; precision } -> (
        match
          guarded (fun () ->
              region_snapshot t ten ten.Tenant.store ~resource ~precision)
        with
        | Error errors -> invalid errors
        | Ok (result, cache_hit, session) ->
            finish ~status:"ok" ~cache_hit ?session
              (P.region_ok ?tenant ~seq ~cached:cache_hit result))
    | P.Admit { uid; spec } -> commit uid ~op:`Admit (Store.admit ~uid ~spec)
    | P.Revoke { uid } -> commit uid ~op:`Revoke (Store.revoke ~uid)

let process_batch t ~stats envs =
  let arr = Array.of_list envs in
  let n = Array.length arr in
  (* Counted up front so a [stats] request in this very batch sees it. *)
  t.metrics.Metrics.batches <- t.metrics.Metrics.batches + 1;
  (* Overload policy: beyond [max_batch], shed the newest what_if probes
     first, then queries, then admissions/revocations; stats never.
     Chosen before any request runs. *)
  let overload = Array.make n false in
  let over = ref (n - t.max_batch) in
  let shed_class is_class =
    for i = n - 1 downto 0 do
      if !over > 0 && (not overload.(i)) && is_class arr.(i).P.req then (
        overload.(i) <- true;
        decr over)
    done
  in
  if !over > 0 then (
    shed_class (function P.What_if _ | P.Region _ -> true | _ -> false);
    shed_class (function P.Query -> true | _ -> false);
    shed_class (function P.Admit _ | P.Revoke _ -> true | _ -> false));
  let shed_count () =
    t.metrics.Metrics.shed_deadline + t.metrics.Metrics.shed_overload
  in
  let shed_before = shed_count () in
  (* [Array.mapi] applies [serve] in index order: arrival order. *)
  let responses =
    Array.mapi (fun i env -> serve t ~stats ~overload:overload.(i) env) arr
  in
  emit t (Events.Batch { size = n; shed = shed_count () - shed_before });
  Array.to_list responses
