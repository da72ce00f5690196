module P = Protocol

type session_kind = Cold | Rebound | Warm

(* Outcome of evaluating one read-only request. *)
type eval =
  | Not_run
  | Invalid of string list
  | Evaluated of {
      candidate : Store.t option;  (* what_if candidate snapshot *)
      summary : P.summary;
      cache_hit : bool;
      kind : session_kind option;  (* None on a cache hit *)
      delta : Analysis.Engine.delta_outcome option;
          (* how the delta layer served the analysis (None: cache hit
             or no baseline yet) *)
      fresh : (Analysis.Model.t * Analysis.Report.t) option;
          (* the analysis actually run, for the baseline update the
             finalizer performs on the shard's driving domain *)
    }
  | Region_evaluated of {
      result : P.region_summary;
      cache_hit : bool;
      kind : session_kind option;  (* None on a cache hit *)
      ladder : Regions.Probe_ladder.stats option;
          (* the build's probe-ladder counters, for the metrics the
             finalizer records on the driving domain (None: cache hit) *)
    }

type t = {
  id : int;
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
  mutable stats_view : (seq:int -> tenant:string option -> Json.t) option;
      (* the fleet's stats renderer, installed after every shard
         exists; a [stats] barrier calls back into it *)
}

(* A snapshot of the shard for the fleet's stats barrier.  Only read
   while the shard is quiescent (the fleet's previous pool region has
   finished), so plain field reads are ordered by the pool's mutex. *)
type view = {
  v_metrics : Metrics.t;
  v_entries : int;  (* result-cache entries summed over tenants *)
  v_kernel_sessions : int;
  v_fallback_count : int;
  v_tenants : (string * Store.t) list;  (* sorted by tenant id *)
}

let create ~id ~params ~max_batch ~emit ~now ?wal ~boot ~tenants () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (tid, store) -> Hashtbl.replace tbl tid (Tenant.create ~id:tid store))
    tenants;
  {
    id;
    params;
    session = None;
    boot;
    tenants = tbl;
    metrics = Metrics.create ();
    emit;
    max_batch;
    now;
    wal;
    stats_view = None;
  }

let set_stats_view t f = t.stats_view <- Some f
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

(* Analyze a snapshot on the shard's session for [ten]: the tenant's
   result cache first, then the session ([rebind]).  When the
   tenant has a baseline, the analysis runs through
   [Engine.analyze_delta]: the previous converged responses are carried
   across the snapshot change and only the affected tasks iterate, with
   a transparent cold fallback.  Cache, baseline and therefore every
   wire-visible field depend only on the tenant's own request history,
   which is what keeps per-tenant responses bit-identical across shard
   counts. *)
let analyze_snapshot t (ten : Tenant.t) (snap : Store.t) =
  match Tenant.cache_find ten snap.Store.hash with
  | Some s -> (s, true, None, None, None)
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
      ( P.summarize ~store:snap ~model report,
        false,
        Some kind,
        delta,
        Some (model, report) )

(* One region computation on the shard's session: the tenant's region
   cache first (keyed by snapshot hash, platform and grid — several
   regions can coexist per snapshot), then a [Design.Param_search]
   region build whose probe analyses all run through that session
   exactly like the bisection searches.  The region's wire summary
   reports membership of the platform's current (α, Δ) point, the cell
   statistics and the Pareto frontier. *)
let region_snapshot t (ten : Tenant.t) (snap : Store.t) ~resource ~precision =
  match
    Tenant.region_find ten ~hash:snap.Store.hash ~resource ~precision
  with
  | Some r ->
      Region_evaluated
        { result = r; cache_hit = true; kind = None; ladder = None }
  | None -> (
      let sys = snap.Store.sys in
      let resources = sys.Transaction.System.resources in
      let idx = ref (-1) in
      Array.iteri
        (fun i (r : Platform.Resource.t) ->
          if r.Platform.Resource.name = resource then idx := i)
        resources;
      match !idx with
      | -1 -> Invalid [ Printf.sprintf "no platform named %s" resource ]
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
          Region_evaluated
            {
              result;
              cache_hit = false;
              kind = Some kind;
              ladder = Some (Regions.Probe_ladder.stats rm.D.ladder);
            })

(* The one [errors] entry of a request whose exact arithmetic overflows
   native ints: it is rejected as invalid, like a malformed one, and
   nothing is committed or cached. *)
let overflow_error = "arithmetic overflow: exact rationals exceed native ints"

(* Evaluate one read-only request against the tenant's current store. *)
let evaluate t (ten : Tenant.t) req =
  let snap = ten.Tenant.store in
  try
    match req with
    | P.Query ->
        let summary, cache_hit, kind, delta, fresh =
          analyze_snapshot t ten snap
        in
        Evaluated { candidate = None; summary; cache_hit; kind; delta; fresh }
    | P.What_if { uid; spec } -> (
        match Store.admit snap ~uid ~spec with
        | Error es -> Invalid es
        | Ok cand ->
            let summary, cache_hit, kind, delta, fresh =
              analyze_snapshot t ten cand
            in
            Evaluated
              { candidate = Some cand; summary; cache_hit; kind; delta; fresh })
    | P.Region { resource; precision } ->
        region_snapshot t ten snap ~resource ~precision
    | P.Admit _ | P.Revoke _ | P.Stats -> assert false
  with Rational.Overflow -> Invalid [ overflow_error ]

let session_label = function
  | Cold -> "cold"
  | Rebound -> "rebound"
  | Warm -> "warm-ir"

let record_kind t = function
  | None -> ()
  | Some Cold ->
      t.metrics.Metrics.sessions_created <-
        t.metrics.Metrics.sessions_created + 1
  | Some Rebound ->
      t.metrics.Metrics.sessions_rebound <-
        t.metrics.Metrics.sessions_rebound + 1
  | Some Warm ->
      t.metrics.Metrics.sessions_rebound <-
        t.metrics.Metrics.sessions_rebound + 1;
      t.metrics.Metrics.ir_warm <- t.metrics.Metrics.ir_warm + 1

let record_cache t hit =
  if hit then t.metrics.Metrics.cache_hits <- t.metrics.Metrics.cache_hits + 1
  else t.metrics.Metrics.cache_misses <- t.metrics.Metrics.cache_misses + 1

let record_ladder t = function
  | None -> ()
  | Some (s : Regions.Probe_ladder.stats) ->
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
  | None -> ()
  | Some (Analysis.Engine.Delta_warm { dirty; total = _; carried }) ->
      t.metrics.Metrics.delta_warm <- t.metrics.Metrics.delta_warm + 1;
      t.metrics.Metrics.delta_dirty_tasks <-
        t.metrics.Metrics.delta_dirty_tasks + dirty;
      t.metrics.Metrics.delta_carried_tasks <-
        t.metrics.Metrics.delta_carried_tasks + carried
  | Some (Analysis.Engine.Delta_cold _) ->
      t.metrics.Metrics.delta_cold <- t.metrics.Metrics.delta_cold + 1

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

let process_batch t envs =
  let arr = Array.of_list envs in
  let n = Array.length arr in
  (* Counted up front so a [stats] request in this very batch sees it. *)
  t.metrics.Metrics.batches <- t.metrics.Metrics.batches + 1;
  (* Tenants are resolved (and created) before any request runs. *)
  let tens =
    Array.map
      (fun env -> tenant t (Option.value env.P.tenant ~default:Tenant.default_id))
      arr
  in
  let responses = Array.make n Json.Null in
  let shed_reason = Array.make n None in
  (* Overload policy: beyond [max_batch], shed the newest what_if probes
     first, then queries, then admissions/revocations; stats never. *)
  let over = ref (n - t.max_batch) in
  let shed_class is_class =
    for i = n - 1 downto 0 do
      if !over > 0 && shed_reason.(i) = None && is_class arr.(i).P.req then (
        shed_reason.(i) <- Some "overload";
        decr over)
    done
  in
  if !over > 0 then (
    shed_class (function P.What_if _ | P.Region _ -> true | _ -> false);
    shed_class (function P.Query -> true | _ -> false);
    shed_class (function P.Admit _ | P.Revoke _ -> true | _ -> false));
  let results = Array.make n Not_run in
  (* Requests are finalized (responses, cache inserts, metrics, trace)
     in arrival order — that is what makes a scripted session
     deterministic. *)
  let finish i ~status ~cache_hit ~session response =
    let env = arr.(i) in
    responses.(i) <- response;
    let ms = (t.now () -. env.P.arrival) *. 1000. in
    Metrics.record_latency t.metrics ms;
    emit t
      (Events.Request
         {
           seq = env.P.seq;
           op = P.op_name env.P.req;
           status;
           latency_ms = ms;
           cache_hit;
           session;
           tenant = env.P.tenant;
         })
  in
  (* Rejected as invalid: the tenant's store is untouched and nothing is
     cached. *)
  let invalid i errors =
    let env = arr.(i) in
    let uid =
      match env.P.req with
      | P.Admit { uid; _ } | P.What_if { uid; _ } | P.Revoke { uid } -> uid
      | P.Region { resource; _ } -> resource
      | P.Query | P.Stats -> "?"
    in
    t.metrics.Metrics.rejected <- t.metrics.Metrics.rejected + 1;
    finish i ~status:"rejected" ~cache_hit:false ~session:None
      (P.rejected ?tenant:env.P.tenant ~seq:env.P.seq
         ~op:(P.op_name env.P.req) ~uid ~reason:"invalid" ~errors
         ~hash:tens.(i).Tenant.store.Store.hash ())
  in
  let finalize i =
    let env = arr.(i) in
    let seq = env.P.seq in
    let tenant = env.P.tenant in
    let ten = tens.(i) in
    Metrics.count_request t.metrics env.P.req;
    match shed_reason.(i) with
    | Some reason ->
        (if reason = "deadline" then
           t.metrics.Metrics.shed_deadline <-
             t.metrics.Metrics.shed_deadline + 1
         else
           t.metrics.Metrics.shed_overload <-
             t.metrics.Metrics.shed_overload + 1);
        finish i ~status:"shed" ~cache_hit:false ~session:None
          (P.shed ?tenant ~seq ~op:(P.op_name env.P.req) ~reason ())
    | None -> (
        match results.(i) with
        | Not_run -> assert false
        | Invalid errors -> invalid i errors
        | Evaluated { candidate; summary; cache_hit; kind; delta; fresh } -> (
            record_kind t kind;
            record_cache t cache_hit;
            record_delta t delta;
            Tenant.update_baseline ten fresh;
            Tenant.cache_add ten summary;
            let session = Option.map session_label kind in
            match env.P.req with
            | P.Query ->
                finish i ~status:"ok" ~cache_hit ~session
                  (P.query_ok ?tenant ~seq ~cached:cache_hit summary)
            | P.What_if { uid; _ } ->
                let candidate_instances =
                  match candidate with
                  | Some c -> Store.unit_instances c uid
                  | None -> []
                in
                finish i ~status:"ok" ~cache_hit ~session
                  (P.what_if_ok ?tenant ~seq ~uid ~cached:cache_hit
                     ~candidate_instances summary)
            | P.Region _ | P.Admit _ | P.Revoke _ | P.Stats -> assert false)
        | Region_evaluated { result; cache_hit; kind; ladder } ->
            record_kind t kind;
            record_cache t cache_hit;
            record_ladder t ladder;
            Tenant.region_add ten result;
            finish i ~status:"ok" ~cache_hit
              ~session:(Option.map session_label kind)
              (P.region_ok ?tenant ~seq ~cached:cache_hit result))
  in
  (* Pending read-only run: [to_run] are the indices to evaluate,
     [pending] additionally carries the shed ones so they are finalized
     in order with their neighbours.  The whole run is evaluated before
     any of it is finalized, so each item analyzes its own tenant's
     store, cache and baseline as of the run's start. *)
  let pending = ref [] and to_run = ref [] in
  let flush () =
    List.iter
      (fun i -> results.(i) <- evaluate t tens.(i) arr.(i).P.req)
      (List.rev !to_run);
    List.iter finalize (List.rev !pending);
    pending := [];
    to_run := []
  in
  (* A commit runs against the tenant's current store: admissions and
     revocations are barriers in arrival order.  [build] makes the
     candidate from that store. *)
  let commit i uid ~op build =
    let seq = arr.(i).P.seq in
    let tenant = arr.(i).P.tenant in
    let ten = tens.(i) in
    match
      Result.map
        (fun cand -> (cand, analyze_snapshot t ten cand))
        (build ten.Tenant.store)
    with
    | exception Rational.Overflow -> invalid i [ overflow_error ]
    | Error errors -> invalid i errors
    | Ok (cand, (summary, cache_hit, kind, delta, fresh)) -> (
        record_kind t kind;
        record_cache t cache_hit;
        record_delta t delta;
        Tenant.update_baseline ten fresh;
        Tenant.cache_add ten summary;
        let session = Option.map session_label kind in
        let apply status response =
          ten.Tenant.store <- cand;
          wal_append t ten uid ~op cand;
          t.metrics.Metrics.committed <- t.metrics.Metrics.committed + 1;
          finish i ~status ~cache_hit ~session response
        in
        match op with
        | `Admit ->
            if summary.P.s_schedulable then
              apply "admitted"
                (P.admitted ?tenant ~seq ~uid ~txns:(Store.n_transactions cand)
                   ~cached:cache_hit summary)
            else (
              (* Rollback: the candidate is dropped, the tenant's store was
                 never touched. *)
              t.metrics.Metrics.rejected <- t.metrics.Metrics.rejected + 1;
              finish i ~status:"rejected" ~cache_hit ~session
                (P.rejected ?tenant ~seq ~op:"admit" ~uid
                   ~reason:"unschedulable" ~violations:summary.P.s_violations
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
  let barrier i =
    let env = arr.(i) in
    Metrics.count_request t.metrics env.P.req;
    match env.P.req with
    | P.Stats ->
        (* The fleet renders stats: every shard is quiescent at this
           barrier, so the renderer may read all of them and merge. *)
        let render =
          match t.stats_view with Some f -> f | None -> assert false
        in
        finish i ~status:"ok" ~cache_hit:false ~session:None
          (render ~seq:env.P.seq ~tenant:env.P.tenant)
    | P.Admit { uid; spec } -> commit i uid ~op:`Admit (Store.admit ~uid ~spec)
    | P.Revoke { uid } -> commit i uid ~op:`Revoke (Store.revoke ~uid)
    | P.Query | P.What_if _ | P.Region _ -> assert false
  in
  for i = 0 to n - 1 do
    let env = arr.(i) in
    if shed_reason.(i) <> None then pending := i :: !pending
    else
      let expired =
        match env.P.deadline_ms with
        | None -> false
        | Some d -> (t.now () -. env.P.arrival) *. 1000. >= d
      in
      if expired then (
        shed_reason.(i) <- Some "deadline";
        pending := i :: !pending)
      else
        match env.P.req with
        | P.Query | P.What_if _ | P.Region _ ->
            pending := i :: !pending;
            to_run := i :: !to_run
        | P.Admit _ | P.Revoke _ | P.Stats ->
            flush ();
            barrier i
  done;
  flush ();
  let shed =
    Array.fold_left
      (fun acc r -> if r = None then acc else acc + 1)
      0 shed_reason
  in
  emit t (Events.Batch { size = n; shed });
  Array.to_list responses
