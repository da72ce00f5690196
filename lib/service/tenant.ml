(* Per-tenant serving state.  A tenant owns its committed store
   snapshot, its delta baseline and its result cache; the engine
   session and its memo stay per-shard and are shared across the
   shard's tenants.  All mutable fields are written only by the owning
   shard's driving domain, one request at a time in arrival order —
   that is what keeps a tenant's responses bit-identical regardless of
   how the other tenants interleave, how the requests were batched or
   how many shards the fleet runs. *)

type t = {
  id : string;
  mutable store : Store.t;
  mutable baseline : (Analysis.Model.t * Analysis.Report.t) option;
      (* most recent converged analysis of this tenant, in arrival
         order — the warm start [Engine.analyze_delta] carries clean
         rows from.  Per tenant, so interleaved traffic from other
         assemblies cannot evict a tenant's warm fixed point. *)
  cache : (string, Protocol.summary) Hashtbl.t;
  region_cache : (string, Protocol.region_summary) Hashtbl.t;
  cache_mu : Mutex.t;
}

let default_id = ""

let create ~id store =
  {
    id;
    store;
    baseline = None;
    cache = Hashtbl.create 16;
    region_cache = Hashtbl.create 4;
    cache_mu = Mutex.create ();
  }

(* The cache is written only by the shard's driving domain, and read
   by the fleet's stats barrier from another shard's domain while this
   one is quiescent; the mutex costs nothing and keeps the invariant
   local.  Caches are per tenant
   (not keyed fleet-wide) so the [cached] wire field of a tenant's
   session depends only on that tenant's own history — a requirement
   for bit-identical responses across shard counts. *)
let cache_find t hash =
  Mutex.lock t.cache_mu;
  let r = Hashtbl.find_opt t.cache hash in
  Mutex.unlock t.cache_mu;
  r

let cache_add t (s : Protocol.summary) =
  Mutex.lock t.cache_mu;
  if not (Hashtbl.mem t.cache s.Protocol.s_hash) then
    Hashtbl.add t.cache s.Protocol.s_hash s;
  Mutex.unlock t.cache_mu

let cache_entries t = Hashtbl.length t.cache

(* Regions are cached like summaries, but the key must also pin the
   platform and the grid: one store hash can carry several regions. *)
let region_key ~hash ~resource ~precision =
  Printf.sprintf "%s#%s#%d" hash resource precision

let region_find t ~hash ~resource ~precision =
  Mutex.lock t.cache_mu;
  let r = Hashtbl.find_opt t.region_cache (region_key ~hash ~resource ~precision) in
  Mutex.unlock t.cache_mu;
  r

let region_add t (r : Protocol.region_summary) =
  let key =
    region_key ~hash:r.Protocol.r_hash ~resource:r.Protocol.r_platform
      ~precision:r.Protocol.r_precision
  in
  Mutex.lock t.cache_mu;
  if not (Hashtbl.mem t.region_cache key) then Hashtbl.add t.region_cache key r;
  Mutex.unlock t.cache_mu

(* Any converged (model, report) pair of this tenant is a valid
   warm-start source — what_if candidates included: the delta planner
   aligns by transaction name and verifies every carried equation
   itself. *)
let update_baseline t = function
  | Some ((_, report) as pair) when report.Analysis.Report.converged ->
      t.baseline <- Some pair
  | Some _ | None -> ()
