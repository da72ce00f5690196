(* Per-tenant serving state.  A tenant owns its committed store
   snapshot, its delta baseline and its result cache; the engine
   session stays per-shard and is shared across the shard's
   tenants.  All mutable fields are written only by the owning
   shard's driving domain, one request at a time in arrival order —
   that is what keeps a tenant's responses bit-identical regardless of
   how the other tenants interleave, how the requests were batched or
   how many shards the fleet runs. *)

(* A string-keyed map holding at most [cache_capacity] entries: a hit
   makes its entry the newest, and adding to a full map first drops the
   oldest, the least recently used.  The recency order is a doubly
   linked list threaded through the table's nodes, so every operation
   is O(1). *)
type 'v node = {
  key : string;
  value : 'v;
  mutable older : 'v node option;
  mutable newer : 'v node option;
}

type 'v lru = {
  nodes : (string, 'v node) Hashtbl.t;
  mutable newest : 'v node option;
  mutable oldest : 'v node option;
}

(* Sized so a long-running [serve] keeps bounded memory while every
   tenant's recent snapshots stay cached. *)
let cache_capacity = 256

let lru () = { nodes = Hashtbl.create 16; newest = None; oldest = None }

let unlink l n =
  (match n.older with
  | Some o -> o.newer <- n.newer
  | None -> l.oldest <- n.newer);
  (match n.newer with
  | Some w -> w.older <- n.older
  | None -> l.newest <- n.older);
  n.older <- None;
  n.newer <- None

let push l n =
  n.older <- l.newest;
  (match l.newest with
  | Some w -> w.newer <- Some n
  | None -> l.oldest <- Some n);
  l.newest <- Some n

let lru_find l key =
  match Hashtbl.find_opt l.nodes key with
  | None -> None
  | Some n ->
      unlink l n;
      push l n;
      Some n.value

(* Adding a present key keeps the entry it has: the shard adds only
   after a miss, so this never happens on the serving path. *)
let lru_add l key value =
  if not (Hashtbl.mem l.nodes key) then begin
    (if Hashtbl.length l.nodes >= cache_capacity then
       match l.oldest with
       | Some o ->
           unlink l o;
           Hashtbl.remove l.nodes o.key
       | None -> ());
    let n = { key; value; older = None; newer = None } in
    Hashtbl.add l.nodes key n;
    push l n
  end

type t = {
  id : string;
  mutable store : Store.t;
  mutable baseline : (Analysis.Model.t * Analysis.Report.t) option;
      (* most recent converged analysis of this tenant, in arrival
         order — the warm start [Engine.analyze_delta] carries clean
         rows from.  Per tenant, so interleaved traffic from other
         assemblies cannot evict a tenant's warm fixed point. *)
  cache : Protocol.summary lru;
  region_cache : Protocol.region_summary lru;
  cache_mu : Mutex.t;
}

let default_id = ""

let create ~id store =
  {
    id;
    store;
    baseline = None;
    cache = lru ();
    region_cache = lru ();
    cache_mu = Mutex.create ();
  }

(* The cache is written only by the shard's driving domain, and read
   by the fleet's stats barrier from another shard's domain while this
   one is quiescent; the mutex costs nothing and keeps the invariant
   local.  Caches are per tenant
   (not keyed fleet-wide) so the [cached] wire field of a tenant's
   session depends only on that tenant's own history — a requirement
   for bit-identical responses across shard counts.  The recency order
   is part of that history too: only the owning shard looks entries up
   or adds them, in the tenant's own request order. *)
let cache_find t hash =
  Mutex.lock t.cache_mu;
  let r = lru_find t.cache hash in
  Mutex.unlock t.cache_mu;
  r

let cache_add t (s : Protocol.summary) =
  Mutex.lock t.cache_mu;
  lru_add t.cache s.Protocol.s_hash s;
  Mutex.unlock t.cache_mu

let cache_entries t = Hashtbl.length t.cache.nodes

(* Regions are cached like summaries, but the key must also pin the
   platform and the grid: one store hash can carry several regions. *)
let region_key ~hash ~resource ~precision =
  Printf.sprintf "%s#%s#%d" hash resource precision

let region_find t ~hash ~resource ~precision =
  Mutex.lock t.cache_mu;
  let r = lru_find t.region_cache (region_key ~hash ~resource ~precision) in
  Mutex.unlock t.cache_mu;
  r

let region_add t (r : Protocol.region_summary) =
  let key =
    region_key ~hash:r.Protocol.r_hash ~resource:r.Protocol.r_platform
      ~precision:r.Protocol.r_precision
  in
  Mutex.lock t.cache_mu;
  lru_add t.region_cache key r;
  Mutex.unlock t.cache_mu

(* Any converged (model, report) pair of this tenant is a valid
   warm-start source — what_if candidates included: the delta planner
   aligns by transaction name and verifies every carried equation
   itself. *)
let update_baseline t = function
  | Some ((_, report) as pair) when report.Analysis.Report.converged ->
      t.baseline <- Some pair
  | Some _ | None -> ()
