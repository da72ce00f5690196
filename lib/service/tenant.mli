(** Per-tenant serving state: the committed {!Store.t} snapshot, the
    delta-analysis baseline and the result cache, all scoped to one
    tenant id so interleaved traffic from different assemblies cannot
    disturb each other's warm fixed points or [cached] flags.  The
    engine session remains a per-shard resource shared across the
    shard's tenants.

    Mutable fields are written only by the owning shard's driving
    domain in request-arrival order. *)

type 'v lru
(** A string-keyed cache of at most {!cache_capacity} entries that
    drops the least recently used one to make room. *)

val cache_capacity : int
(** Entries kept per cache: a tenant's result cache and its region
    cache each hold at most this many. *)

type t = {
  id : string;
  mutable store : Store.t;  (** current committed snapshot *)
  mutable baseline : (Analysis.Model.t * Analysis.Report.t) option;
      (** warm-start source for {!Analysis.Engine.analyze_delta} *)
  cache : Protocol.summary lru;  (** keyed by snapshot hash *)
  region_cache : Protocol.region_summary lru;
      (** keyed [hash#platform#precision] — one store snapshot can
          carry several regions *)
  cache_mu : Mutex.t;
}

val default_id : string
(** [""] — the tenant requests without a [tenant] field resolve to. *)

val create : id:string -> Store.t -> t

val cache_find : t -> string -> Protocol.summary option

val cache_add : t -> Protocol.summary -> unit

val cache_entries : t -> int

val region_find :
  t -> hash:string -> resource:string -> precision:int ->
  Protocol.region_summary option

val region_add : t -> Protocol.region_summary -> unit

val update_baseline : t -> (Analysis.Model.t * Analysis.Report.t) option -> unit
(** Adopt a freshly computed (model, report) pair as the new baseline
    iff the report converged. *)
