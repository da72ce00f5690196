(** One shard of the fleet: a partition of tenants served by its own
    engine session (with its memo and integer kernel) and {!Metrics}
    record.

    The batching core is the original single-store server generalized
    over tenants: a maximal run of read-only requests is evaluated in
    arrival order, each item against its own tenant's store as of the
    run's start, while every admission, revocation and [stats] request
    is a barrier in arrival order ([stats] is rendered by the fleet).
    Committed mutations append to the WAL inside the commit.

    A shard must only be driven from one domain (the fleet drives shard
    [s] from slot [s] of its pool, whose slot identity is static);
    per-tenant responses are bit-identical for any shard count.  A
    request whose exact arithmetic overflows native ints
    ({!Rational.Overflow}) is answered as an invalid request. *)

type t

type view = {
  v_metrics : Metrics.t;
  v_entries : int;  (** result-cache entries summed over tenants *)
  v_kernel_sessions : int;
      (** 1 when the shard's session is on the integer timeline kernel,
          else 0 *)
  v_fallback_count : int;  (** kernel-overflow fallbacks recorded *)
  v_tenants : (string * Store.t) list;  (** sorted by tenant id *)
}
(** Snapshot for the fleet's stats barrier; only taken while the shard
    is quiescent. *)

val create :
  id:int ->
  params:Analysis.Params.t ->
  max_batch:int ->
  emit:(Events.event -> unit) option ->
  now:(unit -> float) ->
  ?wal:Wal.t ->
  boot:Store.t ->
  tenants:(string * Store.t) list ->
  unit ->
  t
(** [emit] is the fleet's already serialized trace sink; [tenants]
    seeds the partition (typically from WAL replay), every other tenant
    starts from [boot] on first contact. *)

val set_stats_view : t -> (seq:int -> tenant:string option -> Json.t) -> unit
(** Install the fleet's [stats] renderer (called back at the stats
    barrier, when every shard is quiescent). *)

val process_batch : t -> Protocol.envelope list -> Json.t list
(** Responses in envelope order.  Must be called from the shard's
    driving domain. *)

val tenant_find : t -> string -> Tenant.t option

val tenant_stores : t -> (string * Store.t) list
(** Current committed snapshots of this shard's tenants, sorted by id. *)

val view : t -> view

val metrics : t -> Metrics.t

