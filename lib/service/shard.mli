(** One shard of the fleet: a partition of tenants served by its own
    engine session (with its integer kernel) and {!Metrics} record.

    A batch is served one request at a time, in arrival order: each
    request ([query], [what_if], [region], [admit], [revoke], [stats],
    or a shed one) runs to completion, cache insert, delta baseline,
    commit, metrics and trace record included, before the next one
    starts, against its tenant's current store.  A response therefore
    does not depend on where the batch boundaries fell, except through
    overload shedding: the victims are chosen for the whole batch
    before anything runs.  A request's [deadline_ms] is checked when
    its turn comes.
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

val process_batch :
  t ->
  stats:(seq:int -> tenant:string option -> Json.t) ->
  Protocol.envelope list ->
  Json.t list
(** Responses in envelope order.  [stats] renders the response to a
    [stats] request and may read every shard, so a batch holding a
    [stats] must run while the other shards are quiescent (with several
    shards, the fleet gives each [stats] a pool region of its own).
    Must be called from the shard's driving domain. *)

val tenant_find : t -> string -> Tenant.t option

val tenant_stores : t -> (string * Store.t) list
(** Current committed snapshots of this shard's tenants, sorted by id. *)

val view : t -> view

val metrics : t -> Metrics.t

