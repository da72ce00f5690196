(** The long-lived multi-tenant admission-control fleet: tenants
    consistent-hashed onto N {!Shard}s, with an optional durable {!Wal}
    of committed mutations.  {!Server} runs the JSON-lines IO loops on
    top of it.

    Each shard serves its partition of tenants with its own engine
    session and metrics.  The shards run on one {!Parallel.Pool} with
    one slot per shard, and static slot identity keeps every batch of
    shard [s] on slot [s]'s domain.  The pool is the program's only
    parallelism.  With one shard (the default) the pool is sequential
    and every batch is handed to the shard whole on the caller's
    domain — byte-for-byte the original single-store server.  With
    more, a batch is split into maximal stats-free segments, each
    segment runs as one pool region in which every shard processes its
    own sub-batch, and responses are scattered back into envelope
    order; [stats] is a fleet barrier, a region in which only the
    owning shard works and renders the merged fleet view.  The pool
    spawns at most one domain per core (the caller included), so shards
    beyond the core count share domains.

    Within a shard, a drained batch first picks its overload victims,
    then serves its requests one at a time in arrival order: each one
    (shed, [query], [what_if], [region], [admit], [revoke], [stats])
    runs to completion against its tenant's current store before the
    next one starts.  A request's [deadline_ms] is checked when its
    turn comes.

    Admission is transactional: the candidate snapshot is built and
    analyzed {e beside} the tenant's current one, and the store
    reference is re-pointed only on a schedulable verdict — a rejection
    leaves the committed snapshot untouched (it was never modified),
    with a structured report of which transactions miss and by what
    margin.  A request whose exact arithmetic overflows native integers
    ({!Rational.Overflow}) is rejected as invalid, commits nothing and
    caches nothing.

    Every response is deterministic for a scripted session, however
    its requests are batched: they run in arrival order on each
    shard's driving domain, per-tenant state (store, result cache,
    delta baseline) evolves in that order, and the analysis itself is
    bit-identical across sessions and shard counts.  Only latency
    values, the [batches] count and the interleaving of different
    shards' trace events vary.

    With a log attached, committed admits/revokes append to it inside
    the commit, before the response is built; startup replays it to
    the exact recorded hashes (hard error on any divergence), and the
    fleet compacts it into per-tenant snapshot records once the
    mutation count passes the threshold. *)

type t

val default_params : Analysis.Params.t
(** The serving default: the reduced analysis without history. *)

val create :
  ?shards:int ->
  ?params:Analysis.Params.t ->
  ?max_batch:int ->
  ?trace:(Events.event -> unit) ->
  ?now:(unit -> float) ->
  ?log:string ->
  ?wal_compact:int ->
  Spec.Ast.t ->
  (t, string list) result
(** [shards] (default 1) is the shard count, and the size of the
    fleet's domain pool.  [params] defaults to {!default_params}.
    [max_batch] (default 64) is the per-shard overload threshold: a
    drained batch beyond it sheds [what_if]/[region] probes first, then
    [query], then admissions — never [stats].  [trace] receives the
    service event stream ({!Events}); the fleet wraps the sink in a
    mutex, so the caller serializes nothing.  [now] is the clock
    (injectable for tests).  [log] attaches the write-ahead log:
    existing records are replayed first, then every commit appends.
    [wal_compact] (default 256) is the mutation-record count that
    triggers snapshot compaction.  Fails with the base description's
    diagnostics, or with the replay divergence report. *)

val process_batch : t -> Protocol.envelope list -> Json.t list
(** Responses in envelope order.  Must be called from the domain that
    created the fleet.  If a shard raises, every other shard still
    finishes its part of the segment, and the exception of the lowest
    failing shard is re-raised; the fleet stays usable. *)

val handle :
  t -> ?deadline_ms:float -> ?tenant:string -> Protocol.request -> Json.t
(** One-request convenience over {!process_batch} (assigns the next
    sequence number). *)

val route : t -> string -> int
(** The shard a tenant id routes to (first ring point at or after the
    tenant's hash). *)

val metrics : t -> Metrics.t
(** A fresh merged copy of the per-shard records; call only between
    batches. *)

val tenant_store : t -> string -> Store.t option
(** The tenant's current committed snapshot, if it exists. *)

val default_store : t -> Store.t
(** The default tenant's current committed snapshot. *)

val clock : t -> unit -> float

val fresh_seq : t -> int
(** The next request sequence number (the IO loops assign these). *)

val count_error : t -> unit
(** Count one unparseable request line (attributed to shard 0, merged
    into the fleet aggregate). *)

val shutdown : t -> unit
(** Join the fleet's pool, then close the WAL.  The fleet must not be
    used afterwards. *)
