(** The long-lived admission-control server: the {!Fleet} plus the
    JSON-lines IO loops, keeping the historical single-server API.

    A server owns a fleet of {!Shard}s (one by default — then
    everything runs on the calling domain exactly like the original
    single-store server), each serving a consistent-hashed partition of
    tenants with its own worker pool, engine sessions and metrics.
    Requests arrive as JSON lines ({!Protocol}); the {!run} loop drains
    whatever has arrived into a batch, sheds expired or overload-victim
    requests, executes maximal runs of read-only requests ([query],
    [what_if]) in parallel on the workers, and runs the mutating
    requests ([admit], [revoke]) as barriers in arrival order on their
    shard and [stats] as a fleet barrier.

    Admission is transactional: the candidate snapshot is built and
    analyzed {e beside} the tenant's current one, and the store
    reference is re-pointed only on a schedulable verdict — a rejection
    leaves the committed snapshot untouched (it was never modified),
    with a structured report of which transactions miss and by what
    margin.  With [log] attached, every commit appends to the
    write-ahead log before the response is finalized, and a restart
    replays the log to the exact recorded hashes (hard error on
    divergence).

    Every response is deterministic for a scripted session (fixed
    requests, fixed worker count): request finalization runs in arrival
    order on each shard's driving domain, per-tenant state (store,
    result cache, delta baseline) evolves in that order, and the
    analysis itself is bit-identical across sessions, job counts and
    shard counts.  Only latency values and the interleaving of engine
    trace events vary. *)

type t

val create :
  ?workers:int ->
  ?shards:int ->
  ?params:Analysis.Params.t ->
  ?max_batch:int ->
  ?trace:(Events.event -> unit) ->
  ?now:(unit -> float) ->
  ?log:string ->
  ?wal_compact:int ->
  Spec.Ast.t ->
  (t, string list) result
(** [workers] (default 1; 0 = all cores) sizes each shard's domain pool
    and per-worker session set.  [shards] (default 1) is the number of
    shards; above 1 each shard runs pinned to its own domain.  [params]
    defaults to the reduced analysis without history.  [max_batch]
    (default 64) is the per-shard overload threshold: a drained batch
    beyond it sheds [what_if] probes first, then [query], then
    admissions — never [stats].  [trace] receives the service event
    stream ({!Events}); the caller serializes nothing, the server
    already wraps the sink in a mutex.  [now] is the clock (injectable
    for tests).  [log] attaches the durable write-ahead log: existing
    records are replayed first (failing with the divergence report),
    then every commit appends.  [wal_compact] (default 256) is the
    mutation count that triggers snapshot compaction.  Fails with the
    base description's diagnostics. *)

val store : t -> Store.t
(** The default tenant's current committed snapshot. *)

val tenant_store : t -> string -> Store.t option
(** A tenant's current committed snapshot, if the tenant exists. *)

val workers : t -> int
(** Total workers across shards. *)

val shards : t -> int

val metrics : t -> Metrics.t
(** A fresh merged copy of the per-shard records; call between
    batches. *)

val cache_entries : t -> int

val process_batch : t -> Protocol.envelope list -> Json.t list
(** The batching core, exposed for tests and benchmarks: responses in
    envelope order.  Must be called from the domain that created the
    server. *)

val handle : t -> ?deadline_ms:float -> ?tenant:string -> Protocol.request -> Json.t
(** One-request convenience over {!process_batch} (assigns the next
    sequence number). *)

val run : t -> in_channel -> out_channel -> unit
(** The JSON-lines loop: read requests from [ic] (a dedicated reader
    domain keeps draining while a batch is being processed — that is
    what makes batches larger than one under load), write responses to
    [oc] in arrival order, return on end of input.  Unparseable lines,
    and lines longer than {!Protocol.max_line_bytes} (read no further
    than that, then discarded up to their newline), are answered with
    [status:"error"] in place and counted in [requests.errors]. *)

val run_unix_socket : ?accept_limit:int -> t -> path:string -> unit
(** Serve connections on a Unix-domain socket, one client at a time,
    against the same long-lived fleet.  [accept_limit] bounds the
    number of connections served (default: loop forever). *)

val shutdown : t -> unit
(** Join the shard domains and their pools and close the WAL.  The
    server must not be used afterwards. *)
