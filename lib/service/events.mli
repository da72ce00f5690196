(** The service's structured trace stream.

    [hsched serve --trace FILE] writes one JSON object per line, exactly
    like the analysis engine's [--trace]: the engine events of every
    shard's session pass through verbatim ({!Engine_event}), interleaved
    with per-request and per-batch service events.  Requests run one at
    a time in arrival order on their shard's driving domain, so the
    events of one shard appear in a deterministic order; those of
    different shards may interleave. *)

type event =
  | Engine_event of Analysis.Engine.event
  | Request of {
      seq : int;
      op : string;
      status : string;
      latency_ms : float;
      cache_hit : bool;
      session : string option;
          (** ["cold"], ["rebound"] or ["warm-ir"]; [None] when no
              analysis ran (cache hit, shed, invalid) *)
      tenant : string option;
          (** the request's wire tenant; rendered only when present, so
              default-tenant trace lines keep their historical bytes *)
    }
  | Batch of { size : int; shed : int }
      (** One shard batch: [size] requests drained, [shed] of them
          dropped. *)
  | Replay of { records : int; tenants : int }
      (** Startup replayed [records] WAL records into [tenants] tenant
          stores, all hashes verified. *)
  | Compaction of { records : int; tenants : int }
      (** The WAL's [records] mutations were compacted into [tenants]
          snapshot records. *)

val to_json : event -> string
(** One line, no trailing newline. *)
