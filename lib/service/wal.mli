(** Append-only write-ahead log of committed store mutations.

    JSON lines: a version header, then one record per committed
    [admit]/[revoke] (tenant, unit payload, resulting store hash) or
    one [snapshot] record per tenant written by {!compact}.  Appends
    are flushed per record, so a process killed at any commit boundary
    replays to exactly the committed prefix; {!replay} hard-errors the
    moment a reached hash differs from the recorded one.  The record
    format is documented field-by-field in docs/SERVICE.md. *)

type record =
  | Admit of { tenant : string; uid : string; spec : string; hash : string }
  | Revoke of { tenant : string; uid : string; hash : string }
  | Snapshot of {
      tenant : string;
      units : (string * string) list;
          (** (uid, spec) pairs in admission order *)
      hash : string;
    }

type t

val open_ : path:string -> (t * record list, string list) result
(** Open (creating if needed) the log at [path] for appending, after
    reading back every record already on disk — the replay input.  A
    torn final line (no trailing newline: the process died mid-append,
    before the record was acknowledged) is dropped and truncated away,
    so the next append starts on a record boundary.  Fails on any other
    unparseable or unversioned line. *)

val path : t -> string

val append : t -> record -> unit
(** Write one record and flush.  Thread-safe: shards append
    concurrently, and replay only needs per-tenant order, which each
    shard's in-order commits guarantee. *)

val mutations : t -> int
(** Admit/revoke records currently on disk — the replay cost that
    {!compact} resets to zero. *)

exception Injected_crash
(** Raised by {!compact} at its injected fault point; never escapes in
    production use (no [fault] argument). *)

val compact :
  ?fault:[ `Crash_before_rename ] -> t -> tenants:(string * Store.t) list -> int
(** Rewrite the log as one [snapshot] record per non-empty tenant
    (sorted by id), via temp file + atomic rename, and return how many
    snapshot records were written.  Must be called at a quiescent
    point: no concurrent {!append}.

    [fault] is test-only crash injection: [`Crash_before_rename] raises
    {!Injected_crash} after the snapshot temp file is written and
    closed but before the atomic rename — the window where a real crash
    must leave the original log intact and fully replayable. *)

val close : t -> unit

val replay : boot:Store.t -> record list -> ((string * Store.t) list, string list) result
(** Apply the records through the ordinary {!Store} transitions,
    starting every tenant from [boot].  Returns the replayed tenant
    stores in first-appearance order, or a hard error on the first
    divergence from a recorded hash. *)
