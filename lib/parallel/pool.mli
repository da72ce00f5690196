(** A pool of OCaml 5 domains with one slot per serving shard.  An
    analysis itself always runs on the domain that calls it; the pool
    only runs one whole, independent piece of work per slot.

    Slot identity is static: slot [s] of a region always executes in
    participant [s mod participants] (the caller plus the resident
    worker domains), so per-slot state — a shard and its engine
    session — is only ever touched by one domain.

    A pool is {e reentrant}: calling {!run} from inside a worker of the
    same pool degrades to executing every slot sequentially in the
    calling domain instead of deadlocking.

    A pool must only be driven from the domain that created it. *)

type t

val create : jobs:int -> t
(** A pool of [jobs] slots backed by at most
    [min jobs (Domain.recommended_domain_count ()) − 1] resident worker
    domains — extra domains beyond the hardware's cores cannot run in
    parallel yet tax every minor collection, so they are never spawned
    and their slots are strided over the live participants instead.
    [jobs = 1] (or any job count on a single-core host) spawns no
    domains and runs everything in the caller.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** Number of slots (≥ 1). *)

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f 0], …, [f (jobs t − 1)] — [f slot] on slot
    [slot]'s domain — and returns when all have finished.  If several
    slots raise, the exception of the lowest slot is re-raised in the
    caller (deterministically), after every slot has completed. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; running a region on a pool
    that was shut down raises [Invalid_argument].  Single-job pools are
    unaffected. *)
