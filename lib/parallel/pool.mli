(** A pool of OCaml 5 domains for independent work: the candidate
    sweeps of the design searches and a serving shard's read-only
    batches.  An analysis itself always runs on the domain that calls
    it; the pool only spreads whole, independent items over its slots.

    Slot identity is static: slot [s] of a region always executes in
    participant [s mod participants] (the caller plus the resident
    worker domains), so per-slot state — a shard's engine sessions —
    is only ever touched by one domain.  {!tabulate} and its maps write
    each result at its index, so a computation run with any job count
    returns the sequential result.

    A pool is {e reentrant}: calling {!run} (or anything built on it)
    from inside a worker of the same pool degrades to executing every
    slot sequentially in the calling domain instead of deadlocking.

    A pool must only be driven from the domain that created it. *)

type t

val create : jobs:int -> t
(** A pool of [jobs] slots backed by at most
    [min jobs (Domain.recommended_domain_count ()) − 1] resident worker
    domains — extra domains beyond the hardware's cores cannot run in
    parallel yet tax every minor collection, so they are never spawned
    and their slots are strided over the live participants instead.
    [jobs = 0] means {!Domain.recommended_domain_count}; [jobs = 1] (or
    any job count on a single-core host) spawns no domains and runs
    everything in the caller.
    @raise Invalid_argument if [jobs < 0]. *)

val jobs : t -> int
(** Number of slots (≥ 1). *)

val sequential : t
(** The shared one-slot pool: no domains, every region runs inline.
    Passing it anywhere [?pool] is accepted runs the sequential
    search.  Never needs {!shutdown}. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; running a region on a pool
    that was shut down raises [Invalid_argument].  {!sequential} and
    single-job pools are unaffected. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], apply, then [shutdown] (also on exceptions). *)

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f 0], …, [f (jobs t − 1)] — [f slot] on slot
    [slot]'s domain — and returns when all have finished.  If several
    slots raise, the exception of the lowest slot is re-raised in the
    caller (deterministically), after every slot has completed. *)

val tabulate : t -> int -> (int -> 'a) -> 'a array
(** [tabulate t n f] is [Array.init n f] with the index range chunked
    over the slots; [f] must tolerate being called from worker domains.
    Order of the result is the index order, regardless of job count. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** {!tabulate} over the elements of an array. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!tabulate} over the elements of a list, preserving order. *)
