(** A pool of OCaml 5 domains for the analysis engine, with a
    work-stealing range scheduler.

    Slot {e identity} is static: slot [s] of a region always executes in
    participant [s mod participants] (the caller plus the resident
    worker domains), which keeps per-slot caches (the interference memo
    of [Analysis.Memo]) single-owner across successive regions.  Index
    {e ranges}, however, migrate: {!run_ranges} seeds one atomic deque
    per slot with the contiguous chunk [\[s·n/slots, (s+1)·n/slots)],
    owners claim halving blocks off the front, and a slot that drains
    its own deque steals the back half of the largest remaining deque
    instead of idling — so a slot whose branch-and-bound chunk was
    pruned away keeps contributing.  Determinism survives because the
    analysis only ever {e joins} range results with associative,
    commutative, idempotent operations (maxima over exact rationals or
    scaled ints) or writes them at their index: the set of indices
    executed is always exactly [\[0, n)], so the join is a pure function
    of the inputs whatever the block geometry.  A computation run with
    any job count returns results bit-identical to the sequential run,
    the property the determinism tests assert (see docs/PERFORMANCE.md
    and the memoization section of docs/THEORY.md).

    A pool is {e reentrant}: calling {!run} (or anything built on it)
    from inside a worker of the same pool degrades to executing every
    slot sequentially in the calling domain instead of deadlocking, so
    nested parallel code (e.g. a design-space sweep whose probes run the
    analysis with the same pool) self-serialises at the inner level.

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
    Passing it anywhere [?pool] is accepted reproduces the sequential
    engine exactly.  Never needs {!shutdown}. *)

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

val slots_for : ?weight:int -> t -> int -> int
(** [slots_for t n] is the number of slots a region of [n] items should
    be split over: at most [jobs t], at most the host's recommended
    domain count (extra slots cannot run in parallel and only pay
    dispatch), and no more than [n·weight / 8] so each woken domain
    amortises the dispatch cost over at least 8 units of work.
    [weight] (default 1) is the caller's per-item cost hint in units of
    the cheapest item worth dispatching for — one scenario's busy
    fixpoints; a region of 3 whole-analysis items (weight in the
    hundreds) parallelises even though [3 < 8], while 7 unit items stay
    inline.  [1] means: run the whole range inline on slot 0 — small
    regions then never pay the domain wake-up, which is what keeps many
    tiny scenario spaces from making [jobs 4] slower than [jobs 1].
    Reductions joined over chunks are associative and commutative in
    the analysis, so the slot count never changes results (asserted by
    the identity tests and bench X9). *)

val run_ranges :
  t -> slots:int -> n:int -> (slot:int -> lo:int -> hi:int -> unit) -> unit
(** [run_ranges t ~slots ~n f] covers the index range [\[0, n)] with
    calls [f ~slot ~lo ~hi], each a half-open sub-range executed on
    [slot]'s loop: every index is covered exactly once, and all calls
    with the same [slot] run sequentially in one domain (so per-slot
    caches need no locks).  Slot [s]'s deque is seeded with the
    contiguous chunk [\[s·n/slots, (s+1)·n/slots)]; its owner claims
    halving blocks off the front, leaving the back stealable, and a
    slot whose deque drains steals the back half of the largest
    remaining deque, re-exposing the loot on its own deque for further
    splitting.  Which slot executes which index therefore depends on
    timing; results must be joined commutatively or written at their
    index (see the determinism argument above).  The pool's {!stats}
    counters record the region's steals, splits and idle slots.
    [slots <= 1] (or [n] of 0) runs inline on slot 0 without touching
    the pool. *)

type stats = { steals : int; splits : int; idle_slots : int }
(** Cumulative scheduler accounting since pool creation: ranges stolen
    from another slot's deque, owner claims that split a range rather
    than exhausting it, and region loops that finished without
    executing a single block ([idle_slots] — on a host with fewer
    cores than slots the surplus loops usually find the deques already
    drained).  Diagnostics only — surfaced as the engine's [pool]
    event and the service's [stats.pool] object — never part of a
    result. *)

val stats : t -> stats
(** Read the counters; safe at any time, exact between regions. *)

val tabulate : t -> int -> (int -> 'a) -> 'a array
(** [tabulate t n f] is [Array.init n f] with the index range chunked
    over the slots; [f] must tolerate being called from worker domains.
    Order of the result is the index order, regardless of job count. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** {!tabulate} over the elements of an array. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!tabulate} over the elements of a list, preserving order. *)

(** A lock-free join cell shared between the slots of a region.

    The cell accumulates the join (e.g. a maximum) of every value
    published to it.  The join must be associative, commutative and
    idempotent on pure data (structural equality is used to cut idle
    CAS retries) — then the cell's final content is a pure function of
    the {e set} of published values, independent of scheduling.  The
    branch-and-bound scenario enumeration ({!Analysis.Rta}) uses one to
    share its running best across chunks: a stale read only prunes
    less, so results stay bit-identical while the pruned work varies
    with timing. *)
module Cell : sig
  type 'a t

  val create : ('a -> 'a -> 'a) -> 'a -> 'a t
  (** [create join init] — [init] must be the join identity (or a value
      every published value absorbs monotonically). *)

  val get : 'a t -> 'a
  (** Current join of everything published so far. *)

  val join : 'a t -> 'a -> unit
  (** Publish a value: [get] afterwards is ≥ (in the join order) both
      the previous content and the published value. *)
end
