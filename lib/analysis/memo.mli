(** Memoisation of the interference terms across the Jacobi sweeps of
    the holistic analysis.

    One outer iteration of {!Engine.analyze} evaluates the demand
    functions W{^k}{_i}(τ{_a,b}, t) (Eqs. 7–11, 15, 17) at every point
    the busy-period fixed points visit; the next sweep re-evaluates most
    of them with {e identical} arguments, because only some jitter rows
    changed.  For a fixed pair ((a,b), (i,k)) the value of
    W{^k}{_i}(τ{_a,b}, t) depends on the model constants and on the
    slices [jit.(i)] and [phi.(i)] only, so a cache entry keyed by
    [(i, k)] and signed with a copy of those two rows can replay every
    previously computed [(t, W)] pair for free and is invalidated the
    moment its row signature changes.  Memoised values are exact values
    that a recomputation would reproduce bit-for-bit, so the memo cannot
    change the least fixed point — see the memoisation section of
    docs/THEORY.md for the argument.

    Only exact rationals memoise.  Each timeline fixes its own cutoff
    ({!Timeline.S.memo_min_terms}): on exact rationals, demand curves
    of at least {!min_terms} interfering tasks go through the memo and
    shorter ones are evaluated directly; on the integer timeline an
    evaluation is cheaper than a cache probe, so it never memoises and
    never allocates a cache.  This module is the view of the exact
    instance's memo, for tests.  Caches are partitioned per task under
    analysis, and entries stay warm across sweeps.  An analysis runs on
    the domain that calls it, so a memo is never shared between domains
    and needs no locking. *)

type t = Fixpoint.Exact.memo

type cache = Fixpoint.Exact.cache
(** The caches of one task under analysis. *)

val create : Model.t -> t
(** Fresh memo.  Per-task caches are allocated lazily on first {!cache}
    access, so creation stays O(tasks) pointers. *)

val cache : t -> a:int -> b:int -> cache
(** The cache of task [(a, b)]. *)

val min_terms : int
(** Smallest interfering-set size worth memoising on exact rationals
    ([Fixpoint.Exact.N.memo_min_terms]).  Kernels with fewer terms are
    evaluated directly: a cache probe costs about as much as the
    evaluation itself. *)

val w_star :
  cache ->
  Model.t ->
  phi:Rational.t array array ->
  jit:Rational.t array array ->
  i:int ->
  hp_list:int list ->
  t:Rational.t ->
  Rational.t
(** Memoised {!Interference.w_star} for the cache's task under
    analysis: identical value, each W{^k}{_i} computed at most once per
    (jitter/offset row state of transaction [i], [t]). *)

type stats = Timeline.memo_stats = {
  hits : int;
  misses : int;
  invalidations : int;
}

val stats : t -> stats
(** Aggregate lookup statistics over every cache, for benchmarks and
    tests. *)
