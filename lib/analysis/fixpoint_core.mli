(* The interface of the fixed-point core (fixpoint_core.ml), written
   once over a numeric timeline [N] ({!Timeline.S}).  Like the core, it
   is not a module of the library: the build writes it into the
   interface of each per-domain unit, behind the declaration of that
   domain's [N] (see dune).  {!Fixpoint} documents the two instances. *)

type num = N.t

(** {1 Demand kernels} *)

type skeleton
(** The value-independent half of the demand curves of one
    interfering transaction: task indices, period and costs. *)

val skeleton : num Timebase.t -> i:int -> hp_list:int list -> skeleton

val lead :
  num -> phi_row:num array -> jit_row:num array -> int -> num
(** [lead period ~phi_row ~jit_row k] is (φ{_i,k} mod T) + J{_i,k}. *)

val phase : num -> lead:num -> num -> num
(** [phase period ~lead φ{_i,j}] is ϕ{^k}{_i,j} (Eq. 10). *)

val delayed : num -> jitter:num -> phase:num -> int
(** [delayed period ~jitter ~phase] is ⌊(J + ϕ)/T⌋ (Eq. 8). *)

val compile :
  skeleton -> phi:num array array -> jit:num array array -> k:int ->
  num Timeline.kernel
(** The curve of the scenario where τ{_i,k} initiates, against the
    current offsets and jitters. *)

(** {1 Fixed points} *)

val fixpoint : horizon:num -> (num -> num) -> num -> num option
(** Least fixed point from [w0], [None] past [horizon]. *)

val best_simple : num Timebase.t -> num array array

val best_refined :
  num Timebase.t -> Ir.t -> jit:num array array -> num array array

type tables
(** A session's timebase plus its per-site skeletons, flattened on
    first use. *)

val tables : Ir.t -> num Timebase.t -> tables

val timebase : tables -> num Timebase.t

type bound = Finite of num | Divergent

type start = { mutable floor : num; mutable hint : int }
(** Where the exact branch and bound of one site starts: [floor], its
    initial incumbent ([N.zero]: none), and [hint], the scenario index
    it evaluates first (in [\[0, site.total)]; [-1]: none, the search
    then seeds with the scenario of maximal demand at the horizon).
    The search leaves the scenario that attained its result in [hint]
    (unchanged when none beat the floor). *)

val response_time :
  counters:Rta.counters ->
  ?start:start ->
  tables ->
  Ir.site ->
  Params.t ->
  phi:num array array ->
  jit:num array array ->
  bound
(** The response bound of one site under the given offsets and
    jitters (Eqs. 12–16, under [params]' variant and pruning): what a
    sweep of {!analyze} computes for each site it does not carry.
    [start] is read by the exact branch and bound only (the [Reduced]
    variant and the [prune = false] enumeration ignore it).  Its hint
    is evaluated after the root block's bound, and only when that bound
    converged; the result is the exhaustive maximum whatever the hint,
    and whenever [start.floor] is at most that maximum — a larger floor
    would be returned as is. *)

type lifted

val lift : tables -> Timeline.warm -> lifted
(** The warm start on this timeline, in fresh arrays that {!analyze}
    takes over (a [lifted] value serves one run).
    @raise Rational.Overflow when a value is off the lattice. *)

val analyze :
  params:Params.t ->
  counters:Rta.counters ->
  sweep:(iteration:int -> recomputed:int -> carried:int -> unit) ->
  tables ->
  warm:lifted option ->
  Report.t
(** The holistic analysis: outer Jacobi sweeps on the jitters, each
    recomputing the response of every task that reads a changed row
    ({!Ir.stale}) and carrying the others forward, until the jitters
    repeat, a response diverges, some transaction misses its deadline
    (under the simple best case, whose responses grow monotonically:
    the verdict is settled, the report has [converged = false]) or
    256 sweeps have run.  Under the exact variant with pruning, a
    site's recomputation starts its branch and bound from its previous
    computation in the same run ({!start}): the scenario that attained
    it as hint, in every run, and its response as floor under the
    Simple best case, except in seeded runs ([Timeline.warm.floor]),
    whose iterates are not shown to grow.  Nothing of this state
    outlives the run, and reports are the cold search's bit for bit
    (docs/THEORY.md).  [sweep] is called after each sweep;
    [counters] is bumped with the scenario accounting.  A warm start's
    clean rows are never recomputed, and their report entries are the
    warm start's [rows] as given: such a row keeps its carried
    responses and jitters, and under the Simple best case its offsets
    and best cases read only its own constants.  Runs on the calling
    domain.
    @raise Rational.Overflow when an operation leaves the domain. *)
