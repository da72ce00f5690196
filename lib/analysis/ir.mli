(** Compiled analysis IR — the static skeleton of a {!Model.t}.

    Interference participant sets (Eq. 17), the mixed-radix layout of
    the exact scenario space (Eq. 12) and the rows each site reads in
    the outer fixed point are pure functions of task placement and
    priorities.  {!compile} keeps only that shape and, per platform,
    the tasks it hosts; each {!site} is built from its own platform's
    list the first time an analysis asks for it.  A change confined to
    one platform therefore costs O(tasks on that platform), not
    O(tasks × transactions).

    The IR never reads demands, periods, platform bounds, offsets or
    jitters, so one IR serves every model that shares the placement
    structure — the property design-space probes exploit through
    {!Engine.with_model} (see {!compatible}). *)

val hp : Model.t -> i:int -> a:int -> b:int -> int list
(** Indices of the tasks of transaction [i] that can interfere with task
    [(a, b)]: same platform and priority at least [prio (a, b)] (Eq. 17).
    The task under analysis itself is excluded — its own jobs enter the
    recurrences through the dedicated [(p - p0 + 1)] term. *)

type remote = {
  txn : int;  (** remote transaction index [i] *)
  choices : int array;  (** its interfering tasks — the digit values of
                            the mixed-radix scenario index *)
  hp_list : int list;  (** the same set as a list, in {!hp} order, for
                           kernel compilation *)
}

type site = {
  a : int;
  b : int;
  own_hp : int list;
      (** interfering tasks of the own transaction (Eq. 17) *)
  own : int list;  (** [own_hp @ [b]]: the own-transaction initiators *)
  remotes : remote array;
      (** remote transactions with interfering tasks, ascending index *)
  stride : int array;
      (** mixed-radix strides; [stride.(Array.length remotes)] is the
          size of the remote scenario space *)
  total : int;  (** the remote scenario count [Π |choices|] *)
}
(** Everything the site response-time analysis ({!Fixpoint}) needs
    about one task under analysis.  The response of [(a, b)] reads the
    offset and jitter rows of [a] and of every transaction in
    [remotes], and no others. *)

type t

val compile : Model.t -> t
(** The per-task (resource, priority) shape and the per-platform task
    lists: O(tasks).  No site is built yet. *)

val site : t -> a:int -> b:int -> site
(** The site of task [(a, b)], built on first use from its platform's
    task list — O(tasks on that platform) — and kept in the IR.  Safe
    to call from several domains at once: racing callers build and
    store equal immutable sites. *)

val n_txns : t -> int

val n_tasks : t -> int
(** Total task count across all transactions. *)

val exact_scenarios : t -> int
(** Σ over sites of (own initiators × remote scenarios) — the size of
    the space the exact variant examines, as reported by session
    compilation events.  Builds every site. *)

val timebase : Model.t -> horizon_factor:int -> int Timebase.t option
(** The value-dependent half of session compilation: the scaled-int
    constant tables of the {!Fixpoint.Scaled} instance
    ({!Timebase.of_model}).
    Kept outside {!t} on purpose — the IR is shared across every
    {!compatible} model precisely because it never reads the numeric
    constants the timebase is made of, so {!Engine} compiles and rebinds
    the two independently. *)

val compatible : t -> Model.t -> bool
(** [compatible t m] iff [m] has the same transaction/task shape and
    identical per-task (resource, priority) assignment as the model the
    IR was compiled from — the exact condition under which every site
    of [t] is valid for [m].  Demands, periods, deadlines, bounds,
    blocking and jitter may all differ.  Allocation-free; stops at the
    first difference. *)

val stale : t -> dirty:bool array -> a:int -> b:int -> bool
(** [stale t ~dirty ~a ~b] iff the response of [(a, b)] reads a
    transaction row marked in [dirty]: row [a] itself, or a row with a
    task on the site's platform at priority at least the site's
    (Eq. 17).  Partially applied to [~dirty] it costs one pass over the
    tasks of the dirty rows, after which each query is O(1) and builds
    no site.  [dirty] must have length {!n_txns}. *)

val dirty_closure : t -> seed:bool array -> bool array
(** Transitive closure of a per-transaction dirty seed under {!stale}:
    the result marks [a] dirty whenever some site of transaction [a]
    reads the jitter/offset row of a (transitively) dirty transaction.
    The clean complement is therefore a {e closed} subsystem — no clean
    site reads a dirty row — which is the condition under which
    {!Engine.analyze_delta} may pin clean rows at their previously
    converged values and iterate only the dirty frontier (the warm
    fixed-point argument of docs/INCREMENTAL.md).  O(tasks) per round.
    [seed] must have length {!n_txns}. *)
