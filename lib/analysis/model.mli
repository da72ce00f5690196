(** Flattened, analysis-oriented view of a {!Transaction.System}.

    The analysis addresses tasks by transaction index [a] and position
    [b]; this module precomputes the per-task platform bounds so the inner
    fixed-point loops touch plain arrays only.  Optional per-task blocking
    terms B{_a,b} (for non-preemptable sections; the paper carries them in
    Eq. 13 without instantiating them) and per-transaction external
    release jitter (sporadic arrival jitter of the first task) extend the
    plain paper model and default to zero. *)

type task = {
  name : string;
  c : Rational.t;  (** worst-case demand, cycles *)
  cb : Rational.t;  (** best-case demand, cycles *)
  res : int;  (** platform index, the mapping variable s{_i,j} *)
  prio : int;  (** greater is higher *)
}

type txn = {
  tname : string;
  period : Rational.t;
  deadline : Rational.t;
  tasks : task array;
}

type t = {
  bounds : Platform.Linear_bound.t array;  (** per platform *)
  txns : txn array;
  blocking : Rational.t array array;  (** B{_a,b}; zero by default *)
  release_jitter : Rational.t array;  (** external jitter of τ{_i,1} *)
}

val of_system :
  ?blocking:(string * Rational.t) list ->
  ?release_jitter:(string * Rational.t) list ->
  Transaction.System.t ->
  t
(** Blocking terms and release jitters annotated on the system's tasks
    and transactions are carried over; [blocking] (task name -> term) and
    [release_jitter] (transaction name -> jitter) override them.
    @raise Invalid_argument on an unknown task or transaction name, or a
    negative value. *)

val make :
  bounds:Platform.Linear_bound.t list ->
  ?blocking:(string * Rational.t) list ->
  ?release_jitter:(string * Rational.t) list ->
  txn list ->
  t
(** Direct construction for synthetic systems; validates resource
    indices, demand ordering ([0 <= cb <= c], [c > 0]) and positive
    periods, deadlines and priorities. *)

val n_txns : t -> int

val n_tasks : t -> int -> int

val task : t -> int -> int -> task

val bound_of : t -> task -> Platform.Linear_bound.t

val alpha : t -> task -> Rational.t

val delta : t -> task -> Rational.t

val beta : t -> task -> Rational.t

val scaled_wcet : t -> task -> Rational.t
(** [c / α] of the task's platform. *)

val find_task : t -> string -> (int * int) option

val find_txn : t -> string -> int option
(** Index of the first transaction with this name — the index
    {!Engine.with_model} and {!Engine.Delta.plan} align a transaction
    with when two models do not share their transaction array
    (admission changes the transaction count, so positional indices do
    not transfer). *)
