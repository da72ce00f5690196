(** System architecture: component instances, interface bindings and
    platform allocation (Sections 2.2.1 and 2.3).

    An assembly connects required interfaces to provided interfaces and
    places every component instance on a dedicated abstract computing
    platform.  When caller and callee live on different computational
    nodes, the binding carries a {!link}: the RPC then costs a request
    message (and optionally a reply message) scheduled on a network
    platform, exactly as the paper prescribes ("the network is similar to
    a computational node and messages are scheduled according to the
    network scheduling policy"). *)

type link = {
  network : string;  (** name of a {!Platform.Resource.kind} Network platform *)
  priority : int;  (** message priority on the network *)
  request : Rational.t * Rational.t;  (** request message (wcet, bcet) *)
  reply : (Rational.t * Rational.t) option;
      (** reply message (wcet, bcet); [None] for one-way notification of
          completion folded into the request *)
}

type binding = {
  caller : string;  (** calling instance *)
  required : string;  (** method of the caller's required interface *)
  callee : string;  (** serving instance *)
  provided : string;  (** method of the callee's provided interface *)
  via : link option;  (** [None] when both instances share a node *)
}

type instance = { iname : string; cls : string }

type t = {
  classes : Comp.t list;
  resources : Platform.Resource.t list;
  instances : instance list;
  bindings : binding list;
  allocation : (string * string) list;  (** instance name -> resource name *)
}

val make :
  classes:Comp.t list ->
  resources:Platform.Resource.t list ->
  instances:instance list ->
  bindings:binding list ->
  allocation:(string * string) list ->
  t
(** Builds the assembly; no validation beyond basic construction.  Run
    {!validate} to obtain the full diagnosis. *)

val concat : t list -> t
(** The assembly of all the parts, each list in part order: the whole
    of a system described in several independently elaborated pieces. *)

type index
(** Name-indexed lookups over an assembly, persistent: {!extend} and
    the per-part checks below return a new index that shares all but
    O(part · log n) of its nodes with the old one, which stays valid.
    The first occurrence of a name wins, as a scan would find it. *)

val empty : index

val index : t -> index
(** [extend empty t]. *)

val extend : index -> t -> index
(** The index of the concatenation of the indexed assembly and the
    given part, without any check.  The resource indices of the part's
    platforms follow those already indexed. *)

val class_of : index -> string -> Comp.t
(** Class of the named instance.  @raise Not_found if unknown. *)

val resource_of : index -> string -> Platform.Resource.t
(** Platform the named instance is allocated to.
    @raise Not_found if unknown or unallocated. *)

val resource_index : index -> string -> int
(** Index of the named resource in [resources].  @raise Not_found. *)

val binding_for : index -> caller:string -> required:string -> binding option
(** The binding serving the given required method of the given caller. *)

val callers : index -> callee:string -> provided:string -> binding list
(** The bindings into the given provided method of the given instance,
    in binding order. *)

val called : index -> callee:string -> provided:string -> bool
(** [callers] is not empty; O(log n). *)

val validate : t -> (unit, string list) result
(** Full static validation.  Checks, among others:
    - unique class, instance and resource names; instances of known
      classes; allocation onto existing CPU platforms;
    - every required method of every instance bound exactly once, to an
      existing provided method of an existing instance;
    - bindings between instances on different platforms carry a link, and
      links name existing Network platforms;
    - MIT compatibility per binding (caller promises calls no more
      frequent than the callee tolerates) and per provided method
      (aggregate rate of all callers within the method's MIT);
    - every periodic thread calls each method no more often than the MIT
      declared in its required interface;
    - the instance-level call graph is acyclic (synchronous RPC cycles
      deadlock and make transaction derivation diverge).

    Returns all diagnostics, not just the first. *)

val validate_indexed : index -> t -> (unit, string list) result
(** [validate_indexed (index t) t] is {!validate} [t], reusing the
    index. *)

(** {2 One part at a time}

    An assembly grown and shrunk one part at a time (the admitted units
    of {!Service.Store}), checked at the cost of the part alone.  Both
    functions take the index of a {e valid} assembly whose parts each
    allocate exactly their own instances, in declaration order (as
    {!Spec.Elaborate.assembly} builds them), and return [Some] index of
    the changed assembly only when that assembly is valid too.  [None]
    means it may not be: {!validate} of the changed assembly gives the
    diagnostics (or, should a check here be stricter than {!validate},
    accepts it). *)

val admit : index -> t -> index option
(** Appends the part after checking only what it can break: its own
    names, allocations, bindings, MITs and threads, the aggregate call
    rate of every method it calls, and cycles through its own
    instances. *)

val revoke : index -> t -> index option
(** Removes one of the indexed parts after checking that no other part
    uses its classes, instances or platforms (and recomputing the call
    rates of the methods it called).  The platforms of later parts move
    down by the part's platform count. *)

val call_graph : t -> (string * string) list
(** Instance-level call edges (caller instance, callee instance). *)

val pp : Format.formatter -> t -> unit
