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
(** Name-indexed lookups over one assembly.  Build it once per pass: a
    lookup is O(1) where a scan of the lists is O(n).  The first
    occurrence of a name wins, as a scan would find it. *)

val index : t -> index

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

val validate_indexed : index -> (unit, string list) result
(** {!validate} of the indexed assembly, reusing the index. *)

val call_graph : t -> (string * string) list
(** Instance-level call edges (caller instance, callee instance). *)

val pp : Format.formatter -> t -> unit
