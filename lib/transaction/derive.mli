(** Deriving transactions from a component assembly (Section 2.4).

    Every periodic thread originates a transaction.  Walking the thread
    body in order, each local task becomes a transaction task on the
    component's platform with the thread's priority; each synchronous call
    is resolved through the bindings and splices in, recursively, the
    tasks of the realizing thread of the callee (with {e that} thread's
    priority and platform).  A call across nodes additionally contributes
    a request message task — and, if the link declares one, a reply
    message task — on the network platform.

    Provided methods that no component of the assembly calls are assumed
    to be driven by the environment at their declared MIT: each such
    method originates a sporadic transaction of its own (this is how the
    paper's Γ4 arises from [Integrator.read()]). *)

val derive : Component.Assembly.t -> (System.t, string list) result
(** Validates the assembly first and propagates its diagnostics; on a
    valid assembly the derivation always succeeds (the RPC call graph is
    acyclic by validation). *)

val derive_with_origins :
  Component.Assembly.t -> (System.t * (string * string) list, string list) result
(** {!derive}, additionally returning the provenance alist mapping each
    transaction name to the instance whose thread originates it (one
    entry per transaction, in transaction order).  The admission-control
    service uses it to attribute schedulability violations to the
    architecture unit that introduced the offending transaction. *)

val derive_exn : Component.Assembly.t -> System.t
(** @raise Invalid_argument with the concatenated diagnostics. *)

(** {2 One part at a time}

    A part's transactions depend only on its own instances and on what
    they call, so an assembly grown one part at a time (the admitted
    units of {!Service.Store}) derives each part once, against the
    index of the assembly it joins, and keeps the result. *)

type derived = {
  txn : Txn.t;
  origin : string;  (** the instance whose thread originates it *)
  sporadic : (string * string) option;
      (** [Some (instance, method)] for the transaction a provided
          method originates: it exists only while no instance calls the
          method ({!live}) *)
}

val part : Component.Assembly.index -> Component.Assembly.t -> derived list
(** Every transaction the instances of the part can originate, called
    or not, in derivation order: per instance, its periodic threads,
    then its provided methods.  The index must index a valid assembly
    that contains the part. *)

val live : Component.Assembly.index -> derived -> bool
(** Is the transaction part of the derived system: periodic, or a
    provided method nobody calls? *)

val system :
  resources:Platform.Resource.t list ->
  derived list ->
  System.t * (string * string) list
(** The system of the given transactions, in order, and its provenance
    alist, as {!derive_with_origins} returns them. *)
