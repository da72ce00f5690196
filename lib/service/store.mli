(** The admitted system, as an immutable content-hashed snapshot.

    A snapshot holds the base [.hsc] items the server booted with
    (typically the platform declarations) plus the fragments admitted so
    far, each under a client-chosen unit id, {e together with} everything
    derived from them: the name index of the whole assembly, the
    validated {!Transaction.System.t}, the transaction→instance origin
    map and the content hash of the canonical printed assembly.

    The base and every admitted unit are elaborated, printed and
    derived once, when they enter the store.  A snapshot keeps a
    persistent name index of the whole assembly
    ({!Component.Assembly.index}) next to each part's derived
    transactions, and a candidate shares both with the snapshot it
    comes from: {!admit} checks only what the new unit can break and
    derives only its threads, {!revoke} checks only that no other unit
    uses the revoked one, and both reuse every other part's
    transactions.  Besides the digest of the concatenated texts and the
    flat transaction array handed to the analysis, a candidate costs
    O(unit · log size) — but for the revoke of a unit that declared
    platforms, after which later units are derived again.  A candidate
    the per-unit checks turn down is validated whole, so its
    diagnostics are those of {!Transaction.Derive.derive_with_origins}.
    The hash is the digest of exactly [Spec.to_string (assembly t)].

    Snapshots are pure values: {!admit} and {!revoke} build {e
    candidate} snapshots without touching the original, so the server's
    transactional protocol is commit-by-assignment and rollback-by-
    doing-nothing — a rejected admission provably leaves the store
    bit-identical (asserted by the test suite). *)

type part
(** One piece of the assembly, elaborated, printed and derived once when
    it enters the store. *)

type unit_ = private {
  uid : string;  (** client-chosen admission id *)
  spec : string;  (** the fragment's source text, as received *)
  items : Spec.Ast.item list;  (** its parsed items *)
  part : part;
}

type t = private {
  base : Spec.Ast.item list;
  base_part : part;
  units : unit_ list;  (** admission order *)
  index : Component.Assembly.index;  (** of the whole assembly *)
  sys : Transaction.System.t;
  origins : (string * string) list;
      (** transaction name → originating instance *)
  hash : string;  (** hex digest of the canonical printed assembly *)
}

val boot : Spec.Ast.item list -> (t, string list) result
(** Snapshot of the base items alone (no admitted units).  Fails with
    the elaboration/validation/derivation diagnostics. *)

val admit : t -> uid:string -> spec:string -> (t, string list) result
(** Candidate snapshot with the fragment appended under [uid].  Fails
    on a duplicate id, a parse error, or any elaboration, validation or
    derivation diagnostic — the original snapshot is unaffected either
    way.  The caller decides whether to commit the candidate. *)

val revoke : t -> uid:string -> (t, string list) result
(** Candidate snapshot with the unit removed.  Fails on an unknown id
    or when the removal invalidates the remaining assembly (another
    admitted unit binds into the revoked one, instantiates one of its
    classes or runs on one of its platforms). *)

val assembly : t -> Component.Assembly.t
(** The whole assembly: the base and the units, concatenated in
    admission order.  Built on demand, in time linear in its size. *)

val mem : t -> string -> bool
(** Is a unit admitted under this id? *)

val unit_instances : t -> string -> string list
(** Instance names declared by the unit's fragment ([[]] when the id is
    unknown).  Used to attribute rejection-report violations to the
    candidate. *)

val n_transactions : t -> int

val origin : t -> string -> string option
(** Originating instance of the named transaction. *)

type diff = {
  added : string list;  (** transactions only in the second snapshot *)
  removed : string list;  (** transactions only in the first *)
  changed : string list;
      (** present in both under the same name, with different
          analysis-relevant content *)
  unchanged : string list;  (** present in both, bit-identical inputs *)
}
(** A snapshot-to-snapshot difference over derived transactions, keyed
    by transaction name — which is itself keyed by the originating
    instance ({!origin} maps each name back to the admitted unit), so an
    admit/revoke of one unit surfaces as exactly that unit's
    transactions.  Each list preserves derivation order. *)

val diff : t -> t -> diff
(** [diff before after] compares the derived transaction systems
    structurally: period, deadline, release jitter and the task chains
    (demand, priority, blocking, and the platform {e by name and linear
    bound}, so platform renumbering between snapshots does not count as
    a change).  [diff t t] has everything [unchanged]; an
    admit→revoke→admit round trip restoring the snapshot hash yields an
    empty [added]/[removed]/[changed] (asserted by the test suite).
    This is the store-level view of what {!Analysis.Engine.analyze_delta}
    seeds its dirty frontier from. *)
