(** The admission-control wire protocol: JSON-lines requests and
    responses, plus the analysis summary they transport.

    One request per line on the way in, one response object per line on
    the way out, tagged with the request's sequence number.  The full
    field-by-field reference lives in docs/SERVICE.md; this module is
    the single place the shapes are produced and consumed, so the
    document and the code cannot drift apart silently. *)

(** {1 Requests} *)

type request =
  | Admit of { uid : string; spec : string }
      (** Admit the [.hsc] fragment [spec] under id [uid]: derive,
          analyze, commit iff schedulable. *)
  | Revoke of { uid : string }
      (** Remove the unit; rejected when other admitted units bind into
          it. *)
  | Query  (** Analysis of the currently admitted system. *)
  | What_if of { uid : string; spec : string }
      (** Trial admission: analyzed exactly like {!Admit} but never
          committed.  First to be shed under overload. *)
  | Region of { resource : string; precision : int }
      (** The named platform's exact (α, Δ) schedulability region over
          the tenant's current store ({!Regions.Cell}), with its Pareto
          supply frontier.  Read-only; cached per tenant on the store
          hash; shed together with {!What_if} under overload. *)
  | Stats  (** Service metrics; never sheds. *)

val max_region_precision : int
(** 10 — parse-time bound on the [precision] field (grids are
    4{^precision} cells). *)

val default_region_precision : int
(** 5 — the [precision] used when the request omits the field. *)

val max_line_bytes : int
(** 1 MiB — the longest request line {!Server.run} reads.  A longer
    line is discarded up to its newline and answered with an
    ["invalid"] error. *)

type envelope = {
  seq : int;  (** assigned in arrival order; echoed in the response *)
  arrival : float;  (** {!Unix.gettimeofday} at read time *)
  deadline_ms : float option;
      (** optional per-request deadline, relative to [arrival]; an
          expired request is shed instead of processed *)
  tenant : string option;
      (** optional [tenant] wire field; [None] (or the empty string) is
          the default tenant and leaves the response byte-identical to
          the pre-tenant protocol *)
  req : request;
}

val op_name : request -> string

val parse : string -> (request * float option * string option, string) result
(** Parse one request line into the request, its optional [deadline_ms]
    and its optional [tenant]. *)

(** {1 Analysis summaries}

    The cacheable outcome of analyzing one store snapshot: the verdict,
    the per-task response bounds (exact rationals, rendered with
    {!Rational.to_string} — bit-identical to [hsched analyze --csv] of
    the same system), and the end-to-end violations when not
    schedulable. *)

type task_bound = {
  txn : string;
  task : string;
  response : Analysis.Report.bound;
  deadline : Rational.t;
}

type violation = {
  v_txn : string;  (** transaction whose end-to-end deadline is missed *)
  v_task : string;  (** its last task *)
  v_response : Analysis.Report.bound;
  v_deadline : Rational.t;
  v_margin : Rational.t option;
      (** overshoot [R − D]; [None] when the response diverged *)
  v_origin : string option;  (** instance originating the transaction *)
}

type summary = {
  s_hash : string;  (** hash of the snapshot this summarizes *)
  s_schedulable : bool;
  s_converged : bool;
  s_iterations : int;
  s_bounds : task_bound list;  (** every task, report order *)
  s_violations : violation list;
}

val summarize : store:Store.t -> model:Analysis.Model.t -> Analysis.Report.t -> summary
(** [model] must be the model the report was computed from (it supplies
    the task names). *)

type region_summary = {
  r_hash : string;  (** hash of the snapshot the region was built on *)
  r_platform : string;
  r_precision : int;
  r_schedulable : bool;
      (** membership of the platform's current (α, Δ) point *)
  r_cells : int;
  r_feasible : int;
  r_infeasible : int;
  r_boundary : int;
  r_refined : int;
  r_probes : int;
  r_frontier : (Rational.t * Rational.t) list;
      (** Pareto staircase vertices, α ascending *)
}
(** The cacheable outcome of one [region] request. *)

(** {1 Responses}

    Builders for every response shape.  [candidate_instances] marks
    which violations originate from the unit under admission
    ([from_candidate] in the JSON).  [tenant] echoes the request's
    tenant field right after [op]; omitted when the request carried
    none, so default-tenant traffic keeps its exact historical bytes. *)

val head : ?tenant:string -> int -> string -> (string * Json.t) list
(** [head ?tenant seq op] — the common response prefix, exposed for the
    fleet's [stats] renderer. *)

val admitted :
  ?tenant:string ->
  seq:int ->
  uid:string ->
  txns:int ->
  cached:bool ->
  summary ->
  Json.t

val revoked :
  ?tenant:string ->
  seq:int ->
  uid:string ->
  txns:int ->
  cached:bool ->
  summary ->
  Json.t

val rejected :
  ?tenant:string ->
  seq:int ->
  op:string ->
  uid:string ->
  reason:string ->
  ?errors:string list ->
  ?violations:violation list ->
  ?candidate_instances:string list ->
  hash:string ->
  unit ->
  Json.t

val query_ok : ?tenant:string -> seq:int -> cached:bool -> summary -> Json.t

val what_if_ok :
  ?tenant:string ->
  seq:int ->
  uid:string ->
  cached:bool ->
  candidate_instances:string list ->
  summary ->
  Json.t

val region_ok :
  ?tenant:string -> seq:int -> cached:bool -> region_summary -> Json.t

val shed :
  ?tenant:string -> seq:int -> op:string -> reason:string -> unit -> Json.t

val error : seq:int -> op:string -> msg:string -> Json.t

val bound_to_string : Analysis.Report.bound -> string
(** ["inf"] for divergent bounds, {!Rational.to_string} otherwise —
    the exact strings [hsched analyze --csv] prints. *)
