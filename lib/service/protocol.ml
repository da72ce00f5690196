module Q = Rational
module Report = Analysis.Report
module Model = Analysis.Model

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request =
  | Admit of { uid : string; spec : string }
  | Revoke of { uid : string }
  | Query
  | What_if of { uid : string; spec : string }
  | Region of { resource : string; precision : int }
  | Stats

(* Region grids have 4^precision cells; beyond 10 bits one request
   could monopolise a shard for minutes, so the parser bounds it the
   way the CLI bounds --grid. *)
let max_region_precision = 10

let default_region_precision = 5

let max_line_bytes = 1 lsl 20

type envelope = {
  seq : int;
  arrival : float;
  deadline_ms : float option;
  tenant : string option;
      (* as received on the wire; [None] is the default tenant and keeps
         the response byte-identical to the pre-tenant protocol *)
  req : request;
}

let op_name = function
  | Admit _ -> "admit"
  | Revoke _ -> "revoke"
  | Query -> "query"
  | What_if _ -> "what_if"
  | Region _ -> "region"
  | Stats -> "stats"

let parse line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> (
      let deadline = Json.float_field "deadline_ms" j in
      let deadline =
        match deadline with
        | Some d when d < 0. -> None (* a negative deadline is no deadline *)
        | d -> d
      in
      let tenant =
        match Json.member "tenant" j with
        | None -> Ok None
        | Some (Json.String s) -> Ok (Some s)
        | Some _ -> Error "field \"tenant\" must be a string"
      in
      let field name =
        match Json.string_field name j with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "missing string field %S" name)
      in
      let req =
        match Json.string_field "op" j with
        | None -> Error "missing string field \"op\""
        | Some "admit" ->
            Result.bind (field "id") (fun uid ->
                Result.map (fun spec -> Admit { uid; spec }) (field "spec"))
        | Some "revoke" -> Result.map (fun uid -> Revoke { uid }) (field "id")
        | Some "query" -> Ok Query
        | Some "what_if" ->
            let uid =
              Option.value (Json.string_field "id" j) ~default:"probe"
            in
            Result.map (fun spec -> What_if { uid; spec }) (field "spec")
        | Some "region" ->
            Result.bind (field "resource") (fun resource ->
                match Json.member "precision" j with
                | None ->
                    Ok (Region { resource; precision = default_region_precision })
                | Some (Json.Int p) when p >= 1 && p <= max_region_precision ->
                    Ok (Region { resource; precision = p })
                | Some _ ->
                    Error
                      (Printf.sprintf
                         "field \"precision\" must be an integer in [1, %d]"
                         max_region_precision))
        | Some "stats" -> Ok Stats
        | Some op -> Error (Printf.sprintf "unknown op %S" op)
      in
      match (req, tenant) with
      | Error e, _ | _, Error e -> Error e
      | Ok r, Ok tenant -> Ok (r, deadline, tenant))

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

type task_bound = {
  txn : string;
  task : string;
  response : Report.bound;
  deadline : Q.t;
}

type violation = {
  v_txn : string;
  v_task : string;
  v_response : Report.bound;
  v_deadline : Q.t;
  v_margin : Q.t option;
  v_origin : string option;
}

type summary = {
  s_hash : string;
  s_schedulable : bool;
  s_converged : bool;
  s_iterations : int;
  s_bounds : task_bound list;
  s_violations : violation list;
}

(* The cacheable outcome of one region computation: cell statistics,
   the membership verdict at the platform's current parameters and the
   Pareto frontier vertices (exact rationals as strings, like every
   other analysis quantity on the wire). *)
type region_summary = {
  r_hash : string;
  r_platform : string;
  r_precision : int;
  r_schedulable : bool;
  r_cells : int;
  r_feasible : int;
  r_infeasible : int;
  r_boundary : int;
  r_refined : int;
  r_probes : int;
  r_frontier : (Q.t * Q.t) list;
}

let bound_to_string = function
  | Report.Divergent -> "inf"
  | Report.Finite r -> Q.to_string r

let summarize ~(store : Store.t) ~(model : Model.t) (report : Report.t) =
  let bounds = ref [] and violations = ref [] in
  Array.iteri
    (fun a (tx : Model.txn) ->
      let last = Array.length tx.Model.tasks - 1 in
      Array.iteri
        (fun b (tk : Model.task) ->
          let response = report.Report.results.(a).(b).Report.response in
          bounds :=
            {
              txn = tx.Model.tname;
              task = tk.Model.name;
              response;
              deadline = tx.Model.deadline;
            }
            :: !bounds;
          if b = last && not (Report.bound_le response tx.Model.deadline) then
            violations :=
              {
                v_txn = tx.Model.tname;
                v_task = tk.Model.name;
                v_response = response;
                v_deadline = tx.Model.deadline;
                v_margin =
                  (match response with
                  | Report.Divergent -> None
                  | Report.Finite r -> Some Q.(r - tx.Model.deadline));
                v_origin = Store.origin store tx.Model.tname;
              }
              :: !violations)
        tx.Model.tasks)
    model.Model.txns;
  {
    s_hash = store.Store.hash;
    s_schedulable = report.Report.schedulable;
    s_converged = report.Report.converged;
    s_iterations = report.Report.outer_iterations;
    s_bounds = List.rev !bounds;
    s_violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

(* The tenant field, when the request carried one, sits right after
   [op]; requests without it keep the exact pre-tenant response bytes. *)
let head ?tenant seq op =
  [ ("seq", Json.Int seq); ("op", Json.String op) ]
  @ match tenant with None -> [] | Some t -> [ ("tenant", Json.String t) ]

let bound_json b = Json.String (bound_to_string b)

let violation_json ~candidate_instances v =
  let from_candidate =
    match v.v_origin with
    | Some inst -> List.mem inst candidate_instances
    | None -> false
  in
  Json.Obj
    [
      ("transaction", Json.String v.v_txn);
      ("task", Json.String v.v_task);
      ("response", bound_json v.v_response);
      ("deadline", Json.String (Q.to_string v.v_deadline));
      ( "margin",
        match v.v_margin with
        | None -> Json.Null
        | Some m -> Json.String (Q.to_string m) );
      ( "origin",
        match v.v_origin with None -> Json.Null | Some o -> Json.String o );
      ("from_candidate", Json.Bool from_candidate);
    ]

let violations_json ?(candidate_instances = []) vs =
  Json.List (List.map (violation_json ~candidate_instances) vs)

let bounds_json s =
  Json.List
    (List.map
       (fun b ->
         Json.Obj
           [
             ("transaction", Json.String b.txn);
             ("task", Json.String b.task);
             ("response", bound_json b.response);
             ("deadline", Json.String (Q.to_string b.deadline));
             ("meets", Json.Bool (Report.bound_le b.response b.deadline));
           ])
       s.s_bounds)

let committed_body ~status ~uid ~txns ~cached s =
  Json.Obj
    ([
       ("id", Json.String uid);
       ("status", Json.String status);
       ("hash", Json.String s.s_hash);
       ("transactions", Json.Int txns);
       ("schedulable", Json.Bool s.s_schedulable);
       ("iterations", Json.Int s.s_iterations);
       ("cached", Json.Bool cached);
     ]
    @
    if s.s_violations = [] then []
    else [ ("violations", violations_json s.s_violations) ])

let with_head ?tenant seq op = function
  | Json.Obj fields -> Json.Obj (head ?tenant seq op @ fields)
  | j -> j

let admitted ?tenant ~seq ~uid ~txns ~cached s =
  with_head ?tenant seq "admit"
    (committed_body ~status:"admitted" ~uid ~txns ~cached s)

let revoked ?tenant ~seq ~uid ~txns ~cached s =
  with_head ?tenant seq "revoke"
    (committed_body ~status:"revoked" ~uid ~txns ~cached s)

let rejected ?tenant ~seq ~op ~uid ~reason ?errors ?violations
    ?candidate_instances ~hash () =
  Json.Obj
    (head ?tenant seq op
    @ [
        ("id", Json.String uid);
        ("status", Json.String "rejected");
        ("reason", Json.String reason);
        ("hash", Json.String hash);
      ]
    @ (match errors with
      | None -> []
      | Some es ->
          [ ("errors", Json.List (List.map (fun e -> Json.String e) es)) ])
    @
    match violations with
    | None -> []
    | Some vs -> [ ("violations", violations_json ?candidate_instances vs) ])

let query_ok ?tenant ~seq ~cached s =
  Json.Obj
    (head ?tenant seq "query"
    @ [
        ("status", Json.String "ok");
        ("hash", Json.String s.s_hash);
        ("schedulable", Json.Bool s.s_schedulable);
        ("converged", Json.Bool s.s_converged);
        ("iterations", Json.Int s.s_iterations);
        ("cached", Json.Bool cached);
        ("bounds", bounds_json s);
      ]
    @
    if s.s_violations = [] then []
    else [ ("violations", violations_json s.s_violations) ])

let what_if_ok ?tenant ~seq ~uid ~cached ~candidate_instances s =
  Json.Obj
    (head ?tenant seq "what_if"
    @ [
        ("id", Json.String uid);
        ("status", Json.String "ok");
        ("hash", Json.String s.s_hash);
        ("schedulable", Json.Bool s.s_schedulable);
        ("iterations", Json.Int s.s_iterations);
        ("cached", Json.Bool cached);
      ]
    @
    if s.s_violations = [] then []
    else
      [ ("violations", violations_json ~candidate_instances s.s_violations) ])

let region_ok ?tenant ~seq ~cached r =
  Json.Obj
    (head ?tenant seq "region"
    @ [
        ("status", Json.String "ok");
        ("hash", Json.String r.r_hash);
        ("platform", Json.String r.r_platform);
        ("precision", Json.Int r.r_precision);
        ("schedulable", Json.Bool r.r_schedulable);
        ("cells", Json.Int r.r_cells);
        ("feasible", Json.Int r.r_feasible);
        ("infeasible", Json.Int r.r_infeasible);
        ("boundary", Json.Int r.r_boundary);
        ("refined", Json.Int r.r_refined);
        ("probes", Json.Int r.r_probes);
        ("cached", Json.Bool cached);
        ( "frontier",
          Json.List
            (List.map
               (fun (a, d) ->
                 Json.Obj
                   [
                     ("alpha", Json.String (Q.to_string a));
                     ("delta", Json.String (Q.to_string d));
                   ])
               r.r_frontier) );
      ])

let shed ?tenant ~seq ~op ~reason () =
  Json.Obj
    (head ?tenant seq op
    @ [ ("status", Json.String "shed"); ("reason", Json.String reason) ])

let error ~seq ~op ~msg =
  Json.Obj
    (head seq op
    @ [ ("status", Json.String "error"); ("error", Json.String msg) ])
