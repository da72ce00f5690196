module Q = Rational
module Engine = Analysis.Engine
module Model = Analysis.Model
module Report = Analysis.Report

type stats = {
  probes : int;
  seeded : int;
  cold : int;
  cert_feasible : int;
  cert_infeasible : int;
  entries : int;
}

(* Both stores are Pareto frontiers, not logs: a feasible point's
   certificate (and seed) power only grows as the point gets harder, an
   infeasible point's as it gets easier, so an entry dominated in the
   respective direction is pure scan weight — every probe it could
   answer, its dominator answers too.  Pruning keeps the scans
   proportional to the frontier staircase (a few dozen points) rather
   than to the number of probes run (thousands), which is what lets the
   ladder pay for itself even when a single cold analysis costs only
   microseconds (the X17 gate).  The cap is a backstop for pathological
   many-dimensional sweeps whose frontier itself grows without bound;
   when full, new points are dropped — certificates and seeds are an
   optimization, never required for an answer. *)
let capacity = 256

type entry = { e_model : Model.t; e_report : Report.t }

type t = {
  enabled : bool;
  mutex : Mutex.t;
  (* Pareto-hardest schedulable entries.  Reports of schedulable
     verdicts are converged by construction, so every entry doubles as
     a sound Kleene seed for any point it dominates. *)
  mutable feas : entry list;
  (* Pareto-easiest unschedulable points (converged or not):
     infeasibility certificates for any point they dominate. *)
  mutable hard : Model.t list;
  (* Most recent certifying entry of each frontier: consecutive probes
     of a monotone sweep are usually answered by the same entry, so one
     dominance test short-circuits the scan. *)
  mutable mru_feas : entry option;
  mutable mru_hard : Model.t option;
  (* The most recent converged probe: every converged report of the
     same structure is an exact reference for a pinned run, so which
     probe wrote it last only changes how much a later probe pins. *)
  mutable reference : entry option;
  mutable probes : int;
  mutable seeded : int;
  mutable cold : int;
  mutable cert_feasible : int;
  mutable cert_infeasible : int;
}

let create ?(enabled = true) () =
  {
    enabled;
    mutex = Mutex.create ();
    feas = [];
    hard = [];
    mru_feas = None;
    mru_hard = None;
    reference = None;
    probes = 0;
    seeded = 0;
    cold = 0;
    cert_feasible = 0;
    cert_infeasible = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let stats t =
  locked t (fun () ->
      {
        probes = t.probes;
        seeded = t.seeded;
        cold = t.cold;
        cert_feasible = t.cert_feasible;
        cert_infeasible = t.cert_infeasible;
        entries = List.length t.feas + List.length t.hard;
      })

(* Verdict monotonicity under dominance (the same fact the frontier
   certificates and [Sensitivity.search_scaling] already lean on).
   [dominates ~seed:p m] reads "[p] is easier than [m]", so:
   - some stored infeasible [p] dominates [m] — infeasible at an easier
     point ⇒ infeasible at every harder one — and [m] is infeasible;
   - [m] dominates some stored feasible [p] — feasible at a harder
     point ⇒ feasible at every easier one — and [m] is feasible. *)
let infeasible_cert0 t m =
  match List.find_opt (fun p -> Engine.Seeded.dominates ~seed:p m) t.hard with
  | Some p ->
      t.mru_hard <- Some p;
      true
  | None -> false

(* What one probe can learn from the stores, resolved in a single scan
   of each frontier under one lock: the certificate checks and the
   nearest-seed search all test the same dominance relation, so a
   boolean probe pays one pass over [hard] and at most one over [feas]
   instead of three.  Entries sit newest-first, and design-space sweeps
   probe in dominance-ordered batches, so certificate hits tend to
   short-circuit within the first few entries. *)
type lookup =
  | Cert_infeasible
  | Cert_feasible
  | Seed of Q.t * Model.t * Report.t
  | Miss

(* The MRU slots answer before any scan.  A slot can outlive its
   entry's pruning — harmless: a pruned entry is redundant, not wrong,
   so its certificates stay sound. *)
let mru_infeasible t m =
  match t.mru_hard with
  | Some p -> Engine.Seeded.dominates ~seed:p m
  | None -> false

let mru_feasible t m =
  match t.mru_feas with
  | Some { e_model; _ } -> Engine.Seeded.dominates ~seed:m e_model
  | None -> false

let lookup t m =
  locked t (fun () ->
      if mru_infeasible t m then Cert_infeasible
      else if mru_feasible t m then Cert_feasible
      else if infeasible_cert0 t m then Cert_infeasible
      else begin
        let rec scan best = function
          | [] -> ( match best with Some (d, p, r) -> Seed (d, p, r) | None -> Miss)
          | ({ e_model; e_report } as e) :: rest ->
              if Engine.Seeded.dominates ~seed:m e_model then begin
                t.mru_feas <- Some e;
                Cert_feasible
              end
              else begin
                let best =
                  if Engine.Seeded.dominates ~seed:e_model m then begin
                    let d = Engine.Seeded.gap ~seed:e_model m in
                    match best with
                    | Some (d', _, _) when Q.(d' <= d) -> best
                    | _ -> Some (d, e_model, e_report)
                  end
                  else best
                in
                scan best rest
              end
        in
        scan None t.feas
      end)

(* A new feasible point is worth keeping only when no stored entry is
   at least as hard (its certified down-set would be a subset); adding
   it retires every stored entry it covers in turn.  Dominance is
   transitive, so the pruning is lossless for certificates — and for
   seeding too: among the stored entries dominating a target, any entry
   dominated by another is also farther from the target (the L1 gap is
   additive along the dominance order), so the nearest dominating seed
   always survives on the frontier. *)
let store_feasible t m report =
  if report.Report.schedulable then
    locked t (fun () ->
        let covered =
          List.exists (fun p -> Engine.Seeded.dominates ~seed:m p.e_model) t.feas
        in
        if not covered then begin
          let kept =
            List.filter
              (fun p -> not (Engine.Seeded.dominates ~seed:p.e_model m))
              t.feas
          in
          if List.length kept < capacity then
            t.feas <- { e_model = m; e_report = report } :: kept
        end)

let store_hard t m =
  locked t (fun () ->
      let covered =
        List.exists (fun p -> Engine.Seeded.dominates ~seed:p m) t.hard
      in
      if not covered then begin
        let kept =
          List.filter (fun p -> not (Engine.Seeded.dominates ~seed:m p)) t.hard
        in
        if List.length kept < capacity then t.hard <- m :: kept
      end)

(* Seed search for the report-returning path.  Default-mode seeding
   pays double when the warm run fails to converge (the attempt plus
   the cold rerun), so a seed is only worth taking when convergence is
   guaranteed: when [m] is certified feasible, its fixed point meets
   every deadline, the squeezed warm iterates stay below it, no early
   exit can fire and the warm run converges within the cold iteration
   count.  Everything else — certified infeasible or verdict unknown —
   runs cold directly and never risks the rerun. *)
let lookup_seed t m =
  locked t (fun () ->
      let known_feasible =
        (not (mru_infeasible t m))
        && (mru_feasible t m
           || (not (infeasible_cert0 t m))
              && List.exists
                   (fun p -> Engine.Seeded.dominates ~seed:m p.e_model)
                   t.feas)
      in
      if not known_feasible then None
      else
        List.fold_left
          (fun best { e_model; e_report } ->
            if Engine.Seeded.dominates ~seed:e_model m then begin
              let d = Engine.Seeded.gap ~seed:e_model m in
              match best with
              | Some (d', _, _) when Q.(d' <= d) -> best
              | _ -> Some (d, e_model, e_report)
            end
            else best)
          None t.feas)

let record t f = locked t (fun () -> f t)

let cold_probe t engine m =
  let report = Engine.analyze (Engine.with_model engine m) in
  record t (fun t ->
      t.probes <- t.probes + 1;
      t.cold <- t.cold + 1);
  report

(* A seeded run, and whether the seed's warm run answered it. *)
let seeded ?verdict_only session ~seed_model ~seed_report =
  match
    Engine.analyze_seeded ?verdict_only session ~seed_model ~seed_report
  with
  | report, Engine.Delta_warm _ -> (report, true)
  | report, Engine.Delta_cold _ -> (report, false)

(* A probe without a seed runs against the reference: the rows its
   change cannot reach are pinned and the rest start from bottom, which
   is the cold run bit for bit ([Engine.analyze_pinned]). *)
let unseeded t session =
  match record t (fun t -> t.reference) with
  | Some { e_model; e_report } ->
      ( fst
          (Engine.analyze_pinned session ~reference_model:e_model
             ~reference_report:e_report),
        false )
  | None -> (Engine.analyze session, false)

(* Count a probe that ran an analysis — seeded when a seed's warm run
   answered it, cold otherwise (a pinned run is the cold run) — and file
   its report: on the frontiers, and as the reference when converged. *)
let finish t m (report, seeded) =
  record t (fun t ->
      t.probes <- t.probes + 1;
      if seeded then t.seeded <- t.seeded + 1 else t.cold <- t.cold + 1;
      if report.Report.converged then
        t.reference <- Some { e_model = m; e_report = report });
  store_feasible t m report;
  if not report.Report.schedulable then store_hard t m;
  report

(* Boolean probe: certificates first, then a verdict-only seeded run
   (sound even when the warm iterate has not converged — see
   [Engine.analyze_seeded]), a pinned run as the last resort.  The
   answer is always the cold verdict; only the work to reach it
   changes. *)
let schedulable t engine m =
  if not t.enabled then (cold_probe t engine m).Report.schedulable
  else
    match lookup t m with
    | Cert_infeasible ->
        record t (fun t ->
            t.probes <- t.probes + 1;
            t.cert_infeasible <- t.cert_infeasible + 1);
        false
    | Cert_feasible ->
        record t (fun t ->
            t.probes <- t.probes + 1;
            t.cert_feasible <- t.cert_feasible + 1);
        true
    | (Seed _ | Miss) as found ->
        let session = Engine.with_model engine m in
        let report =
          finish t m
            (match found with
            | Seed (_, seed_model, seed_report) ->
                seeded ~verdict_only:true session ~seed_model ~seed_report
            | _ -> unseeded t session)
        in
        report.Report.schedulable

(* Report-returning probe: callers read iterate values (region corner
   slacks), so the result must be the cold report bit for bit —
   default-mode seeding reruns cold whenever the warm run does not
   converge, and a stored infeasibility certificate routes the probe
   to the pinned run instead of through a warm attempt that would only
   end in that rerun.  No certificate answers here: a verdict is not a
   report. *)
let analyze t engine m =
  if not t.enabled then cold_probe t engine m
  else
    let session = Engine.with_model engine m in
    finish t m
      (match lookup_seed t m with
      | Some (_, seed_model, seed_report) ->
          seeded session ~seed_model ~seed_report
      | None -> unseeded t session)
