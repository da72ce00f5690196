module Q = Rational
module Model = Analysis.Model
module Report = Analysis.Report
module Engine = Analysis.Engine

type task_margin = { txn : int; task : int; name : string; factor : Q.t }

let scale_one (m : Model.t) ~txn ~task factor =
  {
    m with
    Model.txns =
      Array.mapi
        (fun a (tx : Model.txn) ->
          if a <> txn then tx
          else
            {
              tx with
              Model.tasks =
                Array.mapi
                  (fun b (tk : Model.task) ->
                    if b <> task then tk
                    else
                      {
                        tk with
                        Model.c = Q.(tk.Model.c * factor);
                        cb = Q.(tk.Model.cb * factor);
                      })
                  tx.Model.tasks;
            })
        m.Model.txns;
  }

(* Largest grid point in (0, limit] keeping [ok] true; [ok] is monotone
   decreasing.  Mirrors Param_search.search_max with a doubling probe. *)
let search_scaling ~precision ok =
  let den = 1 lsl precision in
  let rec ceiling limit =
    if Q.(limit >= of_int 64) then limit
    else if ok limit then ceiling Q.(limit * of_int 2)
    else limit
  in
  let limit = ceiling Q.one in
  if ok limit then limit
  else begin
    let lo = ref 0 and hi = ref den in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if ok Q.(limit * make mid den) then lo := mid else hi := mid
    done;
    Q.(limit * make !lo den)
  end

(* Scaling probes rebind demands only, so the caller's (or a fresh)
   session keeps its compiled IR across the whole search.  Probes along
   one task's factor axis form a dominance chain — a smaller factor
   shrinks (c, cb) together with c moving at least as fast — so the
   bisection's probes certify and warm-seed each other through a ladder
   (bit-identical verdicts; see Param_search). *)
let task_scaling ?engine ?params ?ladder ?(precision = 7) sys ~txn ~task =
  let probe = Param_search.probe_engine ?engine ?params sys in
  let ladder = Option.value ladder ~default:(Regions.Probe_ladder.create ()) in
  let m = Engine.model probe in
  let ok factor =
    if Q.(factor <= zero) then true
    else
      Regions.Probe_ladder.schedulable ladder probe
        (scale_one m ~txn ~task factor)
  in
  search_scaling ~precision ok

let all_task_margins ?engine ?params ?precision sys =
  let probe = Param_search.probe_engine ?engine ?params sys in
  let ladder = Regions.Probe_ladder.create () in
  let m = Engine.model probe in
  let sites = ref [] in
  Array.iteri
    (fun txn (tx : Model.txn) ->
      Array.iteri
        (fun task (tk : Model.task) ->
          sites := (txn, task, tk.Model.name) :: !sites)
        tx.Model.tasks)
    m.Model.txns;
  List.map
    (fun (txn, task, name) ->
      {
        txn;
        task;
        name;
        factor = task_scaling ~engine:probe ~ladder ?precision sys ~txn ~task;
      })
    !sites
  |> List.sort (fun a b -> Q.compare a.factor b.factor)

let transaction_slack ?engine ?params sys =
  let e =
    match engine with
    | Some e -> Engine.with_overrides ?params e
    | None -> Engine.create_system ?params sys
  in
  let m = Engine.model e in
  let report = Engine.analyze e in
  Array.to_list
    (Array.mapi
       (fun a (tx : Model.txn) ->
         (tx.Model.tname, Report.transaction_response report a, tx.Model.deadline))
       m.Model.txns)

let pp_margins ppf margins =
  Format.fprintf ppf "@[<v>%-28s %12s@ " "task" "max scaling";
  List.iter
    (fun m ->
      Format.fprintf ppf "%-28s %12s@ " m.name
        (Format.asprintf "%a" Q.pp_decimal m.factor))
    margins;
  Format.fprintf ppf "@]"
