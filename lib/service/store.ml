module A = Component.Assembly
module Derive = Transaction.Derive

(* A piece of the assembly — the base or one admitted unit — elaborated
   and printed once, when it enters the store, and derived once, against
   the index of the assembly it joins. *)
type part = {
  asm : A.t;
  text : Spec.Printer.sections;
  txns : Derive.derived list;
}

type unit_ = {
  uid : string;
  spec : string;
  items : Spec.Ast.item list;
  part : part;
}

type t = {
  base : Spec.Ast.item list;
  base_part : part;
  units : unit_ list;
  index : A.index;
  sys : Transaction.System.t;
  origins : (string * string) list;
  hash : string;
}

let part items =
  match Spec.Elaborate.assembly items with
  | Error e -> Error [ e ]
  | Ok asm -> Ok { asm; text = Spec.Printer.sections asm; txns = [] }

let parts base_part units = base_part :: List.map (fun u -> u.part) units

let derived index p = { p with txns = Derive.part index p.asm }

let rederived index u = { u with part = derived index u.part }

(* The snapshot over the given pieces, each derived: their live
   transactions in part order.  The hash is the digest of the canonical
   printed assembly, assembled from the pieces' texts: admissions that
   differ only in whitespace or fragmentation of their source text
   collapse to the same snapshot identity, which is what the result
   cache keys on. *)
let snapshot base base_part units index =
  let parts = parts base_part units in
  let sys, origins =
    Derive.system
      ~resources:(List.concat_map (fun p -> p.asm.A.resources) parts)
      (List.concat_map (fun p -> List.filter (Derive.live index) p.txns) parts)
  in
  let text = Spec.Printer.concat (List.map (fun p -> p.text) parts) in
  let hash = Digest.to_hex (Digest.string text) in
  { base; base_part; units; index; sys; origins; hash }

(* The whole assembly validated, then indexed and derived part by part:
   the boot snapshot, and the diagnostics of a candidate the per-part
   checks turn down. *)
let rebuild base base_part units =
  let parts = parts base_part units in
  match A.validate (A.concat (List.map (fun p -> p.asm) parts)) with
  | Error es -> Error es
  | Ok () ->
      let index =
        List.fold_left (fun idx p -> A.extend idx p.asm) A.empty parts
      in
      Ok
        (snapshot base (derived index base_part)
           (List.map (rederived index) units)
           index)

let boot base =
  Result.bind (part base) (fun base_part -> rebuild base base_part [])

let mem t uid = List.exists (fun u -> String.equal u.uid uid) t.units

(* The candidate checks and derives the new unit alone; every other
   part's transactions are reused. *)
let admit t ~uid ~spec =
  if mem t uid then
    Error [ Printf.sprintf "unit %S is already admitted (revoke it first)" uid ]
  else
    match Spec.Parser.parse spec with
    | Error e -> Error [ e ]
    | Ok items ->
        Result.bind (part items) (fun part ->
            let units part = t.units @ [ { uid; spec; items; part } ] in
            match A.admit t.index part.asm with
            | None -> rebuild t.base t.base_part (units part)
            | Some index ->
                Ok
                  (snapshot t.base t.base_part
                     (units (derived index part))
                     index))

(* The candidate drops the unit's transactions; the transactions of
   the methods it was the last to call come back in place. *)
let revoke t ~uid =
  let rec split before = function
    | [] -> None
    | u :: after when String.equal u.uid uid -> Some (List.rev before, u, after)
    | u :: after -> split (u :: before) after
  in
  match split [] t.units with
  | None -> Error [ Printf.sprintf "no admitted unit %S" uid ]
  | Some (before, gone, after) -> (
      match A.revoke t.index gone.part.asm with
      | None -> rebuild t.base t.base_part (before @ after)
      | Some index ->
          let after =
            if gone.part.asm.A.resources = [] then after
            else
              (* later units' platforms moved down: derive them again *)
              List.map (rederived index) after
          in
          Ok (snapshot t.base t.base_part (before @ after) index))

let assembly t =
  A.concat (List.map (fun p -> p.asm) (parts t.base_part t.units))

let unit_instances t uid =
  match List.find_opt (fun u -> String.equal u.uid uid) t.units with
  | None -> []
  | Some u ->
      List.filter_map
        (function
          | Spec.Ast.I_instance i -> Some i.Spec.Ast.i_name | _ -> None)
        u.items

let n_transactions t = Transaction.System.n_transactions t.sys

let origin t name = List.assoc_opt name t.origins

(* --- snapshot diffs ------------------------------------------------ *)

type diff = {
  added : string list;
  removed : string list;
  changed : string list;
  unchanged : string list;
}

(* Analysis-relevant equality of one task across two snapshots: the
   resource is compared by name and linear bound, not by index — the
   derivation may renumber platforms between snapshots — and
   [Task.source] is ignored, it records provenance, not demand. *)
let task_equal (ra : Platform.Resource.t array) (rb : Platform.Resource.t array)
    (x : Transaction.Task.t) (y : Transaction.Task.t) =
  let open Transaction.Task in
  String.equal x.name y.name
  && Rational.equal x.wcet y.wcet
  && Rational.equal x.bcet y.bcet
  && x.priority = y.priority
  && Rational.equal x.blocking y.blocking
  &&
  let rx = ra.(x.resource) and ry = rb.(y.resource) in
  String.equal rx.Platform.Resource.name ry.Platform.Resource.name
  && Platform.Linear_bound.equal rx.Platform.Resource.bound
       ry.Platform.Resource.bound

let txn_equal ra rb (x : Transaction.Txn.t) (y : Transaction.Txn.t) =
  let open Transaction.Txn in
  Rational.equal x.period y.period
  && Rational.equal x.deadline y.deadline
  && Rational.equal x.release_jitter y.release_jitter
  && Array.length x.tasks = Array.length y.tasks
  && Array.for_all2 (task_equal ra rb) x.tasks y.tasks

let diff before after =
  let bsys = before.sys and asys = after.sys in
  let btx = bsys.Transaction.System.transactions in
  let atx = asys.Transaction.System.transactions in
  let bres = bsys.Transaction.System.resources in
  let ares = asys.Transaction.System.resources in
  let find arr name =
    Array.find_opt
      (fun (tx : Transaction.Txn.t) ->
        String.equal tx.Transaction.Txn.name name)
      arr
  in
  let added = ref [] and changed = ref [] and unchanged = ref [] in
  Array.iter
    (fun (tx : Transaction.Txn.t) ->
      let name = tx.Transaction.Txn.name in
      match find btx name with
      | None -> added := name :: !added
      | Some old ->
          if txn_equal bres ares old tx then unchanged := name :: !unchanged
          else changed := name :: !changed)
    atx;
  let removed = ref [] in
  Array.iter
    (fun (tx : Transaction.Txn.t) ->
      let name = tx.Transaction.Txn.name in
      if Option.is_none (find atx name) then removed := name :: !removed)
    btx;
  {
    added = List.rev !added;
    removed = List.rev !removed;
    changed = List.rev !changed;
    unchanged = List.rev !unchanged;
  }
