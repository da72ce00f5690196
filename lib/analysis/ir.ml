(* Compiled analysis IR: everything about a model that the response-time
   machinery used to recompute on every [analyze] call but that actually
   depends only on the static structure of the system — task placement
   and priorities — not on demands, platform bounds, offsets or jitters.
   Compiled once per engine session and shared by every analysis run. *)

module Q = Rational

type remote = { txn : int; choices : int array; hp_list : int list }

type site = {
  a : int;
  b : int;
  own_hp : int list;
  own : int list;
  remotes : remote array;
  stride : int array;
  total : int;
  deps : bool array;
}

type t = {
  sites : site array array;
  shape : (int * int) array array;  (* (res, prio) per task: the only
                                       model inputs the IR reads *)
  n_txns : int;
  n_tasks : int;
}

let hp m ~i ~a ~b =
  let target = Model.task m a b in
  let out = ref [] in
  Array.iteri
    (fun j (tk : Model.task) ->
      let is_self = i = a && j = b in
      if
        (not is_self)
        && tk.Model.res = target.Model.res
        && tk.Model.prio >= target.Model.prio
      then out := j :: !out)
    m.Model.txns.(i).Model.tasks;
  List.rev !out

let compile_site m ~a ~b =
  let n = Model.n_txns m in
  let own_hp = hp m ~i:a ~a ~b in
  let own = own_hp @ [ b ] in
  (* Remote transactions with interfering tasks, ascending index — the
     digit order of the site analysis's mixed-radix scenario index, so
     every chunk boundary and reduction order follows from it. *)
  let remotes =
    let out = ref [] in
    for i = n - 1 downto 0 do
      if i <> a then
        match hp m ~i ~a ~b with
        | [] -> ()
        | hp ->
            out := { txn = i; choices = Array.of_list hp; hp_list = hp } :: !out
    done;
    Array.of_list !out
  in
  let n_rem = Array.length remotes in
  let stride = Array.make (n_rem + 1) 1 in
  for ri = 0 to n_rem - 1 do
    stride.(ri + 1) <- stride.(ri) * Array.length remotes.(ri).choices
  done;
  (* The response of (a, b) reads the offset/jitter rows of its own
     transaction and of every remote transaction with interfering
     tasks — exactly the participant set above. *)
  let deps = Array.make n false in
  deps.(a) <- true;
  Array.iter (fun r -> deps.(r.txn) <- true) remotes;
  { a; b; own_hp; own; remotes; stride; total = stride.(n_rem); deps }

let shape_of m =
  Array.init (Model.n_txns m) (fun a ->
      Array.init (Model.n_tasks m a) (fun b ->
          let tk = Model.task m a b in
          (tk.Model.res, tk.Model.prio)))

let compile m =
  let n = Model.n_txns m in
  let sites =
    Array.init n (fun a ->
        Array.init (Model.n_tasks m a) (fun b -> compile_site m ~a ~b))
  in
  let n_tasks =
    Array.fold_left (fun acc row -> acc + Array.length row) 0 sites
  in
  { sites; shape = shape_of m; n_txns = n; n_tasks }

let site t ~a ~b = t.sites.(a).(b)

let site_of m ~a ~b = compile_site m ~a ~b

let n_txns t = t.n_txns

let n_tasks t = t.n_tasks

let exact_scenarios t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc s -> acc + (List.length s.own * s.total)) acc row)
    0 t.sites

let compatible t m = t.shape = shape_of m

(* Transitive closure of a dirty seed over the dependency rows, at
   transaction granularity: a transaction is dirty when any of its sites
   reads the jitter/offset row of a dirty transaction.  Iterated to a
   fixed point, so the clean complement is a closed subsystem — every
   dependency of a clean site lands on another clean transaction.  That
   closure is what lets Engine.Delta pin clean rows at their previously
   converged values: the pinned block's equations never read a dirty
   row, so carrying is exact (see docs/INCREMENTAL.md). *)
let dirty_closure t ~seed =
  let n = t.n_txns in
  if Array.length seed <> n then
    invalid_arg "Ir.dirty_closure: seed length mismatch";
  let dirty = Array.copy seed in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun row ->
        Array.iter
          (fun s ->
            if not dirty.(s.a) then
              Array.iteri
                (fun i d ->
                  if d && dirty.(i) then begin
                    dirty.(s.a) <- true;
                    changed := true
                  end)
                s.deps)
          row)
      t.sites
  done;
  dirty

(* The timebase is deliberately NOT part of [t]: the IR reads placement
   and priorities only, which is what lets [compatible] models share it,
   while the timebase embeds every numeric constant.  Engine sessions
   compile both and pair them. *)
let timebase m ~horizon_factor = Timebase.of_model m ~horizon_factor
