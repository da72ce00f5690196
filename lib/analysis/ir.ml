(* Compiled analysis IR: everything about a model that the response-time
   machinery used to recompute on every [analyze] call but that actually
   depends only on the static structure of the system — task placement
   and priorities — not on demands, platform bounds, offsets or jitters.
   Compiled once per engine session and shared by every analysis run.

   Compiling keeps only the per-task (res, prio) shape and, per
   platform, the tasks it hosts.  Eq. 17 confines a site's interferers
   to its own platform, so each site is built from that one list the
   first time an analysis asks for it, and whether a site reads a dirty
   row is decided from the shape alone ([stale]). *)

type remote = { txn : int; choices : int array; hp_list : int list }

type site = {
  a : int;
  b : int;
  own_hp : int list;
  own : int list;
  remotes : remote array;
  stride : int array;
  total : int;
}

type t = {
  shape : (int * int) array array;  (* (res, prio) per task: the only
                                       model inputs the IR reads *)
  on : (int * int) array array;  (* per platform: its tasks (a, b), in
                                    (txn, task) order *)
  sites : site option array array;
      (* built on first use.  Sessions sharing the IR may race to build
         a slot from several domains; every racer stores an equal
         immutable site, so an [option] slot is safe where a
         concurrently forced [Lazy.t] would raise *)
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

(* One pass over the site's platform, from its last task back, so every
   list comes out in ascending order: the own transaction's interferers
   and, grouped per transaction, the remote ones.  The remotes come out
   in ascending transaction order — the digit order of the site
   analysis's mixed-radix scenario index. *)
let build t ~a ~b =
  let res, prio = t.shape.(a).(b) in
  let tasks = t.on.(res) in
  let own_hp = ref [] and own = ref [ b ] and remotes = ref [] in
  let txn = ref (-1) and js = ref [] in
  let close () =
    if !txn >= 0 then
      remotes :=
        { txn = !txn; choices = Array.of_list !js; hp_list = !js } :: !remotes
  in
  for k = Array.length tasks - 1 downto 0 do
    let i, j = tasks.(k) in
    if snd t.shape.(i).(j) >= prio && not (i = a && j = b) then
      if i = a then begin
        own_hp := j :: !own_hp;
        own := j :: !own
      end
      else if i = !txn then js := j :: !js
      else begin
        close ();
        txn := i;
        js := [ j ]
      end
  done;
  close ();
  let remotes = Array.of_list !remotes in
  let n_rem = Array.length remotes in
  let stride = Array.make (n_rem + 1) 1 in
  for ri = 0 to n_rem - 1 do
    stride.(ri + 1) <- stride.(ri) * Array.length remotes.(ri).choices
  done;
  {
    a;
    b;
    own_hp = !own_hp;
    own = !own;
    remotes;
    stride;
    total = stride.(n_rem);
  }

let compile m =
  let shape =
    Array.map
      (fun (tx : Model.txn) ->
        Array.map (fun (tk : Model.task) -> (tk.Model.res, tk.Model.prio))
          tx.Model.tasks)
      m.Model.txns
  in
  let n_res =
    Array.fold_left
      (Array.fold_left (fun acc (res, _) -> max acc (res + 1)))
      0 shape
  in
  let on = Array.make n_res [] in
  for a = Array.length shape - 1 downto 0 do
    for b = Array.length shape.(a) - 1 downto 0 do
      let res = fst shape.(a).(b) in
      on.(res) <- (a, b) :: on.(res)
    done
  done;
  {
    shape;
    on = Array.map Array.of_list on;
    sites = Array.map (fun row -> Array.make (Array.length row) None) shape;
  }

let site t ~a ~b =
  match t.sites.(a).(b) with
  | Some s -> s
  | None ->
      let s = build t ~a ~b in
      t.sites.(a).(b) <- Some s;
      s

let n_txns t = Array.length t.shape

let n_tasks t =
  Array.fold_left (fun acc row -> acc + Array.length row) 0 t.shape

let exact_scenarios t =
  let total = ref 0 in
  Array.iteri
    (fun a row ->
      Array.iteri
        (fun b _ ->
          let s = site t ~a ~b in
          total := !total + (List.length s.own * s.total))
        row)
    t.shape;
  !total

let compatible t m =
  Array.length t.shape = Model.n_txns m
  && Array.for_all2
       (fun row (tx : Model.txn) ->
         Array.length row = Array.length tx.Model.tasks
         && Array.for_all2
              (fun (res, prio) (tk : Model.task) ->
                res = tk.Model.res && prio = tk.Model.prio)
              row tx.Model.tasks)
       t.shape m.Model.txns

(* The reads rule.  Site (a, b) on platform r at priority p reads row a
   and every row i ≠ a with a task on r at priority ≥ p (Eq. 17).  So
   with [top.(r)], the highest priority of a dirty row's task on r, the
   site reads a dirty row iff row a is dirty or [top.(r) >= p]. *)
let raise_top t top i =
  Array.iter
    (fun (res, prio) -> if prio > top.(res) then top.(res) <- prio)
    t.shape.(i)

let top_of t ~dirty =
  let top = Array.make (Array.length t.on) min_int in
  Array.iteri (fun i d -> if d then raise_top t top i) dirty;
  top

let stale t ~dirty =
  let top = top_of t ~dirty in
  fun ~a ~b ->
    dirty.(a)
    ||
    let res, prio = t.shape.(a).(b) in
    top.(res) >= prio

(* Transitive closure of a dirty seed under the reads rule, at
   transaction granularity: a transaction is dirty when any of its sites
   reads the jitter/offset row of a dirty transaction.  Iterated to a
   fixed point, so the clean complement is a closed subsystem — every
   row a clean site reads is another clean transaction's.  That closure
   is what lets Engine.Delta pin clean rows at their previously
   converged values: the pinned block's equations never read a dirty
   row, so carrying is exact (see docs/INCREMENTAL.md). *)
let dirty_closure t ~seed =
  if Array.length seed <> n_txns t then
    invalid_arg "Ir.dirty_closure: seed length mismatch";
  let dirty = Array.copy seed in
  let top = top_of t ~dirty in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun a row ->
        if
          (not dirty.(a))
          && Array.exists (fun (res, prio) -> top.(res) >= prio) row
        then begin
          dirty.(a) <- true;
          raise_top t top a;
          changed := true
        end)
      t.shape
  done;
  dirty

(* The timebase is deliberately NOT part of [t]: the IR reads placement
   and priorities only, which is what lets [compatible] models share it,
   while the timebase embeds every numeric constant.  Engine sessions
   compile both and pair them. *)
let timebase m ~horizon_factor = Timebase.of_model m ~horizon_factor
