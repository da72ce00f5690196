module P = Protocol

(* The fleet: N shards, each owning a partition of tenants chosen by a
   consistent-hash ring over tenant ids.

   With one shard (the default) the shard lives on the caller's domain
   and a batch is handed to it whole — bit-for-bit the original
   single-store server, stats included.  With more, each shard is
   pinned to its own domain (created there, so the pool-ownership
   contract holds) behind a mutex/condition mailbox; the fleet splits a
   batch into maximal stats-free segments, partitions each segment by
   shard, dispatches the sub-batches concurrently and scatters the
   responses back into envelope order.  A [stats] request is a fleet
   barrier: every outstanding sub-batch is awaited first, then the
   owning shard runs the request and calls back into {!stats_json},
   which may read every (now quiescent) shard and merge.

   Memory ordering: a shard's state is published to the fleet domain by
   the mailbox mutex on completion, and onward to whichever shard
   domain renders stats by that shard's own mailbox mutex — a
   release/acquire chain, so no shard state is ever read unfenced. *)

type job = Idle | Work of P.envelope list | Quit

type cell = {
  mutable shard : Shard.t option;  (* set by the owning domain *)
  mu : Mutex.t;
  cv : Condition.t;
  mutable job : job;
  mutable result : Json.t list option;
  mutable failed : exn option;
  mutable domain : unit Domain.t option;  (* None when single-shard *)
}

type t = {
  boot : Store.t;
  cells : cell array;
  ring : (int * int) array;  (* (point, shard), sorted by point *)
  wal : Wal.t option;
  wal_compact : int;
      (* mutation records that trigger a snapshot compaction *)
  emit : (Events.event -> unit) option;  (* serialized trace sink *)
  now : unit -> float;
  mutable next_seq : int;
}

let default_params =
  { Analysis.Params.default with Analysis.Params.keep_history = false }

(* ------------------------------------------------------------------ *)
(* Consistent hashing                                                  *)
(* ------------------------------------------------------------------ *)

(* Virtual points per shard: enough that the tenant split stays roughly
   even at small shard counts without making the ring worth noticing. *)
let ring_points = 16

let point_of s =
  Int64.to_int (String.get_int64_be (Digest.string s) 0) land max_int

let make_ring nshards =
  if nshards <= 1 then [||]
  else begin
    let pts =
      Array.init (nshards * ring_points) (fun k ->
          let s = k / ring_points and v = k mod ring_points in
          (point_of (Printf.sprintf "shard:%d:%d" s v), s))
    in
    Array.sort compare pts;
    pts
  end

(* First ring point at or after the tenant's hash, wrapping — the
   routing rule documented in docs/SERVICE.md. *)
let route t tid =
  if Array.length t.cells = 1 then 0
  else begin
    let ring = t.ring in
    let m = Array.length ring in
    let h = point_of tid in
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst ring.(mid) < h then lo := mid + 1 else hi := mid
    done;
    snd ring.(if !lo = m then 0 else !lo)
  end

let resolved env = Option.value env.P.tenant ~default:Tenant.default_id

(* ------------------------------------------------------------------ *)
(* Shard mailboxes                                                     *)
(* ------------------------------------------------------------------ *)

let new_cell () =
  {
    shard = None;
    mu = Mutex.create ();
    cv = Condition.create ();
    job = Idle;
    result = None;
    failed = None;
    domain = None;
  }

let shard_of cell =
  match cell.shard with Some s -> s | None -> assert false

let shard_loop cell make =
  let sh = make () in
  Mutex.lock cell.mu;
  cell.shard <- Some sh;
  Condition.broadcast cell.cv;
  Mutex.unlock cell.mu;
  let rec loop () =
    Mutex.lock cell.mu;
    while (match cell.job with Idle -> true | _ -> false) do
      Condition.wait cell.cv cell.mu
    done;
    let job = cell.job in
    Mutex.unlock cell.mu;
    match job with
    | Idle -> assert false
    | Quit -> Shard.shutdown sh
    | Work envs ->
        let r =
          match Shard.process_batch sh envs with
          | v -> Ok v
          | exception e -> Error e
        in
        Mutex.lock cell.mu;
        cell.job <- Idle;
        (match r with
        | Ok v -> cell.result <- Some v
        | Error e -> cell.failed <- Some e);
        Condition.broadcast cell.cv;
        Mutex.unlock cell.mu;
        loop ()
  in
  loop ()

let submit cell envs =
  Mutex.lock cell.mu;
  cell.job <- Work envs;
  Condition.broadcast cell.cv;
  Mutex.unlock cell.mu

let await cell =
  Mutex.lock cell.mu;
  while cell.result = None && cell.failed = None do
    Condition.wait cell.cv cell.mu
  done;
  let r = cell.result and f = cell.failed in
  cell.result <- None;
  cell.failed <- None;
  Mutex.unlock cell.mu;
  match f with Some e -> raise e | None -> Option.get r

(* ------------------------------------------------------------------ *)
(* Stats rendering                                                     *)
(* ------------------------------------------------------------------ *)

let views t = Array.map (fun c -> Shard.view (shard_of c)) t.cells

(* The fleet-wide [stats] body: the historical single-server shape
   (head, status, admitted/hash of the addressed tenant, then the
   {!Metrics.fields} block over the merged counters), plus — only when
   sharded — per-shard metric objects and the shard map. *)
let stats_json t ~seq ~tenant =
  let nshards = Array.length t.cells in
  let views = views t in
  let vlist = Array.to_list views in
  let all_tenants = List.concat_map (fun v -> v.Shard.v_tenants) vlist in
  let tid = Option.value tenant ~default:Tenant.default_id in
  let tstore =
    match List.assoc_opt tid all_tenants with Some s -> s | None -> t.boot
  in
  let sum f = List.fold_left (fun acc v -> acc + f v) 0 vlist in
  let agg = Metrics.merged (List.map (fun v -> v.Shard.v_metrics) vlist) in
  let shard_obj i (v : Shard.view) =
    Json.Obj
      ([
         ("shard", Json.Int i);
         ( "tenants",
           Json.List
             (List.map (fun (tid, _) -> Json.String tid) v.Shard.v_tenants) );
       ]
      @ Metrics.fields v.Shard.v_metrics ~workers:v.Shard.v_workers
          ~entries:v.Shard.v_entries
          ~kernel_sessions:v.Shard.v_kernel_sessions
          ~fallback_count:v.Shard.v_fallback_count)
  in
  Json.Obj
    (P.head ?tenant seq "stats"
    @ [
        ("status", Json.String "ok");
        ("admitted", Json.Int (List.length tstore.Store.units));
        ("hash", Json.String tstore.Store.hash);
      ]
    @ Metrics.fields agg
        ~workers:(sum (fun v -> v.Shard.v_workers))
        ~entries:(sum (fun v -> v.Shard.v_entries))
        ~kernel_sessions:(sum (fun v -> v.Shard.v_kernel_sessions))
        ~fallback_count:(sum (fun v -> v.Shard.v_fallback_count))
    @
    if nshards = 1 then []
    else
      [
        ("shards", Json.List (List.mapi shard_obj vlist));
        ( "shard_map",
          Json.Obj
            [
              ("shards", Json.Int nshards);
              ( "tenants",
                Json.Obj
                  (List.sort
                     (fun (a, _) (b, _) -> String.compare a b)
                     (List.map
                        (fun (tid, _) -> (tid, Json.Int (route t tid)))
                        all_tenants)) );
            ] );
      ])

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

exception Failed of string list

let create ?(workers = 1) ?(shards = 1) ?(params = default_params)
    ?(max_batch = 64) ?trace ?(now = Unix.gettimeofday) ?log
    ?(wal_compact = 256) base =
  match Store.boot base with
  | Error es -> Error es
  | Ok boot -> (
      try
        let nshards = max 1 shards in
        let emit =
          match trace with
          | None -> None
          | Some f ->
              let mu = Mutex.create () in
              Some
                (fun e ->
                  Mutex.lock mu;
                  Fun.protect
                    ~finally:(fun () -> Mutex.unlock mu)
                    (fun () -> f e))
        in
        let wal, replayed =
          match log with
          | None -> (None, [])
          | Some path -> (
              match Wal.open_ ~path with
              | Error es -> raise (Failed es)
              | Ok (w, records) -> (
                  match Wal.replay ~boot records with
                  | Error es ->
                      Wal.close w;
                      raise (Failed es)
                  | Ok tenants ->
                      if records <> [] then
                        Option.iter
                          (fun e ->
                            e
                              (Events.Replay
                                 {
                                   records = List.length records;
                                   tenants = List.length tenants;
                                 }))
                          emit;
                      (Some w, tenants)))
        in
        let t =
          {
            boot;
            cells = Array.init nshards (fun _ -> new_cell ());
            ring = make_ring nshards;
            wal;
            wal_compact;
            emit;
            now;
            next_seq = 0;
          }
        in
        (* The default tenant always exists, booted from the base, so a
           fleet answers [query]/[stats] exactly like the seed server
           even before any traffic. *)
        let replayed =
          if List.mem_assoc Tenant.default_id replayed then replayed
          else (Tenant.default_id, boot) :: replayed
        in
        let parts = Array.make nshards [] in
        List.iter
          (fun (tid, s) ->
            let i = route t tid in
            parts.(i) <- (tid, s) :: parts.(i))
          replayed;
        let mk i =
          Shard.create ~id:i ~workers ~params ~max_batch ~emit ~now ?wal ~boot
            ~tenants:(List.rev parts.(i))
            ()
        in
        if nshards = 1 then t.cells.(0).shard <- Some (mk 0)
        else
          Array.iteri
            (fun i cell ->
              cell.domain <-
                Some (Domain.spawn (fun () -> shard_loop cell (fun () -> mk i))))
            t.cells;
        Array.iter
          (fun cell ->
            Mutex.lock cell.mu;
            while cell.shard = None do
              Condition.wait cell.cv cell.mu
            done;
            Mutex.unlock cell.mu)
          t.cells;
        (* Published to each shard domain by the first mailbox
           hand-off, which happens-before any stats barrier. *)
        Array.iter
          (fun cell ->
            Shard.set_stats_view (shard_of cell) (fun ~seq ~tenant ->
                stats_json t ~seq ~tenant))
          t.cells;
        Ok t
      with Failed es -> Error es)

(* ------------------------------------------------------------------ *)
(* Batch processing                                                    *)
(* ------------------------------------------------------------------ *)

(* All shards are idle between fleet batches, so the fleet may read
   every tenant store for the compaction snapshot. *)
let maybe_compact t =
  match t.wal with
  | Some w when Wal.mutations w >= t.wal_compact ->
      let records = Wal.mutations w in
      let tenants =
        Array.to_list t.cells
        |> List.concat_map (fun c -> Shard.tenant_stores (shard_of c))
      in
      let snapshots = Wal.compact w ~tenants in
      Option.iter
        (fun e -> e (Events.Compaction { records; tenants = snapshots }))
        t.emit
  | _ -> ()

let multi t envs =
  let arr = Array.of_list envs in
  let n = Array.length arr in
  let nshards = Array.length t.cells in
  let out = Array.make n Json.Null in
  let run = ref [] in
  let flush () =
    match List.rev !run with
    | [] -> ()
    | idxs ->
        run := [];
        let per = Array.make nshards [] in
        List.iter
          (fun i ->
            let s = route t (resolved arr.(i)) in
            per.(s) <- i :: per.(s))
          idxs;
        let active =
          List.filter (fun s -> per.(s) <> []) (List.init nshards Fun.id)
        in
        List.iter
          (fun s -> submit t.cells.(s) (List.rev_map (fun i -> arr.(i)) per.(s)))
          active;
        List.iter
          (fun s ->
            let rs = await t.cells.(s) in
            List.iter2 (fun i r -> out.(i) <- r) (List.rev per.(s)) rs)
          active
  in
  for i = 0 to n - 1 do
    match arr.(i).P.req with
    | P.Stats -> (
        (* Fleet barrier: drain the outstanding segment, then let the
           owning shard render against the quiescent fleet. *)
        flush ();
        let s = route t (resolved arr.(i)) in
        submit t.cells.(s) [ arr.(i) ];
        match await t.cells.(s) with
        | [ r ] -> out.(i) <- r
        | _ -> assert false)
    | _ -> run := i :: !run
  done;
  flush ();
  Array.to_list out

let process_batch t envs =
  let responses =
    if Array.length t.cells = 1 then
      Shard.process_batch (shard_of t.cells.(0)) envs
    else multi t envs
  in
  maybe_compact t;
  responses

let handle t ?deadline_ms ?tenant req =
  t.next_seq <- t.next_seq + 1;
  let env =
    { P.seq = t.next_seq; arrival = t.now (); deadline_ms; tenant; req }
  in
  match process_batch t [ env ] with [ r ] -> r | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Accessors (the server wrapper's compatibility surface)              *)
(* ------------------------------------------------------------------ *)

let shards t = Array.length t.cells
let clock t = t.now

let fresh_seq t =
  t.next_seq <- t.next_seq + 1;
  t.next_seq

(* Parse errors are attributed to shard 0's record; {!Metrics.merged}
   folds them back into the fleet aggregate. *)
let count_error t =
  let m = Shard.metrics (shard_of t.cells.(0)) in
  m.Metrics.errors <- m.Metrics.errors + 1

let workers t =
  Array.fold_left (fun acc c -> acc + Shard.workers (shard_of c)) 0 t.cells

let cache_entries t =
  Array.fold_left
    (fun acc c -> acc + Shard.cache_entries (shard_of c))
    0 t.cells

let metrics t =
  Metrics.merged
    (Array.to_list (Array.map (fun c -> Shard.metrics (shard_of c)) t.cells))

let tenant_store t tid =
  Option.map
    (fun ten -> ten.Tenant.store)
    (Shard.tenant_find (shard_of t.cells.(route t tid)) tid)

let default_store t =
  match tenant_store t Tenant.default_id with
  | Some s -> s
  | None -> assert false (* created at boot *)

let shutdown t =
  Array.iter
    (fun cell ->
      match cell.domain with
      | None -> Shard.shutdown (shard_of cell)
      | Some d ->
          Mutex.lock cell.mu;
          cell.job <- Quit;
          Condition.broadcast cell.cv;
          Mutex.unlock cell.mu;
          Domain.join d)
    t.cells;
  Option.iter Wal.close t.wal
