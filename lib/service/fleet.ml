module P = Protocol

(* The fleet: N shards, each owning a partition of tenants chosen by a
   consistent-hash ring over tenant ids, run on one {!Parallel.Pool}
   with one slot per shard.

   Slot identity is static, so every batch of shard [s] runs on slot
   [s]'s domain — a shard must only be driven from one domain.  With
   one shard the pool is sequential: the shard lives on the caller's
   domain and a batch is handed to it whole, bit-for-bit the original
   single-store server, stats included.  With more, the fleet splits a
   batch into maximal stats-free segments; a segment is one [Pool.run]
   in which slot [s] processes shard [s]'s sub-batch, and the responses
   are scattered back into envelope order.  A [stats] request is a
   fleet barrier: one [Pool.run] in which only the owning slot works,
   calling back into {!stats_json}, which may read every (quiescent)
   shard and merge.

   [Pool.run] returns only after every slot has finished, and its mutex
   orders each region's writes before the caller's and the next
   region's reads, so no shard state is ever read unfenced and a
   failing shard never leaves another one mid-batch. *)

type t = {
  boot : Store.t;
  pool : Parallel.Pool.t;  (* one slot per shard *)
  shards : Shard.t array;  (* shard [s] is driven by slot [s] *)
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
   routing rule documented in docs/SERVICE.md.  An empty ring is the
   one-shard fleet. *)
let route_on ring tid =
  let m = Array.length ring in
  if m = 0 then 0
  else begin
    let h = point_of tid in
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst ring.(mid) < h then lo := mid + 1 else hi := mid
    done;
    snd ring.(if !lo = m then 0 else !lo)
  end

let route t tid = route_on t.ring tid

let resolved env = Option.value env.P.tenant ~default:Tenant.default_id

(* ------------------------------------------------------------------ *)
(* Stats rendering                                                     *)
(* ------------------------------------------------------------------ *)

(* The fleet-wide [stats] body: the historical single-server shape
   (head, status, admitted/hash of the addressed tenant, then the
   {!Metrics.fields} block over the merged counters), plus — only when
   sharded — per-shard metric objects and the shard map. *)
let stats_json t ~seq ~tenant =
  let nshards = Array.length t.shards in
  let vlist = Array.to_list (Array.map Shard.view t.shards) in
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
      @ Metrics.fields v.Shard.v_metrics ~entries:v.Shard.v_entries
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

let create ?(shards = 1) ?(params = default_params) ?(max_batch = 64) ?trace
    ?(now = Unix.gettimeofday) ?log ?(wal_compact = 256) base =
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
        (* The default tenant always exists, booted from the base, so a
           fleet answers [query]/[stats] exactly like the seed server
           even before any traffic. *)
        let replayed =
          if List.mem_assoc Tenant.default_id replayed then replayed
          else (Tenant.default_id, boot) :: replayed
        in
        let ring = make_ring nshards in
        let parts = Array.make nshards [] in
        List.iter
          (fun (tid, s) ->
            let i = route_on ring tid in
            parts.(i) <- (tid, s) :: parts.(i))
          replayed;
        let shards =
          Array.init nshards (fun i ->
              Shard.create ~params ~max_batch ~emit ~now ?wal ~boot
                ~tenants:(List.rev parts.(i))
                ())
        in
        Ok
          {
            boot;
            pool = Parallel.Pool.create ~jobs:nshards;
            shards;
            ring;
            wal;
            wal_compact;
            emit;
            now;
            next_seq = 0;
          }
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
        Array.to_list t.shards |> List.concat_map Shard.tenant_stores
      in
      let snapshots = Wal.compact w ~tenants in
      Option.iter
        (fun e -> e (Events.Compaction { records; tenants = snapshots }))
        t.emit
  | _ -> ()

(* Several shards: split the batch at every [stats] into stats-free
   segments.  A segment is one pool region in which slot [s] runs shard
   [s]'s sub-batch; a [stats] is a region of its own in which only the
   owning slot works. *)
let multi t envs =
  let arr = Array.of_list envs in
  let out = Array.make (Array.length arr) Json.Null in
  (* [idxs] newest first, so each per-shard list comes out oldest first *)
  let segment idxs =
    let per = Array.make (Array.length t.shards) [] in
    List.iter
      (fun i ->
        let s = route t (resolved arr.(i)) in
        per.(s) <- i :: per.(s))
      idxs;
    Parallel.Pool.run t.pool (fun s ->
        if per.(s) <> [] then
          List.iter2
            (fun i r -> out.(i) <- r)
            per.(s)
            (Shard.process_batch t.shards.(s) ~stats:(stats_json t)
               (List.map (fun i -> arr.(i)) per.(s))))
  in
  let run = ref [] in
  let flush () =
    if !run <> [] then segment !run;
    run := []
  in
  Array.iteri
    (fun i env ->
      match env.P.req with
      | P.Stats ->
          flush ();
          segment [ i ]
      | _ -> run := i :: !run)
    arr;
  flush ();
  Array.to_list out

let process_batch t envs =
  let responses =
    (* One shard: the whole batch, stats included, on the caller's
       domain — what the one-slot pool would run inline. *)
    if Array.length t.shards = 1 then
      Shard.process_batch t.shards.(0) ~stats:(stats_json t) envs
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
(* Accessors (for the IO loops, tests and benches; between batches)    *)
(* ------------------------------------------------------------------ *)

let clock t = t.now

let fresh_seq t =
  t.next_seq <- t.next_seq + 1;
  t.next_seq

(* Parse errors are attributed to shard 0's record; {!Metrics.merged}
   folds them back into the fleet aggregate. *)
let count_error t =
  let m = Shard.metrics t.shards.(0) in
  m.Metrics.errors <- m.Metrics.errors + 1

let metrics t =
  Metrics.merged (Array.to_list (Array.map Shard.metrics t.shards))

let tenant_store t tid =
  Option.map
    (fun ten -> ten.Tenant.store)
    (Shard.tenant_find t.shards.(route t tid) tid)

let default_store t =
  match tenant_store t Tenant.default_id with
  | Some s -> s
  | None -> assert false (* created at boot *)

let shutdown t =
  Parallel.Pool.shutdown t.pool;
  Option.iter Wal.close t.wal
