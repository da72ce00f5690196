(* The two serve workloads: a real [hsched serve --socket] process
   driven in a closed loop from this single-threaded client over one
   connection, and — in the traced run — the identical request stream
   replayed in process through the public functions the server calls. *)

module P = Service.Protocol
module J = Service.Json
module Store = Service.Store
module Tenant = Service.Tenant
module Wal = Service.Wal
module E = Analysis.Engine

type kind = Admit | Revoke | Query | What_if

let kind_name = function
  | Admit -> "admit"
  | Revoke -> "revoke"
  | Query -> "query"
  | What_if -> "what_if"

type op = { kind : kind; tenant : string option; line : string }

(* What the server answered; the replay must reproduce it. *)
type answer = { status : string; hash : string; schedulable : bool option }

type workload = {
  name : string;
  base : string;  (** the .hsc the server boots from *)
  args : string list;  (** beyond --socket *)
  wal : bool;  (** --log, and set-up is a restart on the run's log *)
  window : int;  (** requests outstanding *)
  cores : int;  (** cores the server keeps busy, for calibration *)
  gen : int -> op array * (unit -> op);  (** seed -> pre-fill, timed ops *)
  rss_at : int;
      (** op count at which the server's peak RSS is read; a pass runs at
          least this many ops *)
  quick_ops : int;
}

(* A run's timed phase is this many passes of one request stream, each
   on a fresh server: the first pass runs for its share of the phase,
   the others replay the ops it sent. *)
let passes = 5

(* --- the request streams ------------------------------------------ *)

let churn_platforms = [ "P1"; "P2"; "P3" ]

(* 45% admit of a fresh unit, 45% revoke of the oldest, 10% query,
   with the store held between 56 and 72 units around its 64-unit
   pre-fill so the per-op cost stays put over the run. *)
let churn_gen seed =
  let rng = Random.State.make [| seed; 1 |] in
  let live = Queue.create () in
  let next_id = ref 0 in
  let fresh () =
    let k = !next_id in
    incr next_id;
    let uid = Printf.sprintf "u%d" k in
    Queue.push uid live;
    let spec =
      Hsc.random_unit rng ~name:(Printf.sprintf "C%d" k)
        ~platforms:churn_platforms
    in
    { kind = Admit; tenant = None; line = Hsc.admit ~uid spec }
  in
  let prefill = Array.init 64 (fun _ -> fresh ()) in
  let next () =
    let r = Random.State.int rng 100 in
    let size = Queue.length live in
    if r < 10 then { kind = Query; tenant = None; line = Hsc.query () }
    else if size >= 72 || (size > 56 && r >= 55) then
      { kind = Revoke; tenant = None; line = Hsc.revoke (Queue.pop live) }
    else fresh ()
  in
  (prefill, next)

let probe_tenants = Array.init 8 (Printf.sprintf "t%d")

(* 70% what_if with a never-repeating top-priority candidate, 20%
   query, 10% admit/revoke, each on a uniformly drawn tenant whose
   store stays between 11 and 13 units on the shared platform. *)
let probe_gen seed =
  let rng = Random.State.make [| seed; 2 |] in
  let live = Array.map (fun _ -> Queue.create ()) probe_tenants in
  let next_id = ref 0 and cand = ref 0 in
  let fresh t =
    let k = !next_id in
    incr next_id;
    let uid = Printf.sprintf "u%d" k in
    Queue.push uid live.(t);
    let tenant = probe_tenants.(t) in
    let spec =
      Hsc.random_unit rng ~name:(Printf.sprintf "C%d" k) ~platforms:[ "P1" ]
    in
    { kind = Admit; tenant = Some tenant; line = Hsc.admit ~tenant ~uid spec }
  in
  (* round-robin, so pre-fill batches mix tenants like the timed phase *)
  let prefill = Array.init (12 * 8) (fun i -> fresh (i mod 8)) in
  let next () =
    let t = Random.State.int rng 8 in
    let tenant = probe_tenants.(t) in
    let r = Random.State.int rng 100 in
    if r < 70 then begin
      let k = !cand in
      incr cand;
      let line = Hsc.what_if ~tenant (Hsc.candidate k ~platform:"P1") in
      { kind = What_if; tenant = Some tenant; line }
    end
    else if r < 90 then
      { kind = Query; tenant = Some tenant; line = Hsc.query ~tenant () }
    else
      let size = Queue.length live.(t) in
      if size >= 13 || (size > 11 && Random.State.bool rng) then
        let line = Hsc.revoke ~tenant (Queue.pop live.(t)) in
        { kind = Revoke; tenant = Some tenant; line }
      else fresh t
  in
  (prefill, next)

let churn =
  {
    name = "serve_churn";
    base =
      String.concat "\n" (List.map (Hsc.platform ~alpha:"0.8") churn_platforms);
    args = [];
    wal = true;
    window = 1;
    cores = 1;
    gen = churn_gen;
    rss_at = 1000;
    quick_ops = 120;
  }

let probe =
  {
    name = "serve_probe";
    base =
      String.concat "\n" (List.map (Hsc.platform ~alpha:"0.8") [ "P1"; "P2" ]);
    args = [ "--shards"; "2" ];
    wal = false;
    window = 8;
    cores = 2;
    gen = probe_gen;
    rss_at = 3000;
    quick_ops = 600;
  }

(* --- checking the answers ----------------------------------------- *)

(* Every admit must be admitted, every revoke revoked, every query and
   what_if ok, and a query must see the tenant's last committed hash. *)
let check_answer r ~last_hash op line =
  match J.parse line with
  | Error e ->
      Run.fail r ("unparseable response: " ^ e);
      None
  | Ok j ->
      let status = Option.value (J.string_field "status" j) ~default:"?" in
      let hash = Option.value (J.string_field "hash" j) ~default:"" in
      let schedulable =
        match J.member "schedulable" j with
        | Some (J.Bool b) -> Some b
        | _ -> None
      in
      let expected =
        match op.kind with
        | Admit -> "admitted"
        | Revoke -> "revoked"
        | Query | What_if -> "ok"
      in
      let tid = Option.value op.tenant ~default:Tenant.default_id in
      if status <> expected then
        Run.fail r
          (Printf.sprintf "%s answered %s, expected %s" (kind_name op.kind)
             status expected)
      else begin
        match op.kind with
        | Admit | Revoke -> Hashtbl.replace last_hash tid hash
        | Query ->
            Run.check r
              (Hashtbl.find_opt last_hash tid = Some hash)
              "query hash differs from the last committed hash"
        | What_if -> ()
      end;
      Some { status; hash; schedulable }

(* Numbers from the final, untimed [stats] response. *)
let server_stats line =
  match J.parse line with
  | Error _ -> []
  | Ok j ->
      let rec get j = function
        | [] -> (
            match j with J.Int i -> float_of_int i | J.Float f -> f | _ -> 0.)
        | k :: rest -> (
            match J.member k j with Some v -> get v rest | None -> 0.)
      in
      let get path = get j path in
      let requests =
        List.fold_left
          (fun acc k -> acc +. get [ "requests"; k ])
          0.
          [ "admit"; "revoke"; "query"; "what_if"; "region"; "stats"; "errors" ]
      in
      let share a b = if b = 0. then 0. else a /. b in
      let hits = get [ "cache"; "hits" ] in
      let misses = get [ "cache"; "misses" ] in
      let sessions =
        get [ "sessions"; "created" ] +. get [ "sessions"; "rebound" ]
      in
      let warm = get [ "delta"; "warm" ] and cold = get [ "delta"; "cold" ] in
      let dirty = get [ "delta"; "dirty_tasks" ] in
      let carried = get [ "delta"; "carried_tasks" ] in
      [
        ("tenant.cache_hit_ratio", share hits (hits +. misses));
        ("tenant.cache_entries", get [ "cache"; "entries" ]);
        ( "engine.ir_warm_ratio",
          share (get [ "sessions"; "ir_warm" ]) sessions );
        ("engine.delta_warm_ratio", share warm (warm +. cold));
        ("engine.carried_ratio", share carried (dirty +. carried));
        ("server.batch_mean", share requests (get [ "batches" ]));
        ( "server.mean_us",
          1e3 *. share (get [ "latency_ms"; "total" ]) requests );
      ]

(* --- the in-process replay ---------------------------------------- *)

(* The serving state of one replay, mirroring one shard with one
   request in flight: per-tenant stores, caches and delta baselines,
   one rebindable engine session, and the WAL. *)
type replay = {
  params : Analysis.Params.t;
  boot : Store.t;
  tenants : (string, Tenant.t) Hashtbl.t;
  mutable session : E.t option;
  counters : Analysis.Rta.counters;
  sink : E.sink option;
  log : Wal.t option;
  memo : Layers.memo;
  mutable dirty : int;
  mutable planned : int;
  mutable after : (unit -> unit) list;  (** the current op's breakdowns *)
}

let tenant_of rp tid =
  let tid = Option.value tid ~default:Tenant.default_id in
  match Hashtbl.find_opt rp.tenants tid with
  | Some t -> t
  | None ->
      let t = Tenant.create ~id:tid rp.boot in
      Hashtbl.replace rp.tenants tid t;
      t

let n_tasks (m : Analysis.Model.t) =
  Array.fold_left
    (fun acc (tx : Analysis.Model.txn) ->
      acc + Array.length tx.Analysis.Model.tasks)
    0 m.Analysis.Model.txns

(* The layers inside [Store.admit]/[Store.revoke], timed on the same
   input outside the op: fragment parse, elaboration of the whole
   assembly, transaction derivation, canonical print and digest. *)
let breakdown_store ?spec (cand : Store.t) () =
  Span.with_ "breakdown" (fun () ->
      Option.iter
        (fun s ->
          ignore (Span.with_ "spec.parse" (fun () -> Spec.Parser.parse s)))
        spec;
      let items =
        cand.Store.base
        @ List.concat_map (fun u -> u.Store.items) cand.Store.units
      in
      match
        Span.with_ "spec.elaborate" (fun () -> Spec.Elaborate.assembly items)
      with
      | Error _ -> ()
      | Ok asm ->
          ignore
            (Span.with_ "transaction.derive" (fun () ->
                 Transaction.Derive.derive_with_origins asm));
          ignore
            (Span.with_ "spec.print_digest" (fun () ->
                 Digest.to_hex (Digest.string (Spec.to_string asm)))))

(* The dirty frontier the delta analysis planned, and the compilation
   steps inside a rebind, timed on the same model outside the op. *)
let breakdown_analysis rp session model prev () =
  Span.with_ "breakdown" (fun () ->
      Option.iter
        (fun (prev_model, prev_report) ->
          let total = n_tasks model in
          let dirty =
            match
              Span.with_ "analysis.plan" (fun () ->
                  E.Delta.plan session ~prev_model ~prev_report)
            with
            | Ok plan -> E.Delta.dirty_tasks plan
            | Error _ -> total (* planned cold: every task iterates *)
          in
          rp.planned <- rp.planned + total;
          rp.dirty <- rp.dirty + dirty)
        prev;
      Layers.compile_steps model
        ~horizon_factor:rp.params.Analysis.Params.horizon_factor)

(* [Shard.analyze_snapshot] for one request: the tenant's result cache,
   then the session rebound onto the snapshot's model, then a delta
   analysis from the tenant's baseline (a full one before it has one). *)
let analyze rp (ten : Tenant.t) (snap : Store.t) =
  match Tenant.cache_find ten snap.Store.hash with
  | Some s -> (s, true)
  | None ->
      let model =
        Span.with_ "analysis.model" (fun () ->
            Analysis.Model.of_system snap.Store.sys)
      in
      let session =
        match rp.session with
        | None ->
            Span.with_ "analysis.create" (fun () ->
                E.create ~params:rp.params ~counters:rp.counters ?sink:rp.sink
                  model)
        | Some s ->
            Span.with_ "analysis.rebind" (fun () -> E.with_model s model)
      in
      rp.session <- Some session;
      let prev = ten.Tenant.baseline in
      let report =
        match prev with
        | Some (prev_model, prev_report) ->
            Span.with_ "analysis.delta" (fun () ->
                fst (E.analyze_delta session ~prev_model ~prev_report))
        | None -> Span.with_ "analysis.fixpoint" (fun () -> E.analyze session)
      in
      let summary =
        Span.with_ "protocol.summarize" (fun () ->
            P.summarize ~store:snap ~model report)
      in
      Tenant.update_baseline ten (Some (model, report));
      Tenant.cache_add ten summary;
      if !Span.enabled then begin
        Layers.add_memo rp.memo session;
        rp.after <- breakdown_analysis rp session model prev :: rp.after
      end;
      (summary, false)

(* Committed mutations go to the log inside the commit; the log is
   compacted past 256 mutations, like the fleet's default. *)
let log_commit rp record =
  Option.iter
    (fun w ->
      Span.with_ "wal.append" (fun () -> Wal.append w record);
      if Wal.mutations w >= 256 then
        Span.with_ "wal.compact" (fun () ->
            let tenants =
              Hashtbl.fold
                (fun tid t acc -> (tid, t.Tenant.store) :: acc)
                rp.tenants []
            in
            ignore (Wal.compact w ~tenants)))
    rp.log

let replay_op rp ~seq op =
  let answer status (s : P.summary) =
    { status; hash = s.P.s_hash; schedulable = Some s.P.s_schedulable }
  in
  let render j =
    ignore (Span.with_ "json.render" (fun () -> J.to_string (j ())))
  in
  let mutate f = Span.with_ "store.mutate" f in
  match Span.with_ "protocol.parse" (fun () -> P.parse op.line) with
  | Error _ -> { status = "error"; hash = ""; schedulable = None }
  | Ok (req, _, tenant) -> (
      let ten = tenant_of rp tenant in
      let store = ten.Tenant.store in
      let invalid () =
        { status = "rejected"; hash = store.Store.hash; schedulable = None }
      in
      let traced f = if !Span.enabled then rp.after <- f :: rp.after in
      match req with
      | P.Admit { uid; spec } -> (
          match mutate (fun () -> Store.admit store ~uid ~spec) with
          | Error _ -> invalid ()
          | Ok cand ->
              traced (breakdown_store ~spec cand);
              let s, cached = analyze rp ten cand in
              if s.P.s_schedulable then begin
                ten.Tenant.store <- cand;
                let hash = cand.Store.hash in
                log_commit rp
                  (Wal.Admit { tenant = ten.Tenant.id; uid; spec; hash });
                let txns = Store.n_transactions cand in
                render (fun () -> P.admitted ?tenant ~seq ~uid ~txns ~cached s);
                answer "admitted" s
              end
              else begin
                render (fun () ->
                    P.rejected ?tenant ~seq ~op:"admit" ~uid
                      ~reason:"unschedulable" ~violations:s.P.s_violations
                      ~hash:store.Store.hash ());
                answer "rejected" s
              end)
      | P.Revoke { uid } -> (
          match mutate (fun () -> Store.revoke store ~uid) with
          | Error _ -> invalid ()
          | Ok cand ->
              traced (breakdown_store cand);
              let s, cached = analyze rp ten cand in
              ten.Tenant.store <- cand;
              let hash = cand.Store.hash in
              log_commit rp (Wal.Revoke { tenant = ten.Tenant.id; uid; hash });
              let txns = Store.n_transactions cand in
              render (fun () -> P.revoked ?tenant ~seq ~uid ~txns ~cached s);
              answer "revoked" s)
      | P.Query ->
          let s, cached = analyze rp ten store in
          render (fun () -> P.query_ok ?tenant ~seq ~cached s);
          answer "ok" s
      | P.What_if { uid; spec } -> (
          match mutate (fun () -> Store.admit store ~uid ~spec) with
          | Error _ -> invalid ()
          | Ok cand ->
              let s, cached = analyze rp ten cand in
              let candidate_instances = Store.unit_instances cand uid in
              render (fun () ->
                  P.what_if_ok ?tenant ~seq ~uid ~cached ~candidate_instances
                    s);
              answer "ok" s)
      | P.Region _ | P.Stats ->
          { status = "error"; hash = ""; schedulable = None })

(* Breakdowns are kept for one op in [breakdown_every] and run once the
   traced ops are done: run between ops, their allocation slowed the
   ops that followed by a third. *)
let breakdown_every = 16

(* Replay the pre-fill (untimed, untraced), then the timed ops; returns
   the answers and the ops' total time.  [traced] records spans and the
   engine sink. *)
let replay (ctx : Run.ctx) w ~base ~prefill ~ops ~traced =
  let fail es = failwith (String.concat "; " es) in
  let log =
    if not w.wal then None
    else begin
      let path = Filename.concat ctx.workdir (w.name ^ "-replay.wal") in
      (try Sys.remove path with Sys_error _ -> ());
      match Wal.open_ ~path with Ok (l, _) -> Some l | Error es -> fail es
    end
  in
  let boot = match Store.boot base with Ok s -> s | Error es -> fail es in
  let rp =
    {
      params = Service.Fleet.default_params;
      boot;
      tenants = Hashtbl.create 8;
      session = None;
      counters = Analysis.Rta.counters ();
      sink = (if traced then Some Span.Engine_probe.sink else None);
      log;
      memo = Layers.memo ();
      dirty = 0;
      planned = 0;
      after = [];
    }
  in
  let pre = Array.mapi (fun i op -> replay_op rp ~seq:(i + 1) op) prefill in
  (* The timed ops start on a fresh session, as after a restart, so the
     session's compilation shows up in the trace. *)
  rp.session <- None;
  Span.reset ();
  Span.Engine_probe.reset ();
  Span.enabled := traced;
  let total = ref 0. and deferred = ref [] in
  let answers =
    Array.mapi
      (fun i op ->
        let seq = Array.length prefill + i + 1 in
        let t0 = Span.now () in
        let a =
          Span.op ("op." ^ kind_name op.kind) ~req:i (fun () ->
              replay_op rp ~seq op)
        in
        total := !total +. Span.ns_since t0;
        if i mod breakdown_every = 0 then
          deferred := (i, List.rev rp.after) :: !deferred;
        rp.after <- [];
        ignore (Calib.maybe ());
        a)
      ops
  in
  List.iter
    (fun (i, fs) ->
      Span.current_req := i;
      List.iter (fun f -> f ()) fs)
    (List.rev !deferred);
  Span.current_req := -1;
  Span.enabled := false;
  Option.iter Wal.close log;
  (Array.append pre answers, !total, rp)

(* --- the run ------------------------------------------------------ *)

let run w (ctx : Run.ctx) =
  let r = Run.create () in
  let file ext = Filename.concat ctx.workdir (w.name ^ ext) in
  let base_path = file ".hsc" and socket = file ".sock" and log = file ".wal" in
  Out_channel.with_open_bin base_path (fun oc -> output_string oc w.base);
  let base =
    match Spec.Parser.parse w.base with
    | Ok items -> items
    | Error e -> failwith e
  in
  let args = (if w.wal then [ "--log"; log ] else []) @ w.args in
  let spawn () =
    Client.spawn ~hsched:ctx.hsched ~workdir:ctx.workdir ~base:base_path ~socket
      args
  in
  let prefill, next_op = w.gen ctx.seed in
  let last_hash = Hashtbl.create 8 in
  let prefill_answers = Array.make (Array.length prefill) None in
  let fill conn =
    Client.pipeline conn ~window:w.window
      ~next:(fun i ->
        if i < Array.length prefill then Some prefill.(i).line else None)
      ~on_response:(fun i line _ ->
        prefill_answers.(i) <- check_answer r ~last_hash prefill.(i) line)
  in
  let srv = ref None and conn = ref None in
  let release () =
    Option.iter Client.close !conn;
    Option.iter Client.stop !srv;
    conn := None;
    srv := None
  in
  (* A fresh server — on a fresh log — with the pre-fill committed. *)
  let fresh () =
    release ();
    if w.wal then (try Sys.remove log with Sys_error _ -> ());
    let s = spawn () in
    srv := Some s;
    let c = Client.connect s in
    conn := Some c;
    Hashtbl.reset last_hash;
    fill c;
    (s, c)
  in
  Fun.protect ~finally:release @@ fun () ->
  Calib.reset ~domains:w.cores;
  (* Set-up, spawn to ready, repeated and reported as the median.  With
     a log: pre-fill once, then restart on the run's own log and time
     spawn → first query answer, WAL replay included.  Without: spawn
     and pre-fill. *)
  if w.wal then ignore (fresh ());
  let set_ups =
    List.init (Run.set_ups ctx) (fun _ ->
        release ();
        ignore (Calib.sample ());
        let t0 = Span.now () in
        if w.wal then begin
          let s = spawn () in
          srv := Some s;
          let c = Client.connect s in
          conn := Some c;
          ignore
            (check_answer r ~last_hash
               { kind = Query; tenant = None; line = "" }
               (Client.call c (Hsc.query ())))
        end
        else ignore (fresh ());
        Span.s_since t0)
  in
  (* The timed phase: [passes] passes of one request stream, each on a
     fresh server, or one pass over a third of the run when it is
     traced, the other two thirds replaying its requests in process.  A
     pass runs in segments between calibration samples; each drains the
     window, so no request is in flight while the kernel runs. *)
  let passes = if ctx.trace then 1 else if ctx.quick then 2 else passes in
  let slice =
    let share = if ctx.trace then 3. else float_of_int passes in
    { ctx with seconds = ctx.seconds /. share }
  in
  let ops = Hashtbl.create 4096 and answers = Hashtbl.create 4096 in
  let latencies = Hashtbl.create 4096 in
  let rss = ref nan and n = ref 0 and client_ms = ref 0. in
  for p = 1 to passes do
    let srv, conn = fresh () in
    let first_pass = p = 1 in
    let deadline = Run.deadline slice in
    let sent = ref 0 and received = ref 0 in
    let over () =
      if first_pass then
        Run.expired slice deadline ~ops:!sent ~budget:w.quick_ops
        && (ctx.quick || !sent >= w.rss_at)
      else !sent >= !n
    in
    client_ms := 0.;
    while not (over ()) do
      let first = !sent in
      let segment_end = Int64.add (Span.now ()) Calib.every_ns in
      Client.pipeline conn ~window:w.window
        ~next:(fun _ ->
          if over () || Span.now () >= segment_end then None
          else begin
            if first_pass then Hashtbl.replace ops !sent (next_op ());
            incr sent;
            Some (Hashtbl.find ops (!sent - 1)).line
          end)
        ~on_response:(fun j line ms ->
          let i = first + j in
          let op = Hashtbl.find ops i in
          Hashtbl.replace latencies i
            (ms :: Option.value (Hashtbl.find_opt latencies i) ~default:[]);
          client_ms := !client_ms +. ms;
          Option.iter
            (fun a ->
              if first_pass then Hashtbl.replace answers i a
              else
                Run.check r
                  (Hashtbl.find_opt answers i = Some a)
                  "a pass answered differently from the first")
            (check_answer r ~last_hash op line);
          incr received;
          if first_pass && !received = w.rss_at then
            rss := Client.peak_rss_mb srv);
      ignore (Calib.sample ())
    done;
    if first_pass then n := !received;
    r.Run.attempted <- r.Run.attempted + !received
  done;
  let n = !n in
  let srv = Option.get !srv and conn = Option.get !conn in
  let stats = server_stats (Client.call conn Hsc.stats) in
  if Float.is_nan !rss then rss := Client.peak_rss_mb srv;
  let server_mean_us = List.assoc "server.mean_us" stats in
  let client_mean_us = 1e3 *. !client_ms /. float_of_int n in
  let per_op = Array.init n (Hashtbl.find latencies) in
  let writes = Summary.samples () in
  Array.iteri
    (fun i l ->
      match (Hashtbl.find ops i).kind with
      | Admit | Revoke -> Summary.add writes (Summary.median l)
      | Query | What_if -> ())
    per_op;
  let wsorted = Summary.sorted writes in
  let ms p = Printf.sprintf "%.4f" (Summary.percentile wsorted p) in
  Run.info r "ops" (Printf.sprintf "%d x %d" passes n);
  Run.info r "write_p50_ms" (ms 0.5);
  Run.info r "write_p99_ms" (ms 0.99);
  Run.info r "server_mean_us" (Printf.sprintf "%.1f" server_mean_us);
  Run.info r "client_mean_us" (Printf.sprintf "%.1f" client_mean_us);
  if not ctx.trace then
    Run.repeated_end_to_end r ~window:w.window ~per_op
      ~set_up_s:(Summary.median set_ups) ~rss_mb:!rss
  else begin
    release ();
    if w.wal then begin
      (* WAL replay of the run's own log, for the trace table. *)
      let t0 = Span.now () in
      match (Wal.open_ ~path:log, Store.boot base) with
      | Error es, _ | _, Error es -> Run.fail r (String.concat "; " es)
      | Ok (l, records), Ok boot ->
          (match Wal.replay ~boot records with
          | Error es -> Run.fail r (String.concat "; " es)
          | Ok tenants ->
              Run.check r
                (Option.map
                   (fun s -> s.Store.hash)
                   (List.assoc_opt Tenant.default_id tenants)
                = Hashtbl.find_opt last_hash Tenant.default_id)
                "WAL replay did not reach the last committed hash");
          Wal.close l;
          Run.info r "wal.replay_ms" (Printf.sprintf "%.2f" (Span.ms_since t0))
    end;
    let timed = Array.init n (Hashtbl.find ops) in
    let expected =
      Array.append prefill_answers (Array.init n (Hashtbl.find_opt answers))
    in
    let same got =
      Array.iteri
        (fun i a ->
          Run.check r
            (expected.(i) = Some a)
            (Printf.sprintf "replay diverged from the server at request %d"
               (i + 1)))
        got
    in
    let got, untraced_ns, _ =
      replay ctx w ~base ~prefill ~ops:timed ~traced:false
    in
    same got;
    let got, op_ns, rp = replay ctx w ~base ~prefill ~ops:timed ~traced:true in
    same got;
    let residual =
      100. *. (client_mean_us -. server_mean_us) /. client_mean_us
    in
    Layers.report ~breakdown_every r ctx ~op_ns ~ops:n
      (Layers.engine_values ~ops:n ~counters:rp.counters
      @ Layers.memo_values rp.memo
      @ [
          ("analysis.dirty_ratio", Run.ratio rp.dirty rp.planned);
          ("server.residual_pct", residual);
          ("trace.overhead_pct", 100. *. ((op_ns /. untraced_ns) -. 1.));
        ]
      @ List.remove_assoc "server.mean_us" stats)
  end;
  r
