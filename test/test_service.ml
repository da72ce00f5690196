(* The admission-control service:

   1. Transactionality: admit -> revoke -> admit is idempotent (same
      snapshot hash), and a rejected admission leaves the store
      physically untouched.
   2. Deadline shedding: an already-expired request is shed, not
      processed.
   3. Scripted sessions: every [query] of a >= 50-request mixed session
      returns bounds bit-identical to a fresh one-shot analysis of the
      system admitted at that point.
   4. Overload: beyond max_batch, what_if probes are shed first.
   5. qcheck: interleaved what_if probes (valid or not) never mutate
      the store.
   6. Tenancy: per-tenant stores are isolated, default-tenant traffic
      keeps the pre-tenant wire bytes, stats reports the shard map.
   7. Sharding: a scripted multi-tenant session, region builds
      included, is bit-identical at every shard count and however it
      is cut into batches.
   8. Durability: restarts replay the write-ahead log to the exact
      recorded hashes, tampered logs are refused, compaction keeps
      replay exact; qcheck kills a random session at a random commit
      boundary and checks the restart against the uninterrupted run.
   9. qcheck: Json print-then-parse is the identity.
   10. Hostile input: byte-flipped and truncated request lines get a
       parse error or a response with a status, never an exception, and
       a log cut at any byte offset reopens to its complete records. *)

module Q = Rational
module Store = Service.Store
module P = Service.Protocol
module Fleet = Service.Fleet
module Json = Service.Json

let base_src =
  String.concat "\n"
    [
      "platform P1 { alpha = 0.4; delta = 1; beta = 1; host = \"n\"; }";
      "platform P2 { alpha = 0.4; delta = 1; beta = 1; host = \"n\"; }";
      "platform P3 { alpha = 0.2; delta = 2; beta = 1; host = \"n\"; }";
    ]

let base_items =
  match Spec.Parser.parse base_src with
  | Ok items -> items
  | Error e -> Alcotest.failf "base parse: %s" e

(* One periodic task on platform [1 + i mod 3]; period/priority vary so
   admitted units coexist, [wcet] picks the demand. *)
let unit_spec ?(wcet = "0.2") i =
  Printf.sprintf
    "component U%d { implementation: scheduler fixed_priority; thread T \
     periodic(period = %d, deadline = %d) priority %d { task work(wcet = %s, \
     bcet = 0.1); } } instance I%d : U%d on P%d;"
    i (30 + i) (30 + i) (i + 1) wcet i i ((i mod 3) + 1)

let params =
  { Analysis.Params.default with Analysis.Params.keep_history = false }

let mk_server ?shards ?max_batch ?trace ?now ?log ?wal_compact
    ?(base = base_items) () =
  match
    Fleet.create ?shards ~params ?max_batch ?trace ?now ?log ?wal_compact base
  with
  | Ok s -> s
  | Error es -> Alcotest.failf "server boot: %s" (String.concat "; " es)

let with_server ?shards ?max_batch ?trace ?now ?log ?wal_compact ?base f =
  let srv =
    mk_server ?shards ?max_batch ?trace ?now ?log ?wal_compact ?base ()
  in
  Fun.protect ~finally:(fun () -> Fleet.shutdown srv) (fun () -> f srv)

let str_field name j =
  match Json.string_field name j with
  | Some s -> s
  | None -> Alcotest.failf "missing %S in %s" name (Json.to_string j)

let status = str_field "status"

(* --- transactionality --- *)

let test_admit_revoke_admit () =
  with_server @@ fun srv ->
  let admit i =
    Fleet.handle srv (P.Admit { uid = Printf.sprintf "u%d" i; spec = unit_spec i })
  in
  Alcotest.(check string) "first admit" "admitted" (status (admit 1));
  let h1 = (Fleet.default_store srv).Store.hash in
  Alcotest.(check string) "revoke" "revoked"
    (status (Fleet.handle srv (P.Revoke { uid = "u1" })));
  Alcotest.(check string) "re-admit" "admitted" (status (admit 1));
  Alcotest.(check string) "idempotent hash" h1 (Fleet.default_store srv).Store.hash;
  (* duplicate id is rejected without touching the store *)
  let before = Fleet.default_store srv in
  Alcotest.(check string) "duplicate rejected" "rejected" (status (admit 1));
  Alcotest.(check bool) "store untouched" true (Fleet.default_store srv == before)

let test_rollback_on_reject () =
  with_server @@ fun srv ->
  Alcotest.(check string) "seed unit" "admitted"
    (status (Fleet.handle srv (P.Admit { uid = "ok"; spec = unit_spec 1 })));
  let before = Fleet.default_store srv in
  (* P3 offers alpha = 0.2: a 100-cycle demand every 30 can never fit *)
  let resp =
    Fleet.handle srv
      (P.Admit { uid = "huge"; spec = unit_spec ~wcet:"100" 2 })
  in
  Alcotest.(check string) "verdict" "rejected" (status resp);
  Alcotest.(check string) "reason" "unschedulable" (str_field "reason" resp);
  (* rollback is by construction: the committed snapshot is the very
     value from before the attempt, not a reconstruction *)
  Alcotest.(check bool) "store physically identical" true
    (Fleet.default_store srv == before);
  Alcotest.(check bool) "candidate not left admitted" false
    (Store.mem (Fleet.default_store srv) "huge");
  (* the rejection report names the candidate's transaction *)
  match Json.member "violations" resp with
  | Some (Json.List (_ :: _ as vs)) ->
      let from_candidate =
        List.exists
          (fun v -> Json.member "from_candidate" v = Some (Json.Bool true))
          vs
      in
      Alcotest.(check bool) "violation attributed to candidate" true
        from_candidate
  | _ -> Alcotest.fail "rejection carries no violations"

(* --- deadline shedding --- *)

let test_deadline_shedding () =
  with_server @@ fun srv ->
  let before = Fleet.default_store srv in
  (* deadline_ms = 0 expires at arrival, deterministically *)
  let resp = Fleet.handle srv ~deadline_ms:0. (P.Admit { uid = "u"; spec = unit_spec 1 }) in
  Alcotest.(check string) "shed" "shed" (status resp);
  Alcotest.(check string) "reason" "deadline" (str_field "reason" resp);
  Alcotest.(check bool) "store untouched" true (Fleet.default_store srv == before);
  Alcotest.(check int) "metrics counted it" 1
    (Fleet.metrics srv).Service.Metrics.shed_deadline;
  (* without a deadline the same request commits *)
  Alcotest.(check string) "then admitted" "admitted"
    (status (Fleet.handle srv (P.Admit { uid = "u"; spec = unit_spec 1 })))

(* --- overload shedding --- *)

let test_overload_sheds_probes_first () =
  with_server ~max_batch:2 @@ fun srv ->
  let env seq req = { P.seq; arrival = Unix.gettimeofday (); deadline_ms = None; tenant = None; req } in
  let batch =
    [
      env 1 (P.Admit { uid = "a"; spec = unit_spec 1 });
      env 2 (P.What_if { uid = "p"; spec = unit_spec 2 });
      env 3 P.Query;
      env 4 (P.What_if { uid = "q"; spec = unit_spec 3 });
      env 5 P.Stats;
    ]
  in
  match List.map status (Fleet.process_batch srv batch) with
  | [ a; p1; q; p2; s ] ->
      (* 5 requests over a budget of 2: both probes and the query go,
         newest probes first; the admit and the stats survive *)
      Alcotest.(check string) "admit survives" "admitted" a;
      Alcotest.(check string) "probe shed" "shed" p1;
      Alcotest.(check string) "query shed" "shed" q;
      Alcotest.(check string) "probe shed" "shed" p2;
      Alcotest.(check string) "stats survives" "ok" s
  | _ -> Alcotest.fail "wrong response count"

(* --- scripted mixed session: queries match one-shot analysis --- *)

let fresh_bounds store =
  let model = Analysis.Model.of_system store.Store.sys in
  let report = Analysis.Engine.analyze (Analysis.Engine.create ~params model) in
  let summary = P.summarize ~store ~model report in
  List.map
    (fun (b : P.task_bound) ->
      (b.P.txn, b.P.task, P.bound_to_string b.P.response))
    summary.P.s_bounds

let query_bounds resp =
  match Json.member "bounds" resp with
  | Some (Json.List bs) ->
      List.map
        (fun b ->
          ( str_field "transaction" b,
            str_field "task" b,
            str_field "response" b ))
        bs
  | _ -> Alcotest.failf "no bounds in %s" (Json.to_string resp)

let test_mixed_session () =
  with_server @@ fun srv ->
  let bounds_checked = ref 0 and sent = ref 0 in
  let send req =
    incr sent;
    Fleet.handle srv req
  in
  for i = 1 to 16 do
    let uid = Printf.sprintf "u%d" i in
    ignore (send (P.What_if { uid; spec = unit_spec i }));
    ignore (send (P.Admit { uid; spec = unit_spec i }));
    let q = send P.Query in
    Alcotest.(check (list (triple string string string)))
      (Printf.sprintf "query after admit %d" i)
      (fresh_bounds (Fleet.default_store srv))
      (query_bounds q);
    incr bounds_checked;
    if i mod 3 = 0 then begin
      ignore (send (P.Revoke { uid }));
      let q = send P.Query in
      Alcotest.(check (list (triple string string string)))
        (Printf.sprintf "query after revoke %d" i)
        (fresh_bounds (Fleet.default_store srv))
        (query_bounds q);
      incr bounds_checked
    end
  done;
  ignore (send P.Stats);
  Alcotest.(check bool)
    (Printf.sprintf "session long enough (%d sent)" !sent)
    true (!sent >= 50);
  Alcotest.(check bool) "several queries compared" true (!bounds_checked >= 16)

(* --- bounded result caches --- *)

let cached r =
  match Json.member "cached" r with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "no cached field in %s" (Json.to_string r)

(* More distinct what_ifs than a cache holds: the least recently used
   entries go, the cache stays at its capacity, and a repeated query is
   answered from it. *)
let test_cache_bounded () =
  with_server @@ fun srv ->
  ignore (Fleet.handle srv (P.Admit { uid = "a"; spec = unit_spec 1 }));
  (* the admit's analysis cached the committed snapshot *)
  Alcotest.(check bool) "query after admit cached" true
    (cached (Fleet.handle srv P.Query));
  let capacity = Service.Tenant.cache_capacity in
  for k = 1 to capacity + 10 do
    let spec = unit_spec ~wcet:(Printf.sprintf "0.%04d" (1000 + k)) 2 in
    Alcotest.(check bool)
      (Printf.sprintf "what_if %d computed" k)
      false
      (cached (Fleet.handle srv (P.What_if { uid = "probe"; spec })))
  done;
  let entries () =
    Option.bind
      (Json.member "cache" (Fleet.handle srv P.Stats))
      (Json.int_field "entries")
  in
  Alcotest.(check (option int)) "entries at capacity" (Some capacity)
    (entries ());
  (* the query's entry was the least recently used: it was evicted *)
  Alcotest.(check bool) "evicted query recomputed" false
    (cached (Fleet.handle srv P.Query));
  Alcotest.(check bool) "repeated query cached" true
    (cached (Fleet.handle srv P.Query));
  Alcotest.(check (option int)) "entries still at capacity" (Some capacity)
    (entries ())

(* --- stats: integer-kernel telemetry --- *)

let int_field name j =
  match Json.int_field name j with
  | Some n -> n
  | None -> Alcotest.failf "missing %S in %s" name (Json.to_string j)

let test_stats_kernel_fields () =
  with_server @@ fun srv ->
  (* Before any analysis ran, no session exists yet. *)
  let s0 = Fleet.handle srv P.Stats in
  Alcotest.(check int) "no sessions yet" 0 (int_field "kernel_sessions" s0);
  Alcotest.(check int) "no fallbacks yet" 0 (int_field "fallback_count" s0);
  ignore (Fleet.handle srv (P.Admit { uid = "a"; spec = unit_spec 1 }));
  ignore (Fleet.handle srv P.Query);
  let s1 = Fleet.handle srv P.Stats in
  (* The base model's constants are small decimals, so the admitted
     system fits the integer timeline and the analyzing session reports
     an engaged kernel with no overflow fallback. *)
  Alcotest.(check bool)
    "kernel engaged" true
    (int_field "kernel_sessions" s1 >= 1);
  Alcotest.(check int) "no fallbacks" 0 (int_field "fallback_count" s1)

(* --- qcheck: what_if probes never mutate the store --- *)

let probe_gen =
  QCheck.Gen.(
    oneof
      [
        (* valid same-shape probe, varying demand *)
        map (fun i -> unit_spec ~wcet:(Printf.sprintf "0.%d" (1 + (i mod 8))) (i mod 5)) (int_bound 1000);
        (* unparseable fragment *)
        return "component {";
        (* parses but does not elaborate: unknown platform *)
        return
          "component V { implementation: scheduler fixed_priority; thread T \
           periodic(period = 10, deadline = 10) priority 1 { task w(wcet = 1, \
           bcet = 1); } } instance VI : V on NoSuchPlatform;";
      ])

let probes_arbitrary =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 20) probe_gen)
    ~print:(fun specs -> String.concat "\n---\n" specs)

let prop_what_if_pure specs =
  with_server @@ fun srv ->
  (* a real admitted system underneath, so probes analyze something *)
  ignore (Fleet.handle srv (P.Admit { uid = "seed"; spec = unit_spec 1 }));
  let before = Fleet.default_store srv in
  let envs =
    List.mapi
      (fun i spec ->
        {
          P.seq = i + 2;
          arrival = Unix.gettimeofday ();
          deadline_ms = None;
          tenant = None;
          req = P.What_if { uid = Printf.sprintf "p%d" (i mod 3); spec };
        })
      specs
  in
  let resps = Fleet.process_batch srv envs in
  List.length resps = List.length specs
  && Fleet.default_store srv == before
  && (Fleet.default_store srv).Store.hash = before.Store.hash

let test_what_if_pure =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"interleaved what_if probes never mutate the store"
       ~count:60 probes_arbitrary prop_what_if_pure)

(* --- store unit API --- *)

let test_store_candidates () =
  let store =
    match Store.boot base_items with
    | Ok s -> s
    | Error es -> Alcotest.failf "boot: %s" (String.concat "; " es)
  in
  let cand =
    match Store.admit store ~uid:"u" ~spec:(unit_spec 1) with
    | Ok c -> c
    | Error es -> Alcotest.failf "admit: %s" (String.concat "; " es)
  in
  Alcotest.(check bool) "candidate admits" true (Store.mem cand "u");
  Alcotest.(check bool) "original unaffected" false (Store.mem store "u");
  Alcotest.(check bool) "hashes differ" true (store.Store.hash <> cand.Store.hash);
  Alcotest.(check (list string)) "candidate instances" [ "I1" ]
    (Store.unit_instances cand "u");
  (* the hash is content-based: re-admitting the same fragment under the
     same id from scratch reproduces it *)
  (match Store.admit store ~uid:"u" ~spec:(unit_spec 1) with
  | Ok c2 -> Alcotest.(check string) "content hash" cand.Store.hash c2.Store.hash
  | Error _ -> Alcotest.fail "re-admit failed");
  match Store.revoke cand ~uid:"u" with
  | Ok back -> Alcotest.(check string) "revoke returns" store.Store.hash back.Store.hash
  | Error es -> Alcotest.failf "revoke: %s" (String.concat "; " es)

(* --- snapshot diffs --- *)

let boot_store () =
  match Store.boot base_items with
  | Ok s -> s
  | Error es -> Alcotest.failf "boot: %s" (String.concat "; " es)

let admit_exn store i =
  match Store.admit store ~uid:(Printf.sprintf "u%d" i) ~spec:(unit_spec i) with
  | Ok s -> s
  | Error es -> Alcotest.failf "admit u%d: %s" i (String.concat "; " es)

(* --- qcheck: incremental snapshots equal a from-scratch rebuild --- *)

(* Random units over a small name space, so later units bind into
   earlier ones, collide on class or instance names, promise a faster
   call rate than the server tolerates, or fail to parse or elaborate. *)
type store_op = Admit_unit of string * string | Revoke_unit of string

let server_spec k mit =
  Printf.sprintf
    "component S%d { provided: serve() mit %d; implementation: scheduler \
     fixed_priority; thread H realizes serve() priority 1 { task w(wcet = 1, \
     bcet = 1); } } instance I%d : S%d on P%d;"
    k mit k k ((k mod 3) + 1)

let client_spec k target (mit, period) =
  Printf.sprintf
    "component C%d { required: go() mit %d; implementation: scheduler \
     fixed_priority; thread M periodic(period = %d, deadline = %d) priority 2 \
     { task pre(wcet = 1, bcet = 1); call go(); } } instance J%d : C%d on P%d; \
     bind J%d.go -> I%d.serve;"
    k mit period period k k ((k mod 3) + 1) k target

(* A unit with a platform of its own, so revoking it moves the
   platforms of later units down. *)
let platform_spec k =
  Printf.sprintf
    "platform Q%d { alpha = 0.5; delta = 1; beta = 1; host = \"n\"; } \
     component D%d { implementation: scheduler fixed_priority; thread T \
     periodic(period = 40, deadline = 40) priority %d { task w(wcet = 1, \
     bcet = 1); } } instance K%d : D%d on Q%d;"
    k k (k + 1) k k k

(* An instance of a class another unit declares, on that unit's
   platform or a base one: the other unit cannot be revoked under it. *)
let tenant_spec k c on_q =
  Printf.sprintf "instance L%d : D%d on %s;" k c
    (if on_q then Printf.sprintf "Q%d" c else "P1")

let store_op_gen =
  let open QCheck.Gen in
  let uid = map (Printf.sprintf "u%d") (int_bound 7) and k = int_bound 4 in
  (* few servers, so most clients find theirs and revokes break them *)
  let server = int_bound 2 in
  let admit spec = map2 (fun uid spec -> Admit_unit (uid, spec)) uid spec in
  frequency
    [
      (3, admit (map2 server_spec server (oneofl [ 10; 10; 20 ])));
      (* (mit, period): the last two break the server's MIT or their own *)
      ( 4,
        admit
          (map3 client_spec k server
             (oneofl [ (10, 20); (20, 40); (40, 40); (10, 5); (5, 10) ])) );
      (2, admit (map unit_spec k));
      (2, admit (map platform_spec (int_bound 2)));
      (2, admit (map3 tenant_spec k (int_bound 2) bool));
      ( 1,
        admit
          (oneofl
             [
               "component { nonsense";
               "component Z { implementation: scheduler fixed_priority; \
                thread T periodic(period = 10, deadline = 10) priority 1 { \
                task t(wcet = 0, bcet = 0); } } instance Z : Z on P1;";
             ]) );
      (3, map (fun uid -> Revoke_unit uid) uid);
    ]

let store_ops_arbitrary =
  QCheck.make
    QCheck.Gen.(list_size (int_range 1 30) store_op_gen)
    ~print:(fun ops ->
      String.concat "\n"
        (List.map
           (function
             | Admit_unit (uid, spec) -> Printf.sprintf "admit %s %s" uid spec
             | Revoke_unit uid -> "revoke " ^ uid)
           ops))

(* The snapshot of [committed] (uid, spec) pairs rebuilt from scratch:
   every item elaborated and derived together. *)
let rebuild committed =
  let items =
    base_items
    @ List.concat_map
        (fun (_, spec) ->
          match Spec.Parser.parse spec with
          | Ok items -> items
          | Error e -> Alcotest.failf "committed unit does not parse: %s" e)
        committed
  in
  match Spec.Elaborate.assembly items with
  | Error e -> Error [ e ]
  | Ok asm ->
      Result.map
        (fun (sys, origins) -> (asm, sys, origins))
        (Transaction.Derive.derive_with_origins asm)

(* The per-unit checks accept every candidate the whole assembly's
   validation accepts, so valid traffic never takes the rebuild path. *)
let per_unit_accepts (store : Store.t) op committed expected =
  let asm spec =
    match Result.map Spec.Elaborate.assembly (Spec.Parser.parse spec) with
    | Ok (Ok asm) -> asm
    | _ -> Alcotest.failf "unit does not elaborate: %s" spec
  in
  match (expected, op) with
  | Error _, _ -> true
  | Ok _, Admit_unit (_, spec) ->
      Component.Assembly.admit store.Store.index (asm spec) <> None
  | Ok _, Revoke_unit uid ->
      Component.Assembly.revoke store.Store.index
        (asm (List.assoc uid committed))
      <> None

let prop_store_identity ops =
  let same (got : (Store.t, string list) result) committed expected =
    match (got, expected) with
    | Error es, Error es' -> es = es'
    | Ok s, Ok (asm, sys, origins) ->
        Store.assembly s = asm && s.Store.sys = sys && s.Store.origins = origins
        && s.Store.hash = Digest.to_hex (Digest.string (Spec.to_string asm))
        && List.map (fun (u : Store.unit_) -> u.Store.uid) s.Store.units
           = List.map fst committed
    | _ -> false
  in
  let step (store, committed, ok) op =
    let got, next, expected =
      match op with
      | Revoke_unit uid ->
          let next = List.filter (fun (id, _) -> id <> uid) committed in
          let expected =
            if List.mem_assoc uid committed then rebuild next
            else Error [ Printf.sprintf "no admitted unit %S" uid ]
          in
          (Store.revoke store ~uid, next, expected)
      | Admit_unit (uid, spec) ->
          let next = committed @ [ (uid, spec) ] in
          let expected =
            if List.mem_assoc uid committed then
              Error
                [
                  Printf.sprintf "unit %S is already admitted (revoke it first)"
                    uid;
                ]
            else
              match Spec.Parser.parse spec with
              | Error e -> Error [ e ]
              | Ok _ -> rebuild next
          in
          (Store.admit store ~uid ~spec, next, expected)
    in
    let ok =
      ok && same got next expected
      && per_unit_accepts store op committed expected
    in
    match got with
    | Ok s -> (s, next, ok)
    | Error _ -> (store, committed, ok)
  in
  let _, _, ok = List.fold_left step (boot_store (), [], true) ops in
  ok

let test_store_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"incremental snapshots equal a from-scratch rebuild" ~count:500
       store_ops_arbitrary prop_store_identity)

let test_diff_identity () =
  let s = admit_exn (admit_exn (boot_store ()) 1) 2 in
  let d = Store.diff s s in
  Alcotest.(check (list string)) "nothing added" [] d.Store.added;
  Alcotest.(check (list string)) "nothing removed" [] d.Store.removed;
  Alcotest.(check (list string)) "nothing changed" [] d.Store.changed;
  Alcotest.(check int) "everything unchanged" (Store.n_transactions s)
    (List.length d.Store.unchanged)

let test_diff_round_trip () =
  let s1 = admit_exn (boot_store ()) 1 in
  let s2 = admit_exn s1 2 in
  let d12 = Store.diff s1 s2 in
  (* the admit surfaces as exactly the unit's transactions *)
  Alcotest.(check (list string)) "removed" [] d12.Store.removed;
  Alcotest.(check (list string)) "changed" [] d12.Store.changed;
  (match d12.Store.added with
  | [ name ] ->
      Alcotest.(check (option string))
        "attributed to the admitted instance" (Some "I2")
        (Store.origin s2 name)
  | names -> Alcotest.failf "added %d transactions" (List.length names));
  (* revoking restores the snapshot hash, and the diff against the
     original is exact: empty added/removed/changed *)
  let s3 =
    match Store.revoke s2 ~uid:"u2" with
    | Ok s -> s
    | Error es -> Alcotest.failf "revoke: %s" (String.concat "; " es)
  in
  Alcotest.(check string) "hash restored" s1.Store.hash s3.Store.hash;
  let d13 = Store.diff s1 s3 in
  Alcotest.(check (list string)) "round trip adds nothing" [] d13.Store.added;
  Alcotest.(check (list string)) "removes nothing" [] d13.Store.removed;
  Alcotest.(check (list string)) "changes nothing" [] d13.Store.changed;
  Alcotest.(check int) "everything carried" (Store.n_transactions s1)
    (List.length d13.Store.unchanged);
  (* the reverse diff sees the same admission as a removal *)
  let d21 = Store.diff s2 s1 in
  Alcotest.(check int) "one removed" 1 (List.length d21.Store.removed);
  Alcotest.(check (list string)) "nothing added back" [] d21.Store.added

let test_diff_dirties_only_intersection () =
  (* units 1 and 3 sit on P2 and P1; unit 2 lands alone on P3, so the
     one-transaction diff must dirty exactly the admitted task and
     carry the other two platforms' converged rows *)
  let s1 = admit_exn (admit_exn (boot_store ()) 1) 3 in
  let s2 = admit_exn s1 2 in
  let d = Store.diff s1 s2 in
  Alcotest.(check int) "one added" 1 (List.length d.Store.added);
  Alcotest.(check int) "rest unchanged" 2 (List.length d.Store.unchanged);
  let prev_model = Analysis.Model.of_system s1.Store.sys in
  let model = Analysis.Model.of_system s2.Store.sys in
  let prev_report =
    Analysis.Engine.analyze (Analysis.Engine.create ~params prev_model)
  in
  let e = Analysis.Engine.create ~params model in
  match Analysis.Engine.Delta.plan e ~prev_model ~prev_report with
  | Error r -> Alcotest.failf "expected a warm plan, got %s" r
  | Ok p ->
      Alcotest.(check int) "total" 3 (Analysis.Engine.Delta.total_tasks p);
      Alcotest.(check int) "dirty only the admitted task" 1
        (Analysis.Engine.Delta.dirty_tasks p)

let test_delta_metrics () =
  with_server @@ fun srv ->
  ignore (Fleet.handle srv (P.Admit { uid = "u1"; spec = unit_spec 1 }));
  ignore (Fleet.handle srv (P.Admit { uid = "u2"; spec = unit_spec 2 }));
  let m = Fleet.metrics srv in
  (* the first admission is necessarily cold (no baseline); the second
     analyzes warm against it and carries the first unit's task *)
  Alcotest.(check bool) "warm deltas observed" true
    (m.Service.Metrics.delta_warm >= 1);
  Alcotest.(check bool) "tasks carried" true
    (m.Service.Metrics.delta_carried_tasks >= 1)

(* --- json: print-then-parse is the identity --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_json_escapes () =
  let s = "a\"b\\c\nd\re\tf\x01g" in
  let printed = Json.to_string (Json.String s) in
  Alcotest.(check string)
    "escaped form" "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\"" printed;
  match Json.parse printed with
  | Ok (Json.String s') -> Alcotest.(check string) "round trip" s s'
  | _ -> Alcotest.fail "escaped string does not parse back"

let json_gen =
  let open QCheck.Gen in
  (* arbitrary bytes: the printer \u-escapes control characters and the
     parser folds them back to the same bytes *)
  let any_string =
    string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 12)
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map
          (fun i -> Json.Int i)
          (oneof [ small_signed_int; oneofl [ 0; 1; -1; max_int; min_int ] ]);
        (* a dyadic grid: %.12g prints these exactly, and integer-valued
           floats keep their ".0" so they parse back as floats *)
        map (fun k -> Json.Float (float_of_int k /. 8.)) (int_range (-8000) 8000);
        map (fun f -> Json.Float f) (oneofl [ 1e15; -1e15; 0.5; 1.5e300 ]);
        map (fun s -> Json.String s) any_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map
                   (fun vs -> Json.List vs)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun fs -> Json.Obj fs)
                   (list_size (int_bound 4) (pair any_string (self (n / 2)))) );
             ])

let json_arbitrary = QCheck.make json_gen ~print:Json.to_string

let prop_json_round_trip v =
  match Json.parse (Json.to_string v) with Ok v' -> v' = v | Error _ -> false

let test_json_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"print-then-parse is the identity" ~count:500
       json_arbitrary prop_json_round_trip)

(* --- tenancy --- *)

let tenant_hash srv id =
  match Fleet.tenant_store srv id with
  | Some s -> s.Store.hash
  | None -> Alcotest.failf "tenant %S has no store" id

let test_tenant_isolation () =
  with_server @@ fun srv ->
  let boot = (Fleet.default_store srv).Store.hash in
  let r1 =
    Fleet.handle srv ~tenant:"acme" (P.Admit { uid = "u"; spec = unit_spec 1 })
  in
  let r2 =
    Fleet.handle srv ~tenant:"globex"
      (P.Admit { uid = "u"; spec = unit_spec 2 })
  in
  (* the same uid lives independently under each tenant *)
  Alcotest.(check string) "acme admitted" "admitted" (status r1);
  Alcotest.(check string) "globex admitted" "admitted" (status r2);
  Alcotest.(check string) "acme echoed" "acme" (str_field "tenant" r1);
  Alcotest.(check string) "globex echoed" "globex" (str_field "tenant" r2);
  Alcotest.(check bool) "stores differ" true
    (tenant_hash srv "acme" <> tenant_hash srv "globex");
  (* the default tenant is untouched, and its responses carry no tenant
     field — the pre-tenant protocol byte for byte *)
  Alcotest.(check string) "default untouched" boot (Fleet.default_store srv).Store.hash;
  let q = Fleet.handle srv P.Query in
  Alcotest.(check bool) "no tenant field" true (Json.member "tenant" q = None);
  (* revoking under one tenant leaves the other's unit admitted *)
  Alcotest.(check string) "acme revoke" "revoked"
    (status (Fleet.handle srv ~tenant:"acme" (P.Revoke { uid = "u" })));
  Alcotest.(check string) "acme back to boot" boot (tenant_hash srv "acme");
  Alcotest.(check bool) "globex keeps its unit" true
    (Store.mem (Option.get (Fleet.tenant_store srv "globex")) "u")

let test_stats_shard_map () =
  with_server ~shards:2 @@ fun srv ->
  ignore
    (Fleet.handle srv ~tenant:"acme" (P.Admit { uid = "u"; spec = unit_spec 1 }));
  ignore
    (Fleet.handle srv ~tenant:"globex"
       (P.Admit { uid = "u"; spec = unit_spec 2 }));
  let s = Fleet.handle srv P.Stats in
  (match Json.member "shards" s with
  | Some (Json.List l) -> Alcotest.(check int) "per-shard records" 2 (List.length l)
  | _ -> Alcotest.fail "stats lacks the shards array");
  match Json.member "shard_map" s with
  | None -> Alcotest.fail "stats lacks the shard map"
  | Some m -> (
      Alcotest.(check int) "shard count" 2 (int_field "shards" m);
      match Json.member "tenants" m with
      | Some (Json.Obj fields) ->
          Alcotest.(check (list string))
            "tenants mapped, sorted"
            [ ""; "acme"; "globex" ]
            (List.map fst fields);
          List.iter
            (fun (tid, v) ->
              match v with
              | Json.Int sh ->
                  Alcotest.(check bool)
                    (Printf.sprintf "tenant %S in range" tid)
                    true (sh >= 0 && sh < 2)
              | _ -> Alcotest.failf "tenant %S maps to a non-integer" tid)
            fields
      | _ -> Alcotest.fail "shard map lacks tenants")

(* --- requests whose numbers do not fit native ints --- *)

(* One platform with α = 1/2, Δ = 1, β = 1: the exact instance of the
   analysis below overflows on it. *)
let pa_items =
  match
    Spec.Parser.parse
      "platform Pa { alpha = 0.5; delta = 1; beta = 1; host = \"n\"; }"
  with
  | Ok items -> items
  | Error e -> Alcotest.failf "base parse: %s" e

(* A 22-digit fraction: a lexer error, not an exception. *)
let tiny_spec =
  "component Tiny { implementation: scheduler fixed_priority; thread T \
   periodic(period = 10, deadline = 10) priority 1 { task a(wcet = \
   0.0000000000000000000001, bcet = 0); } } instance X : Tiny on Pa;"

(* A fraction with a zero denominator: a lexer error, not an exception
   that takes the whole fleet down. *)
let zero_den_spec =
  "component Zero { implementation: scheduler fixed_priority; thread T \
   periodic(period = 10, deadline = 2/0) priority 1 { task a(wcet = 1, \
   bcet = 1); } } instance Z : Zero on Pa;"

(* A valid transaction whose analysis overflows native-int rationals.
   At two shards it is sent from "globex" (shard 0) and from the default
   tenant (shard 1). *)
let overflow_spec =
  "component Big { implementation: scheduler fixed_priority; thread T \
   periodic(period = 1000000007, deadline = 999999937) priority 1 { task \
   a(wcet = 0.0000000013, bcet = 0.000000001); task b(wcet = 0.0000000013, \
   bcet = 0.000000001); } } instance B : Big on Pa;"

let test_overflow_rejected () =
  List.iter
    (fun shards ->
      with_server ~shards ~base:pa_items @@ fun fleet ->
      let boot = (Fleet.default_store fleet).Store.hash in
      let resps =
        Fleet.process_batch fleet
          (List.mapi
             (fun i (tenant, req) ->
               { P.seq = i + 1; arrival = 0.; deadline_ms = None; tenant; req })
             [
               (None, P.Admit { uid = "tiny"; spec = tiny_spec });
               ( Some "globex",
                 P.Admit { uid = "big"; spec = overflow_spec } );
               (None, P.What_if { uid = "big"; spec = overflow_spec });
               (None, P.Admit { uid = "big"; spec = overflow_spec });
               (Some "globex", P.Query);
               (None, P.Stats);
               (None, P.What_if { uid = "zero"; spec = zero_den_spec });
             ])
      in
      let label what = Printf.sprintf "%d shards: %s" shards what in
      (match resps with
      | [ tiny; big_globex; probe; big; query; stats; zero ] ->
          let errors r =
            match Json.member "errors" r with
            | Some (Json.List [ Json.String e ]) -> e
            | _ -> Alcotest.failf "not one error: %s" (Json.to_string r)
          in
          List.iter
            (fun (what, r, fragment) ->
              Alcotest.(check string) (label what) "rejected" (status r);
              Alcotest.(check string)
                (label (what ^ " reason"))
                "invalid" (str_field "reason" r);
              Alcotest.(check string)
                (label (what ^ " hash"))
                boot (str_field "hash" r);
              Alcotest.(check bool)
                (label (what ^ " names the error"))
                true
                (contains (errors r) fragment))
            [
              ("22-digit fraction", tiny, "bad number");
              ("overflowing admit", big_globex, "overflow");
              ("overflowing what_if", probe, "overflow");
              ("overflowing admit again", big, "overflow");
              ("zero denominator", zero, "bad number");
            ];
          Alcotest.(check string) (label "query answered") "ok"
            (status query);
          Alcotest.(check string) (label "query hash") boot
            (str_field "hash" query);
          Alcotest.(check int) (label "rejected") 4
            (int_field "rejected" stats);
          Alcotest.(check int) (label "committed") 0
            (int_field "committed" stats);
          (* only the query's summary was cached *)
          Alcotest.(check (option int))
            (label "cache entries") (Some 1)
            (Option.bind (Json.member "cache" stats)
               (Json.int_field "entries"))
      | _ -> Alcotest.fail (label "one response per request"));
      Alcotest.(check string) (label "default untouched") boot
        (Fleet.default_store fleet).Store.hash;
      Alcotest.(check string) (label "globex untouched") boot
        (tenant_hash fleet "globex"))
    [ 1; 2 ]

(* --- hostile input: mutated request lines --- *)

let wire_tenants = [ None; Some "acme"; Some "globex" ]

(* Valid request lines of every op, per tenant, as a client writes
   them. *)
let wire_lines =
  List.concat_map
    (fun tenant ->
      let line op fields =
        let tenant =
          Option.fold ~none:[] ~some:(fun t -> [ ("tenant", Json.String t) ])
            tenant
        in
        Json.to_string (Json.Obj ((("op", Json.String op) :: fields) @ tenant))
      in
      let unit_fields i =
        [
          ("id", Json.String (Printf.sprintf "u%d" i));
          ("spec", Json.String (unit_spec i));
        ]
      in
      [
        line "admit" (unit_fields 1);
        line "admit" (unit_fields 2);
        line "what_if" (unit_fields 3);
        line "revoke" [ ("id", Json.String "u1") ];
        line "query" [];
        line "region"
          [ ("resource", Json.String "P2"); ("precision", Json.Int 1) ];
        line "stats" [];
      ])
    wire_tenants

(* A valid line with up to three bytes flipped (one bit, or the whole
   byte at random) and, one time in four, cut short. *)
let mutated_line_gen =
  let open QCheck.Gen in
  let* line = oneofl wire_lines in
  let n = String.length line in
  let flip =
    let* i = int_range 0 (n - 1) in
    let+ c =
      oneof
        [
          map (fun bit -> Char.code line.[i] lxor (1 lsl bit)) (int_range 0 7);
          int_range 0 255;
        ]
    in
    (i, Char.chr c)
  in
  let* flips = list_size (int_range 0 3) flip in
  let+ cut = frequency [ (3, return n); (1, int_range 0 n) ] in
  let b = Bytes.of_string line in
  List.iter (fun (i, c) -> Bytes.set b i c) flips;
  Bytes.sub_string b 0 cut

(* Each line is a parse error or gets a response with a status, and the
   tenants still answer queries afterwards. *)
let prop_wire_fuzz lines =
  with_server @@ fun srv ->
  List.for_all
    (fun line ->
      match P.parse line with
      | Error _ -> true
      | Ok (req, deadline_ms, tenant) ->
          Json.string_field "status" (Fleet.handle srv ?deadline_ms ?tenant req)
          <> None)
    lines
  && List.for_all
       (fun tenant ->
         Json.string_field "status" (Fleet.handle srv ?tenant P.Query)
         = Some "ok")
       wire_tenants

let test_wire_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"mutated request lines answer an error or a status" ~count:1000
       (QCheck.make
          ~print:QCheck.Print.(list string)
          QCheck.Gen.(list_size (int_range 1 12) mutated_line_gen))
       prop_wire_fuzz)

(* --- sharding: bit-identical responses at every shard count --- *)

let scripted_envelopes () =
  let tenants =
    [ None; Some "acme"; Some "globex"; Some "initech"; Some "umbrella" ]
  in
  let ops =
    List.concat_map
      (fun round ->
        List.concat
          (List.mapi
             (fun ti tenant ->
               match round with
               | 0 ->
                   [
                     (tenant, P.Admit { uid = "a"; spec = unit_spec (ti + 1) });
                     (tenant, P.Query);
                   ]
               | 1 ->
                   let probe =
                     P.What_if { uid = "p"; spec = unit_spec (ti + 2) }
                   and region = P.Region { resource = "P2"; precision = 4 } in
                   [
                     (tenant, P.Query);
                     (tenant, probe);
                     (tenant, probe);
                     (tenant, region);
                     (tenant, region);
                   ]
               | 2 -> [ (tenant, P.Admit { uid = "b"; spec = unit_spec (ti + 3) }) ]
               | _ -> [ (tenant, P.Revoke { uid = "a" }); (tenant, P.Query) ])
             tenants))
      [ 0; 1; 2; 3 ]
  in
  List.mapi
    (fun i (tenant, req) ->
      { P.seq = i + 1; arrival = 0.; deadline_ms = None; tenant; req })
    ops

let run_envs srv envs =
  (* one envelope per batch keeps shedding out of the picture *)
  List.concat_map
    (fun e -> List.map Json.to_string (Fleet.process_batch srv [ e ]))
    envs

let test_shard_identity () =
  let envs = scripted_envelopes () in
  let base = with_server @@ fun srv -> run_envs srv envs in
  (* every tenant's region build ran (its repeat is a cache hit), so the
     batched run below builds regions concurrently on the shard domains *)
  Alcotest.(check int)
    "region builds answered" 5
    (List.length
       (List.filter
          (fun r ->
            match Json.parse r with
            | Ok j ->
                Json.string_field "op" j = Some "region"
                && Json.string_field "status" j = Some "ok"
                && Json.member "cached" j = Some (Json.Bool false)
            | Error _ -> false)
          base));
  List.iter
    (fun shards ->
      let got = with_server ~shards @@ fun srv -> run_envs srv envs in
      Alcotest.(check (list string))
        (Printf.sprintf "%d shards" shards)
        base got)
    [ 2; 4 ];
  (* the whole script as one fleet-partitioned batch is identical too *)
  let batched =
    with_server ~shards:2 @@ fun srv ->
    List.map Json.to_string (Fleet.process_batch srv envs)
  in
  Alcotest.(check (list string)) "one batch, 2 shards" base batched

(* Batch boundaries are not part of the answer: the scripted session cut
   into consecutive batches at random points answers byte for byte like
   one request per batch, at every shard count.  The script repeats
   requests of one tenant back to back (the same what_if and region
   twice, a query right after an admit), so a batch that served a
   repeat from a stale cache or baseline shows up in [cached]. *)
let one_per_batch =
  lazy (with_server @@ fun srv -> run_envs srv (scripted_envelopes ()))

let cuts_arbitrary =
  let n = List.length (scripted_envelopes ()) in
  QCheck.(list_of_size Gen.(int_range 0 10) (int_range 1 (n - 1)))

let prop_batch_boundaries cuts =
  let envs = scripted_envelopes () in
  (* a cut at [c] starts a new batch at envelope [c] *)
  let cuts = List.sort_uniq compare cuts in
  let batch_of i = List.length (List.filter (fun c -> c <= i) cuts) in
  let batches =
    List.init
      (List.length cuts + 1)
      (fun b -> List.filteri (fun i _ -> batch_of i = b) envs)
  in
  List.for_all
    (fun shards ->
      let got =
        with_server ~shards @@ fun srv ->
        List.concat_map
          (fun b -> List.map Json.to_string (Fleet.process_batch srv b))
          batches
      in
      got = Lazy.force one_per_batch)
    [ 1; 2; 4 ]

let test_batch_boundaries =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"batch boundaries are not part of the answer, shards 1 2 4"
       ~count:20 cuts_arbitrary prop_batch_boundaries)

(* Back-to-back commits of one tenant inside one batch: each one must
   see the store its predecessor committed, whatever other tenants'
   commits and queries sit between them. *)
let same_tenant_envelopes () =
  let acme = Some "acme" and globex = Some "globex" in
  List.mapi
    (fun i (tenant, req) ->
      { P.seq = i + 1; arrival = 0.; deadline_ms = None; tenant; req })
    [
      (acme, P.Admit { uid = "a"; spec = unit_spec 1 });
      (globex, P.Admit { uid = "x"; spec = unit_spec 2 });
      (acme, P.Admit { uid = "b"; spec = unit_spec 3 });
      (acme, P.Revoke { uid = "a" });
      (globex, P.Admit { uid = "y"; spec = unit_spec 4 });
      (globex, P.Query);
      (acme, P.Admit { uid = "c"; spec = unit_spec 5 });
    ]

let test_same_tenant_commits () =
  let envs = same_tenant_envelopes () in
  let run ~shards ~batched =
    with_server ~shards @@ fun srv ->
    let resps =
      if batched then List.map Json.to_string (Fleet.process_batch srv envs)
      else run_envs srv envs
    in
    (resps, List.map (tenant_hash srv) [ "acme"; "globex" ])
  in
  let reference = run ~shards:1 ~batched:false in
  List.iter
    (fun (shards, batched) ->
      Alcotest.(check (pair (list string) (list string)))
        (Printf.sprintf "shards %d, %s" shards
           (if batched then "one batch" else "one request per batch"))
        reference (run ~shards ~batched))
    [ (1, true); (2, false); (2, true) ];
  let resps, _ = reference in
  Alcotest.(check (list string))
    "every commit lands"
    [ "admitted"; "admitted"; "admitted"; "revoked"; "admitted"; "ok"; "admitted" ]
    (List.map
       (fun r ->
         match Json.parse r with
         | Ok j -> status j
         | Error e -> Alcotest.failf "bad response %s: %s" r e)
       resps)

(* A shard that raises mid-batch: the fleet re-raises only after every
   shard has finished its part, and the next batch is served normally.
   The raising trace sink stands in for a real failure — the [--trace]
   writer raises [Sys_error] on a full disk from the same call. *)
exception Sink_failed

let test_failing_shard () =
  let failing = ref None in
  let trace = function
    | Service.Events.Request { tenant = Some tid; _ }
      when Some tid = !failing ->
        failing := None;
        raise Sink_failed
    | _ -> ()
  in
  with_server ~shards:2 ~trace @@ fun fleet ->
  let on_shard s =
    List.find
      (fun tid -> Fleet.route fleet tid = s)
      (List.init 64 (Printf.sprintf "t%d"))
  in
  let t0 = on_shard 0 and t1 = on_shard 1 in
  let envs reqs =
    List.mapi
      (fun i (tenant, req) ->
        {
          P.seq = i + 1;
          arrival = Unix.gettimeofday ();
          deadline_ms = None;
          tenant = Some tenant;
          req;
        })
      reqs
  in
  failing := Some t0;
  (match
     Fleet.process_batch fleet
       (envs
          [
            (t1, P.Admit { uid = "a"; spec = unit_spec 1 });
            (t0, P.Admit { uid = "a"; spec = unit_spec 2 });
            (t1, P.Region { resource = "P2"; precision = 6 });
          ])
   with
  | exception Sink_failed -> ()
  | _ -> Alcotest.fail "the sink's exception was swallowed");
  let resps =
    Fleet.process_batch fleet
      (envs [ (t0, P.Query); (t1, P.Query); (t1, P.Stats) ])
  in
  Alcotest.(check (list string))
    "answered in order"
    [ "ok"; "ok"; "ok" ]
    (List.map status resps);
  Alcotest.(check (list string))
    "ops in order" [ "query"; "query"; "stats" ]
    (List.map (str_field "op") resps);
  List.iter2
    (fun tid r ->
      Alcotest.(check string)
        (Printf.sprintf "tenant %s's committed hash" tid)
        (tenant_hash fleet tid) (str_field "hash" r))
    [ t0; t1; t1 ] resps;
  Alcotest.(check bool) "shard 1's admit committed" true
    (Store.mem (Option.get (Fleet.tenant_store fleet t1)) "a")

(* --- durability: the write-ahead log --- *)

let with_wal f =
  let path = Filename.temp_file "hsched_wal" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_wal_restart () =
  with_wal @@ fun log ->
  let finals =
    with_server ~log @@ fun srv ->
    ignore (Fleet.handle srv (P.Admit { uid = "d1"; spec = unit_spec 1 }));
    ignore
      (Fleet.handle srv ~tenant:"acme"
         (P.Admit { uid = "a1"; spec = unit_spec 2 }));
    ignore
      (Fleet.handle srv ~tenant:"acme"
         (P.Admit { uid = "a2"; spec = unit_spec 3 }));
    ignore (Fleet.handle srv ~tenant:"acme" (P.Revoke { uid = "a1" }));
    (* a rejected admission must not reach the log *)
    Alcotest.(check string) "rejected" "rejected"
      (status
         (Fleet.handle srv (P.Admit { uid = "no"; spec = unit_spec ~wcet:"100" 4 })));
    ((Fleet.default_store srv).Store.hash, tenant_hash srv "acme")
  in
  (* restart — at a different shard count: replay is placement-independent *)
  with_server ~shards:2 ~log @@ fun srv ->
  Alcotest.(check string) "default replayed" (fst finals)
    (Fleet.default_store srv).Store.hash;
  Alcotest.(check string) "acme replayed" (snd finals) (tenant_hash srv "acme");
  (* the replayed server serves queries against the replayed stores *)
  let q = Fleet.handle srv ~tenant:"acme" P.Query in
  Alcotest.(check (list (triple string string string)))
    "bounds match one-shot"
    (fresh_bounds (Option.get (Fleet.tenant_store srv "acme")))
    (query_bounds q)

let test_wal_tamper () =
  with_wal @@ fun log ->
  (with_server ~log @@ fun srv ->
   ignore (Fleet.handle srv (P.Admit { uid = "u"; spec = unit_spec 1 })));
  (* flip the recorded hash: replay must refuse to serve *)
  let lines = In_channel.with_open_text log In_channel.input_lines in
  let patched =
    List.map
      (fun line ->
        match Json.parse line with
        | Ok (Json.Obj fields)
          when List.assoc_opt "rec" fields = Some (Json.String "admit") ->
            Json.to_string
              (Json.Obj
                 (List.map
                    (fun (k, v) ->
                      if k = "hash" then (k, Json.String (String.make 32 '0'))
                      else (k, v))
                    fields))
        | _ -> line)
      lines
  in
  Out_channel.with_open_text log (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        patched);
  match Fleet.create ~params ~log base_items with
  | Ok srv ->
      Fleet.shutdown srv;
      Alcotest.fail "tampered log accepted"
  | Error es ->
      Alcotest.(check bool) "reports the divergence" true
        (List.exists (fun e -> contains e "wal replay diverged") es)

let test_wal_compaction () =
  with_wal @@ fun log ->
  let finals =
    with_server ~log ~wal_compact:4 @@ fun srv ->
    for i = 1 to 6 do
      let tenant = if i mod 2 = 0 then Some "acme" else None in
      ignore
        (Fleet.handle srv ?tenant
           (P.Admit { uid = Printf.sprintf "u%d" i; spec = unit_spec i }))
    done;
    ((Fleet.default_store srv).Store.hash, tenant_hash srv "acme")
  in
  (* 6 admissions over a threshold of 4: the log was compacted into one
     snapshot per tenant plus the post-compaction mutation tail *)
  let lines = In_channel.with_open_text log In_channel.input_lines in
  let count tag = List.length (List.filter (fun l -> contains l tag) lines) in
  Alcotest.(check int) "snapshot per tenant" 2 (count "\"rec\":\"snapshot\"");
  Alcotest.(check bool) "mutation tail bounded" true
    (count "\"rec\":\"admit\"" <= 2);
  (* replay from the compacted log reaches the same hashes *)
  with_server ~log @@ fun srv ->
  Alcotest.(check string) "default" (fst finals) (Fleet.default_store srv).Store.hash;
  Alcotest.(check string) "acme" (snd finals) (tenant_hash srv "acme")

(* A crash between writing the snapshot temp file and the atomic rename
   must leave the original log untouched and fully replayable.  The
   injected fault raises exactly in that window. *)
let test_wal_compact_crash () =
  with_wal @@ fun log ->
  let module Wal = Service.Wal in
  let boot = boot_store () in
  let admit store ~uid i =
    match Store.admit store ~uid ~spec:(unit_spec i) with
    | Ok c -> c
    | Error es -> Alcotest.failf "admit: %s" (String.concat "; " es)
  in
  let wal, existing =
    match Wal.open_ ~path:log with
    | Ok r -> r
    | Error es -> Alcotest.failf "open: %s" (String.concat "; " es)
  in
  Alcotest.(check int) "fresh log" 0 (List.length existing);
  (* genuine store transitions so the recorded hashes replay for real *)
  let a1 = admit boot ~uid:"a1" 1 in
  let a2 = admit a1 ~uid:"a2" 2 in
  let b1 = admit boot ~uid:"b1" 3 in
  Wal.append wal
    (Wal.Admit { tenant = "acme"; uid = "a1"; spec = unit_spec 1; hash = a1.Store.hash });
  Wal.append wal
    (Wal.Admit { tenant = "acme"; uid = "a2"; spec = unit_spec 2; hash = a2.Store.hash });
  Wal.append wal
    (Wal.Admit { tenant = "bulk"; uid = "b1"; spec = unit_spec 3; hash = b1.Store.hash });
  Alcotest.(check int) "three mutations" 3 (Wal.mutations wal);
  let tenants = [ ("acme", a2); ("bulk", b1) ] in
  (* crash in the window: temp file written, rename never happens *)
  Alcotest.check_raises "injected crash fires" Wal.Injected_crash (fun () ->
      ignore (Wal.compact ~fault:`Crash_before_rename wal ~tenants));
  Alcotest.(check bool) "temp file left behind" true
    (Sys.file_exists (log ^ ".tmp"));
  (* the original log is intact: loads and replays to the recorded hashes *)
  let replayed records =
    match Wal.replay ~boot records with
    | Ok ts -> ts
    | Error es -> Alcotest.failf "replay: %s" (String.concat "; " es)
  in
  let check_tenants what ts =
    Alcotest.(check (list (pair string string)))
      what
      [ ("acme", a2.Store.hash); ("bulk", b1.Store.hash) ]
      (List.map (fun (id, (s : Store.t)) -> (id, s.Store.hash)) ts)
  in
  (match Wal.open_ ~path:log with
  | Error es -> Alcotest.failf "reopen after crash: %s" (String.concat "; " es)
  | Ok (wal2, records) ->
      Alcotest.(check int) "mutations survive the crash" 3 (List.length records);
      check_tenants "replay after crash" (replayed records);
      Wal.close wal2);
  (* the crashed Wal.t is still usable: a real compact then succeeds *)
  Alcotest.(check int) "compact writes both snapshots" 2
    (Wal.compact wal ~tenants);
  Alcotest.(check int) "mutations reset" 0 (Wal.mutations wal);
  Wal.close wal;
  Alcotest.(check bool) "temp file consumed by rename" false
    (Sys.file_exists (log ^ ".tmp"));
  match Wal.open_ ~path:log with
  | Error es -> Alcotest.failf "reopen after compact: %s" (String.concat "; " es)
  | Ok (wal3, records) ->
      check_tenants "replay from snapshots" (replayed records);
      Wal.close wal3

(* A process killed mid-append leaves the log's last record without its
   newline.  Cut a log holding a compaction snapshot per tenant and then
   two tenants' admits and revokes at every byte offset: each cut opens
   to the records completed before it, which replay to the hashes they
   committed; its torn bytes are truncated away, and a further append
   lands on a record boundary.  A cut inside the header leaves an empty
   log under a fresh header. *)
let test_wal_torn_tail () =
  with_wal @@ fun log ->
  let module Wal = Service.Wal in
  let boot = boot_store () in
  let step what = function
    | Ok s -> s
    | Error es -> Alcotest.failf "%s: %s" what (String.concat "; " es)
  in
  let admit store ~uid i =
    step ("admit " ^ uid) (Store.admit store ~uid ~spec:(unit_spec i))
  in
  let revoke store ~uid = step ("revoke " ^ uid) (Store.revoke store ~uid) in
  let open_log () = step "open" (Wal.open_ ~path:log) in
  (* genuine store transitions, so every recorded hash replays *)
  let a1 = admit boot ~uid:"a1" 1 and b1 = admit boot ~uid:"b1" 3 in
  let a2 = admit a1 ~uid:"a2" 2 and b2 = admit b1 ~uid:"b2" 4 in
  let a3 = revoke a2 ~uid:"a1" and b3 = revoke b2 ~uid:"b1" in
  let admit_rec tenant uid i (s : Store.t) =
    Wal.Admit { tenant; uid; spec = unit_spec i; hash = s.Store.hash }
  and revoke_rec tenant uid (s : Store.t) =
    Wal.Revoke { tenant; uid; hash = s.Store.hash }
  in
  let wal, _ = open_log () in
  Wal.append wal (admit_rec "acme" "a1" 1 a1);
  Wal.append wal (admit_rec "bulk" "b1" 3 b1);
  Alcotest.(check int) "one snapshot per tenant" 2
    (Wal.compact wal ~tenants:[ ("acme", a1); ("bulk", b1) ]);
  List.iter (Wal.append wal)
    [
      admit_rec "acme" "a2" 2 a2;
      admit_rec "bulk" "b2" 4 b2;
      revoke_rec "acme" "a1" a3;
      revoke_rec "bulk" "b1" b3;
    ];
  Wal.close wal;
  (* the hashes committed after each complete record, in log order *)
  let committed =
    [|
      [];
      [ ("acme", a1) ];
      [ ("acme", a1); ("bulk", b1) ];
      [ ("acme", a2); ("bulk", b1) ];
      [ ("acme", a2); ("bulk", b2) ];
      [ ("acme", a3); ("bulk", b2) ];
      [ ("acme", a3); ("bulk", b3) ];
    |]
    |> Array.map (List.map (fun (id, (s : Store.t)) -> (id, s.Store.hash)))
  in
  let full = In_channel.with_open_bin log In_channel.input_all in
  let len = String.length full in
  let ends =
    List.filter_map
      (fun i -> if full.[i] = '\n' then Some (i + 1) else None)
      (List.init len Fun.id)
  in
  let header_end = List.hd ends in
  let write bytes =
    Out_channel.with_open_bin log (fun oc -> output_string oc bytes)
  in
  let all_records = snd (open_log ()) in
  Alcotest.(check int) "records" (Array.length committed - 1)
    (List.length all_records);
  let prefix k = List.filteri (fun i _ -> i < k) all_records in
  let late = admit boot ~uid:"l" 5 in
  let late_rec = admit_rec "late" "l" 5 late in
  (* Replay is a function of the records alone, so each of the few
     distinct prefixes replays once; every cut below checks that it
     reads exactly one of them. *)
  let hashes records =
    step "replay" (Wal.replay ~boot records)
    |> List.map (fun (id, (s : Store.t)) -> (id, s.Store.hash))
    |> List.sort compare
  in
  Array.iteri
    (fun k expected ->
      let label = Printf.sprintf "replay of %d records" k in
      Alcotest.(check (list (pair string string))) label expected
        (hashes (prefix k));
      Alcotest.(check (list (pair string string)))
        (label ^ " and an append")
        (List.sort compare (("late", late.Store.hash) :: expected))
        (hashes (prefix k @ [ late_rec ])))
    committed;
  for cut = 0 to len do
    write (String.sub full 0 cut);
    let complete =
      List.fold_left (fun c e -> if e <= cut then e else c) 0 ends
    in
    let k = max 0 (List.length (List.filter (fun e -> e <= cut) ends) - 1) in
    let label what = Printf.sprintf "cut at %d: %s" cut what in
    let wal, records = open_log () in
    Alcotest.(check bool) (label "complete records") true (records = prefix k);
    Alcotest.(check string)
      (label "torn bytes truncated")
      (String.sub full 0 (max complete header_end))
      (In_channel.with_open_bin log In_channel.input_all);
    Wal.append wal late_rec;
    Wal.close wal;
    let wal, records = open_log () in
    Wal.close wal;
    Alcotest.(check bool)
      (label "append on a record boundary")
      true
      (records = prefix k @ [ late_rec ])
  done;
  (* a server restarts from a torn log, appends, and replays what it
     wrote *)
  write (String.sub full 0 (len - 7));
  let after =
    with_server ~log @@ fun srv ->
    Alcotest.(check string) "server replays the complete records"
      (List.assoc "bulk" committed.(5))
      (tenant_hash srv "bulk");
    ignore (Fleet.handle srv (P.Admit { uid = "u3"; spec = unit_spec 3 }));
    (Fleet.default_store srv).Store.hash
  in
  Alcotest.(check string) "appended after truncation" after
    (with_server ~log @@ fun srv -> (Fleet.default_store srv).Store.hash);
  (* a malformed line that is complete, last or not, is still refused *)
  let last_start = String.rindex_from full (len - 2) '\n' + 1 in
  List.iter
    (fun bytes ->
      write bytes;
      match Wal.open_ ~path:log with
      | Ok (w, _) ->
          Wal.close w;
          Alcotest.fail "corrupt log accepted"
      | Error _ -> ())
    [
      String.sub full 0 (len - 7) ^ "\n";
      String.sub full 0 last_start ^ "garbage\n"
      ^ String.sub full last_start (len - last_start);
    ]

(* --- qcheck: kill at a commit boundary, restart, compare --- *)

let boot_hash = lazy (boot_store ()).Store.hash

let tenant_hashes srv =
  List.map
    (fun id ->
      match Fleet.tenant_store srv id with
      | Some s -> s.Store.hash
      | None -> Lazy.force boot_hash)
    [ ""; "a"; "b" ]

(* The [cached] flag is the one legitimate difference after a restart:
   the log restores committed state, not cache warmth. *)
let strip_cached line =
  match Json.parse line with
  | Ok (Json.Obj fields) ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields))
  | _ -> line

type crash_op = { t_ix : int; kind : int }

let crash_arbitrary =
  QCheck.make
    QCheck.Gen.(
      pair
        (list_size (int_range 4 14)
           (map2 (fun t_ix kind -> { t_ix; kind }) (int_bound 2) (int_bound 5)))
        (int_bound 100))
    ~print:(fun (ops, cut) ->
      Printf.sprintf "cut=%d%% ops=[%s]" cut
        (String.concat ";"
           (List.map (fun o -> Printf.sprintf "%d/%d" o.t_ix o.kind) ops)))

(* Materialize ops into envelopes deterministically: admits use a fresh
   uid per position, revokes target the predicted latest admission of
   the tenant (a stale prediction just yields a deterministic
   rejection, which must never reach the log). *)
let crash_envelopes ops =
  let tenants = [| None; Some "a"; Some "b" |] in
  let stacks = Array.make 3 [] in
  List.mapi
    (fun i op ->
      let tenant = tenants.(op.t_ix) in
      let req =
        if op.kind <= 3 then begin
          let uid = Printf.sprintf "w%d" i in
          stacks.(op.t_ix) <- uid :: stacks.(op.t_ix);
          P.Admit { uid; spec = unit_spec ((i mod 8) + 1) }
        end
        else if op.kind = 4 then
          match stacks.(op.t_ix) with
          | uid :: rest ->
              stacks.(op.t_ix) <- rest;
              P.Revoke { uid }
          | [] -> P.Query
        else P.Query
      in
      { P.seq = i + 1; arrival = 0.; deadline_ms = None; tenant; req })
    ops

let prop_crash_replay (ops, cut_pct) =
  let envs = crash_envelopes ops in
  let cut = cut_pct * List.length envs / 100 in
  let prefix = List.filteri (fun i _ -> i < cut) envs
  and suffix = List.filteri (fun i _ -> i >= cut) envs in
  with_wal @@ fun log_u ->
  with_wal @@ fun log_k ->
  (* the uninterrupted control run *)
  let full_resps, full_hashes =
    with_server ~log:log_u @@ fun srv ->
    let rs = run_envs srv envs in
    (rs, tenant_hashes srv)
  in
  (* the killed run: process the prefix, then stop — every commit is
     flushed before its response, so shutdown adds nothing a kill at
     the boundary would lose *)
  let kill_resps, kill_hashes =
    with_server ~log:log_k @@ fun srv ->
    let rs = run_envs srv prefix in
    (rs, tenant_hashes srv)
  in
  (* restart from the killed log and finish the session *)
  with_server ~log:log_k @@ fun srv ->
  let replay_hashes = tenant_hashes srv in
  let rest_resps = run_envs srv suffix in
  kill_resps = List.filteri (fun i _ -> i < cut) full_resps
  && replay_hashes = kill_hashes
  && tenant_hashes srv = full_hashes
  && List.map strip_cached rest_resps
     = List.map strip_cached (List.filteri (fun i _ -> i >= cut) full_resps)

let test_crash_replay =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"restart from the log is transparent at any commit boundary"
       ~count:15 crash_arbitrary prop_crash_replay)

let () =
  Alcotest.run "service"
    [
      ( "transactional",
        [
          Alcotest.test_case "admit-revoke-admit idempotent" `Quick
            test_admit_revoke_admit;
          Alcotest.test_case "rollback on reject" `Quick test_rollback_on_reject;
          Alcotest.test_case "store candidates" `Quick test_store_candidates;
          Alcotest.test_case "overflowing numbers are rejected" `Quick
            test_overflow_rejected;
          test_wire_fuzz;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "expired deadline" `Quick test_deadline_shedding;
          Alcotest.test_case "overload prefers probes" `Quick
            test_overload_sheds_probes_first;
        ] );
      ( "scripted sessions",
        [
          Alcotest.test_case "mixed session matches one-shot" `Quick
            test_mixed_session;
        ] );
      ( "stats",
        [
          Alcotest.test_case "kernel telemetry fields" `Quick
            test_stats_kernel_fields;
          Alcotest.test_case "delta counters" `Quick test_delta_metrics;
          Alcotest.test_case "result cache is bounded" `Quick
            test_cache_bounded;
        ] );
      ( "diffs",
        [
          Alcotest.test_case "diff t t is all-unchanged" `Quick
            test_diff_identity;
          Alcotest.test_case "admit-revoke-admit round trip is exact" `Quick
            test_diff_round_trip;
          Alcotest.test_case "one-unit diff dirties only the intersection"
            `Quick test_diff_dirties_only_intersection;
        ] );
      ("purity", [ test_what_if_pure ]);
      ("incremental store", [ test_store_identity ]);
      ( "json",
        [
          Alcotest.test_case "escape round trip" `Quick test_json_escapes;
          test_json_round_trip;
        ] );
      ( "tenancy",
        [
          Alcotest.test_case "tenants are isolated" `Quick
            test_tenant_isolation;
          Alcotest.test_case "stats reports the shard map" `Quick
            test_stats_shard_map;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "bit-identical across shard counts" `Quick
            test_shard_identity;
          Alcotest.test_case "same-tenant commits in one batch" `Quick
            test_same_tenant_commits;
          Alcotest.test_case "a failing shard leaves the fleet usable" `Quick
            test_failing_shard;
          test_batch_boundaries;
        ] );
      ( "durability",
        [
          Alcotest.test_case "restart replays the log" `Quick test_wal_restart;
          Alcotest.test_case "tampered log is refused" `Quick test_wal_tamper;
          Alcotest.test_case "compaction keeps replay exact" `Quick
            test_wal_compaction;
          Alcotest.test_case "crash before compaction rename is safe" `Quick
            test_wal_compact_crash;
          Alcotest.test_case "torn final record is cut off" `Quick
            test_wal_torn_tail;
          test_crash_replay;
        ] );
    ]
