(* The domain pool: pool semantics, memoised interference, and the
   bit-identical determinism guarantee for analyses run on pool
   workers, as a sharded fleet runs them.  Report.t is pure data (exact
   rationals, ints, bools), so structural equality [=] is exactly the
   "bit-identical" property the engine promises. *)

module Q = Rational
module P = Parallel.Pool
module Model = Analysis.Model
module Params = Analysis.Params

let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

(* --- pool --- *)

(* [create], apply, then [shutdown] (also on exceptions). *)
let with_pool ~jobs f =
  let pool = P.create ~jobs in
  Fun.protect ~finally:(fun () -> P.shutdown pool) (fun () -> f pool)

(* [f slot] of every slot, gathered by slot. *)
let per_slot pool f =
  let out = Array.make (P.jobs pool) None in
  P.run pool (fun slot -> out.(slot) <- Some (f slot));
  Array.map Option.get out

let test_create_bounds () =
  List.iter
    (fun jobs ->
      try
        ignore (P.create ~jobs);
        Alcotest.failf "jobs %d accepted" jobs
      with Invalid_argument _ -> ())
    [ -1; 0 ];
  with_pool ~jobs:3 @@ fun pool ->
  Alcotest.(check int) "jobs as asked" 3 (P.jobs pool)

let test_run_covers_slots () =
  with_pool ~jobs:4 @@ fun pool ->
  let hits = Array.make 4 0 in
  P.run pool (fun slot -> hits.(slot) <- hits.(slot) + 1);
  Alcotest.(check (array int)) "each slot exactly once" [| 1; 1; 1; 1 |] hits

exception Boom of int

let test_exception_propagation () =
  with_pool ~jobs:3 @@ fun pool ->
  (try
     P.run pool (fun slot -> if slot >= 1 then raise (Boom slot));
     Alcotest.fail "no exception propagated"
   with Boom s -> Alcotest.(check int) "lowest failing slot wins" 1 s);
  (* the pool survives a failed region *)
  Alcotest.(check (array int))
    "usable after failure" [| 0; 1; 4 |]
    (per_slot pool (fun slot -> slot * slot))

let test_reentrant () =
  with_pool ~jobs:3 @@ fun pool ->
  (* every slot re-enters the busy pool; the inner regions degrade to
     inline execution instead of deadlocking *)
  let nested =
    per_slot pool (fun slot -> per_slot pool (fun i -> (10 * slot) + i))
  in
  Array.iteri
    (fun slot row ->
      Alcotest.(check (array int))
        (Printf.sprintf "nested region on slot %d" slot)
        (Array.init 3 (fun i -> (10 * slot) + i))
        row)
    nested

let test_shutdown () =
  let pool = P.create ~jobs:2 in
  P.shutdown pool;
  P.shutdown pool;
  (* idempotent *)
  try
    P.run pool ignore;
    Alcotest.fail "ran on a shut-down pool"
  with Invalid_argument _ -> ()

(* --- memoised interference --- *)

(* One-shot analysis session. *)
let analyze ?params m = Analysis.Engine.analyze (Analysis.Engine.create ?params m)

let zeros (m : Model.t) =
  Array.map
    (fun (tx : Model.txn) -> Array.make (Array.length tx.Model.tasks) Q.zero)
    m.Model.txns

let probe_times = List.map Q.of_int [ 1; 5; 12; 30 ]

(* probe every (task under analysis, interfering transaction, t) of the
   paper example, checking the memoised value against the direct one *)
let sweep_against_direct memo m ~phi ~jit =
  Array.iteri
    (fun a (tx : Model.txn) ->
      Array.iteri
        (fun b _ ->
          let cache = Analysis.Memo.cache memo ~a ~b in
          for i = 0 to Array.length m.Model.txns - 1 do
            let hp_list = Analysis.Interference.hp m ~i ~a ~b in
            if hp_list <> [] then
              List.iter
                (fun t ->
                  check_q
                    (Printf.sprintf "w_star a=%d b=%d i=%d t=%s" a b i
                       (Q.to_string t))
                    (Analysis.Interference.w_star ~hp_list m ~phi ~jit ~i ~a ~b
                       ~t)
                    (Analysis.Memo.w_star cache m ~phi ~jit ~i ~hp_list ~t))
                probe_times
          done)
        tx.Model.tasks)
    m.Model.txns

let test_memo_values_and_stats () =
  let m = Hsched.Paper_example.model () in
  let phi = zeros m and jit = zeros m in
  let memo = Analysis.Memo.create m in
  sweep_against_direct memo m ~phi ~jit;
  let s1 = Analysis.Memo.stats memo in
  Alcotest.(check bool) "first sweep misses" true (s1.Analysis.Memo.misses > 0);
  (* replay with unchanged rows: pure hits *)
  sweep_against_direct memo m ~phi ~jit;
  let s2 = Analysis.Memo.stats memo in
  Alcotest.(check int) "replay adds no misses" s1.Analysis.Memo.misses
    s2.Analysis.Memo.misses;
  Alcotest.(check bool) "replay hits" true
    (s2.Analysis.Memo.hits > s1.Analysis.Memo.hits);
  (* a changed jitter row invalidates its entries, and the memoised
     values still match the direct computation on the new rows *)
  jit.(0).(0) <- Q.one;
  sweep_against_direct memo m ~phi ~jit;
  let s3 = Analysis.Memo.stats memo in
  Alcotest.(check bool) "row change invalidates" true
    (s3.Analysis.Memo.invalidations > s2.Analysis.Memo.invalidations)

(* --- determinism across job counts --- *)

(* One analysis per slot, all running at once on the pool's domains —
   the way a sharded fleet runs its shards' analyses: each must return
   the sequential report. *)
let test_paper_example_determinism () =
  let m = Hsched.Paper_example.model () in
  List.iter
    (fun params ->
      let seq = analyze ~params m in
      List.iter
        (fun jobs ->
          let par =
            with_pool ~jobs (fun pool ->
                per_slot pool (fun _ -> analyze ~params m))
          in
          Array.iteri
            (fun slot r ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs %d, slot %d report" jobs slot)
                true (seq = r))
            par)
        [ 2; 3; 4 ])
    [ Params.default; Params.exact ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "create bounds" `Quick test_create_bounds;
          Alcotest.test_case "run covers slots" `Quick test_run_covers_slots;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "reentrancy" `Quick test_reentrant;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
        ] );
      ( "memo",
        [
          Alcotest.test_case "values and stats" `Quick test_memo_values_and_stats;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "paper example" `Quick
            test_paper_example_determinism;
        ] );
    ]
