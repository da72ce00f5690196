(* The domain pool: pool semantics and the bit-identical determinism
   guarantee for analyses run on pool workers, as a sharded fleet runs
   them.  Report.t is pure data (exact rationals, ints, bools), so
   structural equality [=] is exactly the "bit-identical" property the
   engine promises. *)

module P = Parallel.Pool
module Params = Analysis.Params

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

(* --- determinism across job counts --- *)

(* One-shot analysis session. *)
let analyze ?params m = Analysis.Engine.analyze (Analysis.Engine.create ?params m)

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
      ( "determinism",
        [
          Alcotest.test_case "paper example" `Quick
            test_paper_example_determinism;
        ] );
    ]
