(* Workload generation: distribution invariants and structural validity
   of generated systems and assemblies. *)

module Q = Rational
module G = Workload.Gen
module Rng = Workload.Rng
module Sys_ = Transaction.System

let q = Q.of_decimal_string

(* --- rng --- *)

let test_rng_deterministic () =
  let draw seed = List.init 10 (fun _ -> Rng.int (Rng.create seed) 1000) in
  Alcotest.(check (list int)) "same seed" (draw 5) (draw 5);
  Alcotest.(check bool) "different seeds" true (draw 5 <> draw 6)

let test_rng_ranges () =
  let rng = Rng.create 1 in
  for _ = 1 to 200 do
    let f = Rng.fraction rng in
    Alcotest.(check bool) "fraction in [0,1]" true Q.(f >= Q.zero && f <= Q.one);
    let r = Rng.rational_in rng (q "2") (q "5") in
    Alcotest.(check bool) "range" true Q.(r >= q "2" && r <= q "5")
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create 3 in
  let xs = List.init 20 Fun.id in
  let ys = Rng.shuffle rng xs in
  Alcotest.(check (list int)) "same multiset" xs (List.sort compare ys)

(* --- uunifast --- *)

let test_uunifast_sums_exactly () =
  let rng = Rng.create 11 in
  List.iter
    (fun n ->
      let total = q "0.75" in
      let us = Workload.Uunifast.utilizations rng ~n ~total in
      Alcotest.(check int) "length" n (List.length us);
      let sum = List.fold_left Q.add Q.zero us in
      Alcotest.(check string) "exact sum" (Q.to_string total) (Q.to_string sum);
      List.iter
        (fun u -> Alcotest.(check bool) "positive" true Q.(u > Q.zero))
        us)
    [ 1; 2; 3; 8; 20 ]

let test_uunifast_spread () =
  (* sanity: shares are not all equal (the sampler actually randomises) *)
  let rng = Rng.create 12 in
  let us = Workload.Uunifast.utilizations rng ~n:8 ~total:Q.one in
  let distinct = List.sort_uniq Q.compare us in
  Alcotest.(check bool) "spread" true (List.length distinct > 1)

(* --- system generation --- *)

let test_system_deterministic () =
  let s1 = G.system ~seed:9 G.default_spec and s2 = G.system ~seed:9 G.default_spec in
  Alcotest.(check int) "same transactions" (Sys_.n_transactions s1)
    (Sys_.n_transactions s2);
  Array.iteri
    (fun i (x1 : Transaction.Txn.t) ->
      let x2 = s2.Sys_.transactions.(i) in
      Alcotest.(check string) "same name" x1.Transaction.Txn.name x2.Transaction.Txn.name;
      Array.iteri
        (fun j (t1 : Transaction.Task.t) ->
          let t2 = Transaction.Txn.task x2 j in
          Alcotest.(check bool)
            (Printf.sprintf "task %d,%d equal" i j)
            true
            (Transaction.Task.equal t1 t2))
        x1.Transaction.Txn.tasks)
    s1.Sys_.transactions

let test_system_utilization_budget () =
  (* per platform, aggregate utilisation is exactly target * alpha *)
  for seed = 1 to 10 do
    let spec = G.default_spec in
    let sys = G.system ~seed spec in
    Array.iteri
      (fun r (res : Platform.Resource.t) ->
        let u = Sys_.utilization sys r in
        let alpha = res.Platform.Resource.bound.Platform.Linear_bound.alpha in
        let expected = Q.(spec.G.utilization * alpha) in
        if not (Q.equal u expected || Q.equal u Q.zero) then
          Alcotest.failf "seed %d platform %d: utilization %s, expected %s or 0"
            seed r (Q.to_string u) (Q.to_string expected))
      sys.Sys_.resources
  done

let test_system_respects_sizes () =
  let spec = { G.default_spec with G.n_resources = 2; n_txns = 7; max_tasks_per_txn = 3 } in
  let sys = G.system ~seed:4 spec in
  Alcotest.(check int) "transactions" 7 (Sys_.n_transactions sys);
  Alcotest.(check int) "resources" 2 (Sys_.n_resources sys);
  Array.iter
    (fun (x : Transaction.Txn.t) ->
      Alcotest.(check bool) "task count bounded" true
        (Transaction.Txn.length x >= 1 && Transaction.Txn.length x <= 3))
    sys.Sys_.transactions

let test_server_platforms_mode () =
  let spec = { G.default_spec with G.server_platforms = true } in
  let sys = G.system ~seed:5 spec in
  Array.iter
    (fun (r : Platform.Resource.t) ->
      match r.Platform.Resource.supply with
      | Platform.Supply.Periodic_server _ -> ()
      | _ -> Alcotest.fail "expected server supplies")
    sys.Sys_.resources

let test_generated_analysable () =
  (* moderate-utilisation generated systems converge and are mostly
     schedulable; the analysis never raises *)
  let schedulable = ref 0 in
  for seed = 1 to 20 do
    let sys = G.system ~seed G.default_spec in
    let r = Analysis.Engine.(analyze (create_system sys)) in
    if r.Analysis.Report.schedulable then incr schedulable
  done;
  Alcotest.(check bool) "most schedulable at 50% load" true (!schedulable >= 15)

let test_chain_assembly_valid () =
  for seed = 1 to 6 do
    let asm =
      G.chain_assembly ~seed ~n_chains:3 ~chain_length:2 ~cross_host:(seed mod 2 = 0) ()
    in
    match Component.Assembly.validate asm with
    | Ok () -> ()
    | Error es -> Alcotest.failf "seed %d: %s" seed (String.concat "; " es)
  done

let test_chain_assembly_shapes () =
  let asm = G.chain_assembly ~seed:2 ~n_chains:2 ~chain_length:3 () in
  Alcotest.(check int) "2 clients + 6 servers" 8 (List.length asm.Component.Assembly.instances);
  Alcotest.(check int) "binding per hop" 6 (List.length asm.Component.Assembly.bindings);
  let sys = Transaction.Derive.derive_exn asm in
  Alcotest.(check int) "one transaction per chain" 2 (Sys_.n_transactions sys);
  (* client task + 3 server tasks per chain; no messages on one host *)
  Array.iter
    (fun (x : Transaction.Txn.t) ->
      Alcotest.(check int) "tasks per chain" 4 (Transaction.Txn.length x))
    sys.Sys_.transactions

let test_cross_host_has_messages () =
  let asm = G.chain_assembly ~seed:2 ~n_chains:1 ~chain_length:2 ~cross_host:true () in
  let sys = Transaction.Derive.derive_exn asm in
  let tx = sys.Sys_.transactions.(0) in
  let messages =
    Array.to_list tx.Transaction.Txn.tasks
    |> List.filter (fun (t : Transaction.Task.t) ->
           match t.Transaction.Task.source with
           | Transaction.Task.Message _ -> true
           | _ -> false)
  in
  Alcotest.(check bool) "messages derived" true (List.length messages > 0)

let () =
  Alcotest.run "workload"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "uunifast",
        [
          Alcotest.test_case "exact sums" `Quick test_uunifast_sums_exactly;
          Alcotest.test_case "spread" `Quick test_uunifast_spread;
        ] );
      ( "systems",
        [
          Alcotest.test_case "deterministic" `Quick test_system_deterministic;
          Alcotest.test_case "utilization budget" `Quick test_system_utilization_budget;
          Alcotest.test_case "sizes" `Quick test_system_respects_sizes;
          Alcotest.test_case "server platforms" `Quick test_server_platforms_mode;
          Alcotest.test_case "analysable" `Quick test_generated_analysable;
        ] );
      ( "assemblies",
        [
          Alcotest.test_case "valid" `Quick test_chain_assembly_valid;
          Alcotest.test_case "shapes" `Quick test_chain_assembly_shapes;
          Alcotest.test_case "cross-host messages" `Quick test_cross_host_has_messages;
        ] );
    ]
