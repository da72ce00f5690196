(* The component model: constructors enforce local consistency, assembly
   validation reports every architecture-level mistake. *)

module Q = Rational
module LB = Platform.Linear_bound
module R = Platform.Resource
module M = Component.Method_sig
module Th = Component.Thread
module Comp = Component.Comp
module A = Component.Assembly

let q = Q.of_decimal_string

let expect_invalid msg f =
  match f () with
  | _ -> Alcotest.fail (msg ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let task ?priority name wcet =
  Th.Task { name; wcet = q wcet; bcet = q wcet; blocking = None; priority }

let simple_thread ?(priority = 1) name body =
  Th.make ~name
    ~activation:
      (Th.Periodic { period = q "10"; deadline = q "10"; jitter = Q.zero })
    ~priority body

(* --- methods --- *)

let test_method_sig () =
  let m = M.make ~name:"read" ~mit:(q "50") in
  Alcotest.(check string) "name" "read" m.M.name;
  expect_invalid "zero mit" (fun () -> M.make ~name:"x" ~mit:Q.zero);
  expect_invalid "empty name" (fun () -> M.make ~name:"" ~mit:Q.one)

(* --- threads --- *)

let test_thread_construction () =
  let t = simple_thread "T" [ task "a" "1"; Th.Call { method_name = "m" } ] in
  Alcotest.(check bool) "periodic" true (Th.is_periodic t);
  Alcotest.(check (list string)) "calls" [ "m" ] (Th.called_methods t);
  Alcotest.(check string) "demand" "1" (Q.to_string (Th.demand t));
  let e =
    Th.make ~name:"E"
      ~activation:(Th.Realizes { method_name = "serve"; deadline = None })
      ~priority:2
      [ task "b" "2" ]
  in
  Alcotest.(check bool) "event" false (Th.is_periodic e);
  Alcotest.(check (option string)) "realizes" (Some "serve") (Th.realized_method e)

let test_thread_validation () =
  expect_invalid "empty body" (fun () -> simple_thread "T" []);
  expect_invalid "zero priority" (fun () -> simple_thread ~priority:0 "T" [ task "a" "1" ]);
  expect_invalid "bad wcet" (fun () -> simple_thread "T" [ task "a" "0" ]);
  expect_invalid "bcet > wcet" (fun () ->
      simple_thread "T"
        [ Th.Task { name = "a"; wcet = q "1"; bcet = q "2"; blocking = None; priority = None } ]);
  expect_invalid "bad override" (fun () ->
      simple_thread "T" [ task ~priority:0 "a" "1" ]);
  expect_invalid "zero period" (fun () ->
      Th.make ~name:"T"
        ~activation:(Th.Periodic { period = Q.zero; deadline = q "10"; jitter = Q.zero })
        ~priority:1 [ task "a" "1" ])

(* --- component classes --- *)

let serving_component ?(name = "C") () =
  Comp.make ~name
    ~provided:[ M.make ~name:"serve" ~mit:(q "20") ]
    ~required:[ M.make ~name:"helper" ~mit:(q "20") ]
    [
      Th.make ~name:"Handler"
        ~activation:(Th.Realizes { method_name = "serve"; deadline = None })
        ~priority:1
        [ task "work" "1"; Th.Call { method_name = "helper" } ];
    ]

let test_comp_construction () =
  let c = serving_component () in
  Alcotest.(check bool) "finds provided" true (Comp.find_provided c "serve" <> None);
  Alcotest.(check bool) "finds required" true (Comp.find_required c "helper" <> None);
  Alcotest.(check bool) "finds realizer" true (Comp.realizer c "serve" <> None);
  Alcotest.(check bool) "no such method" true (Comp.find_provided c "nope" = None)

let test_comp_validation () =
  expect_invalid "provided without realizer" (fun () ->
      Comp.make ~name:"C"
        ~provided:[ M.make ~name:"serve" ~mit:(q "20") ]
        ~required:[]
        [ simple_thread "T" [ task "a" "1" ] ]);
  expect_invalid "two realizers" (fun () ->
      let r name =
        Th.make ~name
          ~activation:(Th.Realizes { method_name = "serve"; deadline = None })
          ~priority:1 [ task "a" "1" ]
      in
      Comp.make ~name:"C"
        ~provided:[ M.make ~name:"serve" ~mit:(q "20") ]
        ~required:[] [ r "T1"; r "T2" ]);
  expect_invalid "realizes unknown method" (fun () ->
      Comp.make ~name:"C" ~provided:[] ~required:[]
        [
          Th.make ~name:"T"
            ~activation:(Th.Realizes { method_name = "ghost"; deadline = None })
            ~priority:1 [ task "a" "1" ];
        ]);
  expect_invalid "calls undeclared method" (fun () ->
      Comp.make ~name:"C" ~provided:[] ~required:[]
        [ simple_thread "T" [ Th.Call { method_name = "ghost" } ] ]);
  expect_invalid "duplicate thread names" (fun () ->
      Comp.make ~name:"C" ~provided:[] ~required:[]
        [ simple_thread "T" [ task "a" "1" ]; simple_thread "T" [ task "b" "1" ] ])

(* --- assemblies --- *)

let client_component ?(period = "10") ?(mit = "10") () =
  Comp.make ~name:"Client" ~provided:[]
    ~required:[ M.make ~name:"go" ~mit:(q mit) ]
    [
      Th.make ~name:"Main"
        ~activation:
          (Th.Periodic { period = q period; deadline = q period; jitter = Q.zero })
        ~priority:1
        [ task "pre" "1"; Th.Call { method_name = "go" } ];
    ]

let server_component () =
  Comp.make ~name:"Server"
    ~provided:[ M.make ~name:"serve" ~mit:(q "10") ]
    ~required:[]
    [
      Th.make ~name:"H"
        ~activation:(Th.Realizes { method_name = "serve"; deadline = None })
        ~priority:1 [ task "work" "1" ];
    ]

let cpu ?(host = "n1") name = R.of_bound ~host ~name (LB.make ~alpha:Q.one ~delta:Q.zero ~beta:Q.zero)

let net name = R.of_bound ~kind:R.Network ~host:"wire" ~name LB.full

let good_assembly () =
  A.make
    ~classes:[ client_component (); server_component () ]
    ~resources:[ cpu "C1"; cpu "C2" ]
    ~instances:[ { A.iname = "c"; cls = "Client" }; { A.iname = "s"; cls = "Server" } ]
    ~bindings:
      [ { A.caller = "c"; required = "go"; callee = "s"; provided = "serve"; via = None } ]
    ~allocation:[ ("c", "C1"); ("s", "C2") ]

let errors_of asm = match A.validate asm with Ok () -> [] | Error es -> es

let contains hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let assert_error asm fragment =
  let es = errors_of asm in
  if not (List.exists (fun e -> contains e fragment) es) then
    Alcotest.failf "expected a diagnostic mentioning %S, got: %s" fragment
      (String.concat " | " es)

let test_valid_assembly () =
  Alcotest.(check (list string)) "no diagnostics" [] (errors_of (good_assembly ()))

let test_assembly_errors () =
  let base = good_assembly () in
  (* unknown class *)
  assert_error
    { base with A.instances = { A.iname = "x"; cls = "Ghost" } :: base.A.instances }
    "unknown class";
  (* unallocated instance *)
  assert_error { base with A.allocation = [ ("s", "C2") ] } "not allocated";
  (* allocation to network *)
  assert_error
    {
      base with
      A.resources = base.A.resources @ [ net "N" ];
      allocation = [ ("c", "N"); ("s", "C2") ];
    }
    "non-CPU";
  (* unbound required method *)
  assert_error { base with A.bindings = [] } "unbound";
  (* double binding *)
  assert_error
    { base with A.bindings = base.A.bindings @ base.A.bindings }
    "more than once";
  (* binding to missing method *)
  assert_error
    {
      base with
      A.bindings =
        [ { A.caller = "c"; required = "go"; callee = "s"; provided = "ghost"; via = None } ];
    }
    "does not provide";
  (* cross-host without a link *)
  assert_error
    {
      base with
      A.resources = [ cpu "C1"; cpu ~host:"n2" "C2" ];
    }
    "need a network link"

let test_mit_compatibility () =
  (* client declares it may call every 5 but the server tolerates 10 *)
  let asm =
    let fast_client = client_component ~period:"5" ~mit:"5" () in
    A.make
      ~classes:[ fast_client; server_component () ]
      ~resources:[ cpu "C1"; cpu "C2" ]
      ~instances:[ { A.iname = "c"; cls = "Client" }; { A.iname = "s"; cls = "Server" } ]
      ~bindings:
        [ { A.caller = "c"; required = "go"; callee = "s"; provided = "serve"; via = None } ]
      ~allocation:[ ("c", "C1"); ("s", "C2") ]
  in
  assert_error asm "below the provided MIT"

let test_aggregate_rate () =
  (* two clients each calling every 10 into a server tolerating 10:
     aggregate rate 2/10 > 1/10 *)
  let asm =
    A.make
      ~classes:[ client_component (); server_component () ]
      ~resources:[ cpu "C1"; cpu "C2"; cpu "C3" ]
      ~instances:
        [
          { A.iname = "c1"; cls = "Client" };
          { A.iname = "c2"; cls = "Client" };
          { A.iname = "s"; cls = "Server" };
        ]
      ~bindings:
        [
          { A.caller = "c1"; required = "go"; callee = "s"; provided = "serve"; via = None };
          { A.caller = "c2"; required = "go"; callee = "s"; provided = "serve"; via = None };
        ]
      ~allocation:[ ("c1", "C1"); ("c2", "C2"); ("s", "C3") ]
  in
  assert_error asm "aggregate caller rate"

let test_thread_period_vs_declared_mit () =
  (* the thread calls every 5 yet the component declared MIT 10 *)
  let lying_client =
    Comp.make ~name:"Client" ~provided:[]
      ~required:[ M.make ~name:"go" ~mit:(q "10") ]
      [
        Th.make ~name:"Main"
          ~activation:(Th.Periodic { period = q "5"; deadline = q "5"; jitter = Q.zero })
          ~priority:1
          [ Th.Call { method_name = "go" } ];
      ]
  in
  let asm =
    A.make
      ~classes:[ lying_client; server_component () ]
      ~resources:[ cpu "C1"; cpu "C2" ]
      ~instances:[ { A.iname = "c"; cls = "Client" }; { A.iname = "s"; cls = "Server" } ]
      ~bindings:
        [ { A.caller = "c"; required = "go"; callee = "s"; provided = "serve"; via = None } ]
      ~allocation:[ ("c", "C1"); ("s", "C2") ]
  in
  assert_error asm "declared MIT"

let test_rpc_cycle () =
  (* two components calling each other: deadlock under synchronous RPC *)
  let ping =
    Comp.make ~name:"Ping"
      ~provided:[ M.make ~name:"p" ~mit:(q "10") ]
      ~required:[ M.make ~name:"q" ~mit:(q "10") ]
      [
        Th.make ~name:"H"
          ~activation:(Th.Realizes { method_name = "p"; deadline = None })
          ~priority:1
          [ task "w" "1"; Th.Call { method_name = "q" } ];
      ]
  in
  let pong =
    Comp.make ~name:"Pong"
      ~provided:[ M.make ~name:"q" ~mit:(q "10") ]
      ~required:[ M.make ~name:"p" ~mit:(q "10") ]
      [
        Th.make ~name:"H"
          ~activation:(Th.Realizes { method_name = "q"; deadline = None })
          ~priority:1
          [ task "w" "1"; Th.Call { method_name = "p" } ];
      ]
  in
  let asm =
    A.make ~classes:[ ping; pong ]
      ~resources:[ cpu "C1"; cpu "C2" ]
      ~instances:[ { A.iname = "a"; cls = "Ping" }; { A.iname = "b"; cls = "Pong" } ]
      ~bindings:
        [
          { A.caller = "a"; required = "q"; callee = "b"; provided = "q"; via = None };
          { A.caller = "b"; required = "p"; callee = "a"; provided = "p"; via = None };
        ]
      ~allocation:[ ("a", "C1"); ("b", "C2") ]
  in
  assert_error asm "RPC cycle"

let test_link_validation () =
  let base = good_assembly () in
  let with_link via =
    {
      base with
      A.resources = [ cpu "C1"; cpu ~host:"n2" "C2"; net "N" ];
      bindings =
        [ { A.caller = "c"; required = "go"; callee = "s"; provided = "serve"; via } ];
    }
  in
  Alcotest.(check (list string)) "good link" []
    (errors_of
       (with_link
          (Some { A.network = "N"; priority = 1; request = (Q.one, Q.one); reply = None })));
  assert_error
    (with_link
       (Some { A.network = "Ghost"; priority = 1; request = (Q.one, Q.one); reply = None }))
    "unknown network";
  assert_error
    (with_link
       (Some { A.network = "C1"; priority = 1; request = (Q.one, Q.one); reply = None }))
    "is not a network platform";
  assert_error
    (with_link
       (Some { A.network = "N"; priority = 0; request = (Q.one, Q.one); reply = None }))
    "message priority";
  assert_error
    (with_link
       (Some { A.network = "N"; priority = 1; request = (Q.zero, Q.zero); reply = None }))
    "request wcet"

(* One assembly exhibiting every diagnostic kind at once.  The expected
   list pins the exact text and order [validate] reports them in, so the
   name-indexed lookups inside it cannot reword or reorder anything. *)
let every_error_assembly () =
  let requiring ~name ~mit ~period =
    Comp.make ~name ~provided:[]
      ~required:[ M.make ~name:"go" ~mit:(q mit) ]
      [
        Th.make ~name:"Main"
          ~activation:
            (Th.Periodic { period = q period; deadline = q period; jitter = Q.zero })
          ~priority:1
          [ task "pre" "1"; Th.Call { method_name = "go" } ];
      ]
  in
  let peer ~name ~provides ~requires =
    Comp.make ~name
      ~provided:[ M.make ~name:provides ~mit:(q "10") ]
      ~required:[ M.make ~name:requires ~mit:(q "10") ]
      [
        Th.make ~name:"H"
          ~activation:(Th.Realizes { method_name = provides; deadline = None })
          ~priority:1
          [ task "w" "1"; Th.Call { method_name = requires } ];
      ]
  in
  let bind ?via caller required callee provided =
    { A.caller; required; callee; provided; via }
  in
  let link ?reply ~priority network request =
    { A.network; priority; request; reply }
  in
  A.make
    ~classes:
      [
        client_component ();
        server_component ();
        client_component ~mit:"5" ~period:"5" ();
        requiring ~name:"Fast" ~mit:"5" ~period:"5";
        requiring ~name:"Lying" ~mit:"10" ~period:"5";
        peer ~name:"Ping" ~provides:"p" ~requires:"q";
        peer ~name:"Pong" ~provides:"q" ~requires:"p";
      ]
    ~resources:[ cpu "C1"; cpu ~host:"n2" "C2"; net "N"; net "C1" ]
    ~instances:
      [
        { A.iname = "c"; cls = "Client" };
        { A.iname = "s"; cls = "Server" };
        { A.iname = "x"; cls = "Ghost" };
        { A.iname = "u"; cls = "Client" };
        { A.iname = "w"; cls = "Server" };
        { A.iname = "n"; cls = "Server" };
        { A.iname = "f"; cls = "Fast" };
        { A.iname = "l"; cls = "Lying" };
        { A.iname = "a"; cls = "Ping" };
        { A.iname = "b"; cls = "Pong" };
        { A.iname = "s"; cls = "Pong" };
      ]
    ~bindings:
      [
        bind "c" "go" "s" "serve";
        bind "zz" "go" "s" "serve";
        bind "c" "go" "qq" "serve";
        bind "c" "nope" "s" "serve";
        bind "f" "go" "w" "ghost";
        bind "f" "go" "n" "serve";
        bind "l" "go" "w" "serve"
          ~via:
            (link "Ghost" ~priority:0 (Q.zero, Q.zero)
               ~reply:(Q.one, q "2"));
        bind "l" "go" "s" "serve" ~via:(link "C1" ~priority:1 (Q.one, Q.one));
        bind "a" "q" "b" "q";
        bind "b" "p" "a" "p";
      ]
    ~allocation:
      [
        ("c", "C1");
        ("s", "C2");
        ("x", "C1");
        ("w", "Nowhere");
        ("n", "N");
        ("f", "C1");
        ("l", "C1");
        ("a", "C1");
        ("b", "C1");
        ("ghost", "C1");
        ("s", "N");
      ]

let test_every_diagnostic () =
  Alcotest.(check (list string))
    "exact diagnostics, in order"
    [
      "duplicate class Client";
      "duplicate instance s";
      "duplicate resource C1";
      "x: unknown class Ghost";
      "u: not allocated to any platform";
      "w: allocated to unknown platform Nowhere";
      "n: allocated to non-CPU platform N";
      "allocation of unknown instance ghost";
      "c.go: instances on different hosts need a network link";
      "zz.go: unknown caller instance";
      "c.go: unknown callee qq";
      "c.nope: Client has no such required method";
      "c.nope: instances on different hosts need a network link";
      "f.go: Server does not provide ghost";
      "f.go: caller MIT 5 is below the provided MIT 10";
      "f.go: instances on different hosts need a network link";
      "l.go: message priority must be > 0";
      "l.go: request wcet must be > 0";
      "l.go: reply needs 0 <= bcet <= wcet";
      "l.go: unknown network Ghost";
      "l.go: C1 is not a network platform";
      "c.go: bound more than once";
      "u.go: required method unbound";
      "f.go: bound more than once";
      "l.go: bound more than once";
      "s.p: required method unbound";
      "s.serve: aggregate caller rate exceeds the provided MIT";
      "n.serve: aggregate caller rate exceeds the provided MIT";
      "l.Main calls go every 5 but declared MIT 10";
      "RPC cycle: a -> b -> a";
    ]
    (errors_of (every_error_assembly ()))

let test_lookups () =
  let asm = good_assembly () in
  let idx = A.index asm in
  Alcotest.(check string) "class_of" "Client" (A.class_of idx "c").Comp.name;
  Alcotest.(check string) "resource_of" "C2" (A.resource_of idx "s").R.name;
  Alcotest.(check int) "resource_index" 1 (A.resource_index idx "C2");
  Alcotest.(check bool) "binding_for" true
    (A.binding_for idx ~caller:"c" ~required:"go" <> None);
  Alcotest.(check int) "callers" 1
    (List.length (A.callers idx ~callee:"s" ~provided:"serve"));
  Alcotest.(check (list (pair string string))) "call graph" [ ("c", "s") ]
    (A.call_graph asm)

let () =
  Alcotest.run "component"
    [
      ("method_sig", [ Alcotest.test_case "basics" `Quick test_method_sig ]);
      ( "thread",
        [
          Alcotest.test_case "construction" `Quick test_thread_construction;
          Alcotest.test_case "validation" `Quick test_thread_validation;
        ] );
      ( "comp",
        [
          Alcotest.test_case "construction" `Quick test_comp_construction;
          Alcotest.test_case "validation" `Quick test_comp_validation;
        ] );
      ( "assembly",
        [
          Alcotest.test_case "valid assembly" `Quick test_valid_assembly;
          Alcotest.test_case "structural errors" `Quick test_assembly_errors;
          Alcotest.test_case "MIT compatibility" `Quick test_mit_compatibility;
          Alcotest.test_case "aggregate rate" `Quick test_aggregate_rate;
          Alcotest.test_case "period vs declared MIT" `Quick
            test_thread_period_vs_declared_mit;
          Alcotest.test_case "RPC cycle" `Quick test_rpc_cycle;
          Alcotest.test_case "link validation" `Quick test_link_validation;
          Alcotest.test_case "lookups" `Quick test_lookups;
          Alcotest.test_case "every diagnostic pinned" `Quick
            test_every_diagnostic;
        ] );
    ]
