(* The .hsc language: lexing, parsing, elaboration, validation wiring,
   the print/parse round-trip, and mutated sources that must fail
   cleanly. *)

module Q = Rational
module L = Spec.Lexer
module A = Component.Assembly

let q = Q.of_decimal_string

let tokens src =
  match L.tokenize src with
  | Ok ts -> List.map (fun (t : L.located) -> t.L.token) ts
  | Error e -> Alcotest.fail e

let contains hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* A parse error starts with the line and column of its token. *)
let located e =
  Scanf.sscanf_opt e "line %u, column %u: " (fun _ _ -> ()) <> None

(* --- lexer --- *)

let test_lexer_basics () =
  Alcotest.(check bool) "idents and punctuation" true
    (tokens "platform P1 { }"
    = [ L.IDENT "platform"; L.IDENT "P1"; L.LBRACE; L.RBRACE; L.EOF ]);
  Alcotest.(check bool) "numbers" true
    (tokens "1 0.8 2/5 -3"
    = [
        L.NUMBER Q.one;
        L.NUMBER (q "0.8");
        L.NUMBER (q "2/5");
        L.NUMBER (q "-3");
        L.EOF;
      ]);
  Alcotest.(check bool) "arrow and dot" true
    (tokens "a.b -> c" = [ L.IDENT "a"; L.DOT; L.IDENT "b"; L.ARROW; L.IDENT "c"; L.EOF ]);
  Alcotest.(check bool) "string" true
    (tokens "host = \"node1\";"
    = [ L.IDENT "host"; L.EQUALS; L.STRING "node1"; L.SEMI; L.EOF ])

let test_lexer_comments () =
  Alcotest.(check bool) "comment to eol" true
    (tokens "a // comment ; { }\nb" = [ L.IDENT "a"; L.IDENT "b"; L.EOF ])

let test_lexer_errors () =
  (match L.tokenize "a $ b" with
  | Error e ->
      Alcotest.(check bool) "position reported" true
        (String.length e > 0 && e.[0] = 'l')
  | Ok _ -> Alcotest.fail "expected lexer error");
  match L.tokenize "\"unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected lexer error"

(* Literals that do not fit a native int are a located lexer error,
   whether the overflow is in the integer part or in a long fraction. *)
let test_lexer_out_of_range () =
  List.iter
    (fun (src, expected) ->
      match L.tokenize src with
      | Error e -> Alcotest.(check string) src expected e
      | Ok _ -> Alcotest.failf "expected a lexer error for %s" src)
    [
      ( "wcet =\n  0.0000000000000000000001;",
        "line 2, column 3: bad number 0.0000000000000000000001" );
      ( "x = 12345678901234567890",
        "line 1, column 5: bad number 12345678901234567890" );
      ("deadline = 2/0;", "line 1, column 12: bad number 2/0");
    ]

let test_lexer_positions () =
  match L.tokenize "a\n  b" with
  | Ok [ _; b; _ ] ->
      Alcotest.(check int) "line" 2 b.L.line;
      Alcotest.(check int) "col" 3 b.L.col
  | Ok _ | Error _ -> Alcotest.fail "unexpected shape"

(* --- a complete source --- *)

let source =
  {|
// the paper's sensor fusion system
platform P1 { alpha = 0.4; delta = 1; beta = 1; host = "node1"; }
platform P2 { alpha = 0.4; delta = 1; beta = 1; host = "node1"; }
platform P3 { alpha = 0.2; delta = 2; beta = 1; host = "node1"; }

component SensorReading {
  provided:
    read() mit 50;
  implementation:
    scheduler fixed_priority;
    thread Thread1 periodic(period = 15, deadline = 15) priority 2 {
      task poll(wcet = 1, bcet = 0.25);
    }
    thread Thread2 realizes read() priority 1 {
      task serve(wcet = 1, bcet = 0.8);
    }
}

component SensorIntegration {
  provided:
    read() mit 70;
  required:
    readSensor1() mit 50;
    readSensor2() mit 50;
  implementation:
    scheduler fixed_priority;
    thread Thread1 realizes read() priority 1 {
      task serve(wcet = 7, bcet = 5);
    }
    thread Thread2 periodic(period = 50, deadline = 50) priority 2 {
      task init(wcet = 1, bcet = 0.8);
      call readSensor1();
      call readSensor2();
      task compute(wcet = 1, bcet = 0.8) priority 3;
    }
}

instance Integrator : SensorIntegration on P3;
instance Sensor1 : SensorReading on P1;
instance Sensor2 : SensorReading on P2;
bind Integrator.readSensor1 -> Sensor1.read;
bind Integrator.readSensor2 -> Sensor2.read;
|}

let load_ok src =
  match Spec.load src with
  | Ok asm -> asm
  | Error es -> Alcotest.failf "load failed: %s" (String.concat " | " es)

let test_full_example_parses () =
  let asm = load_ok source in
  Alcotest.(check int) "platforms" 3 (List.length asm.A.resources);
  Alcotest.(check int) "classes" 2 (List.length asm.A.classes);
  Alcotest.(check int) "instances" 3 (List.length asm.A.instances);
  Alcotest.(check int) "bindings" 2 (List.length asm.A.bindings)

let test_parsed_equals_programmatic () =
  (* the .hsc source and Paper_example must produce the same analysis *)
  let asm = load_ok source in
  let sys = Transaction.Derive.derive_exn asm in
  let r = Analysis.Engine.(analyze (create_system sys)) in
  let reference = Hsched.Paper_example.report () in
  Alcotest.(check bool) "same verdict" reference.Analysis.Report.schedulable
    r.Analysis.Report.schedulable;
  Array.iteri
    (fun a row ->
      Array.iteri
        (fun b (res : Analysis.Report.task_result) ->
          Alcotest.(check bool)
            (Printf.sprintf "response %d,%d" a b)
            true
            (Analysis.Report.equal_bound res.Analysis.Report.response
               reference.Analysis.Report.results.(a).(b).Analysis.Report.response))
        row)
    r.Analysis.Report.results

let test_supply_forms () =
  let asm =
    load_ok
      {|
platform Full { full; }
platform Srv { server(budget = 2, period = 5); }
platform Fair { pfair(weight = 0.5); }
platform Tdma { slots(frame = 10) [0, 2] [5, 3]; }
platform Net network { alpha = 0.5; }
component C {
  implementation:
    scheduler fixed_priority;
    thread T periodic(period = 10, deadline = 10) priority 1 {
      task w(wcet = 1, bcet = 1);
    }
}
instance c : C on Full;
|}
  in
  Alcotest.(check int) "5 platforms" 5 (List.length asm.A.resources);
  let kind name =
    (List.find (fun (r : Platform.Resource.t) -> r.Platform.Resource.name = name)
       asm.A.resources).Platform.Resource.kind
  in
  Alcotest.(check bool) "network kind" true (kind "Net" = Platform.Resource.Network)

let test_parse_errors () =
  let expect_error src fragment =
    match Spec.load src with
    | Ok _ -> Alcotest.failf "expected failure for %s" fragment
    | Error es ->
        if not (List.exists (fun e -> contains e fragment) es) then
          Alcotest.failf "diagnostics %s lack %S" (String.concat " | " es) fragment
  in
  (* Faults only the end of a platform shows point at its brace; a
     second supply model at its keyword; a server without a period at
     its closing parenthesis. *)
  expect_error "platform P1 { }"
    "line 1, column 15: platform P1: no supply specified";
  expect_error "platform P1 { alpha = 0.4; full; }"
    "line 1, column 34: platform P1: give either alpha/delta/beta or a \
     supply model";
  expect_error "platform P1 { full;\n  server(budget = 1, period = 2); }"
    "line 2, column 3: platform P1: two supply models";
  expect_error "platform P1 { server(budget = 1); }"
    "line 1, column 32: server needs a period";
  expect_error "garbage" "expected 'platform'";
  expect_error "platform P1 { alpha = 0.4; } instance x : C on P1;" "unknown class";
  expect_error
    {|platform P1 { alpha = 0.4; }
component C {
  implementation:
    scheduler fixed_priority;
    thread T periodic(period = 10) priority 1 { task w(wcet = 1); }
}
instance c : C on P1;
instance c : C on P1;|}
    "duplicate instance";
  expect_error "platform P1 { alpha = 0.4 }" "expected ';'"

let test_validation_is_wired () =
  (* spec.load must run Assembly.validate: unbound required method *)
  match
    Spec.load
      {|
platform P1 { alpha = 1; }
component C {
  required:
    go() mit 10;
  implementation:
    scheduler fixed_priority;
    thread T periodic(period = 10) priority 1 {
      call go();
    }
}
instance c : C on P1;
|}
  with
  | Ok _ -> Alcotest.fail "expected validation error"
  | Error es ->
      Alcotest.(check bool) "mentions unbound" true
        (List.exists (fun e -> contains e "unbound") es)

let test_jitter_and_blocking_annotations () =
  (* jitter/blocking written in .hsc flow into the analysis model and
     the simulator *)
  let asm =
    load_ok
      {|
platform P1 { alpha = 1; }
component C {
  implementation:
    scheduler fixed_priority;
    thread T periodic(period = 20, deadline = 20, jitter = 5) priority 1 {
      task w(wcet = 2, bcet = 1, blocking = 3);
    }
}
instance c : C on P1;
|}
  in
  let sys = Transaction.Derive.derive_exn asm in
  let tx = sys.Transaction.System.transactions.(0) in
  Alcotest.(check string) "txn jitter" "5"
    (Q.to_string tx.Transaction.Txn.release_jitter);
  Alcotest.(check string) "task blocking" "3"
    (Q.to_string (Transaction.Txn.task tx 0).Transaction.Task.blocking);
  let m = Analysis.Model.of_system sys in
  Alcotest.(check string) "model jitter" "5"
    (Q.to_string m.Analysis.Model.release_jitter.(0));
  Alcotest.(check string) "model blocking" "3"
    (Q.to_string m.Analysis.Model.blocking.(0).(0));
  (* analysis: R = J + B + C = 5 + 3 + 2 = 10 *)
  let r = Analysis.Engine.(analyze (create m)) in
  (match r.Analysis.Report.results.(0).(0).Analysis.Report.response with
  | Analysis.Report.Divergent -> Alcotest.fail "divergent"
  | Analysis.Report.Finite x -> Alcotest.(check string) "R" "10" (Q.to_string x));
  (* simulator injects the annotated jitter by default: R = 5 + 2 = 7 *)
  let res =
    Simulator.Engine.run
      ~config:
        { Simulator.Engine.default_config with horizon = Q.of_int 200 }
      sys
  in
  match Simulator.Stats.sample res.Simulator.Engine.stats ~txn:0 ~task:0 with
  | None -> Alcotest.fail "no samples"
  | Some s ->
      Alcotest.(check string) "sim R includes jitter" "7"
        (Q.to_string s.Simulator.Stats.max_response)

let test_annotations_round_trip () =
  let asm =
    load_ok
      {|
platform P1 { alpha = 1; }
component C {
  implementation:
    scheduler fixed_priority;
    thread T periodic(period = 20, deadline = 15, jitter = 5) priority 1 {
      task w(wcet = 2, bcet = 1, blocking = 3) priority 4;
    }
}
instance c : C on P1;
|}
  in
  let printed = Spec.to_string asm in
  let asm2 = load_ok printed in
  Alcotest.(check string) "stable" printed (Spec.to_string asm2);
  (* the annotations survived *)
  let sys = Transaction.Derive.derive_exn asm2 in
  let tx = sys.Transaction.System.transactions.(0) in
  Alcotest.(check string) "jitter kept" "5"
    (Q.to_string tx.Transaction.Txn.release_jitter);
  Alcotest.(check string) "blocking kept" "3"
    (Q.to_string (Transaction.Txn.task tx 0).Transaction.Task.blocking);
  Alcotest.(check int) "priority kept" 4
    (Transaction.Txn.task tx 0).Transaction.Task.priority

let test_nested_supply_syntax () =
  let asm =
    load_ok
      {|
platform P1 { server(budget = 1, period = 4) within slots(frame = 2) [0, 1]; }
platform P2 { server(budget = 1, period = 8) within server(budget = 2, period = 4) within bounded(alpha = 1/2); }
component C {
  implementation:
    scheduler fixed_priority;
    thread T periodic(period = 200, deadline = 200) priority 1 {
      task w(wcet = 1, bcet = 1);
    }
}
instance c : C on P1;
|}
  in
  let p1 =
    List.find
      (fun (r : Platform.Resource.t) -> r.Platform.Resource.name = "P1")
      asm.A.resources
  in
  (* composed abstraction: alpha = 1/8, delta = 1 + 6/(1/2) = 13 *)
  Alcotest.(check string) "alpha" "1/8"
    (Q.to_string p1.Platform.Resource.bound.Platform.Linear_bound.alpha);
  Alcotest.(check string) "delta" "13"
    (Q.to_string p1.Platform.Resource.bound.Platform.Linear_bound.delta);
  (* right-associative triple nesting parses and elaborates *)
  let p2 =
    List.find
      (fun (r : Platform.Resource.t) -> r.Platform.Resource.name = "P2")
      asm.A.resources
  in
  (match p2.Platform.Resource.supply with
  | Platform.Supply.Nested
      { inner = Platform.Supply.Periodic_server _; outer = Platform.Supply.Nested _ }
    ->
      ()
  | _ -> Alcotest.fail "expected right-nested supply");
  (* the printed form reloads identically *)
  let printed = Spec.to_string asm in
  let asm2 = load_ok printed in
  Alcotest.(check string) "round trip" printed (Spec.to_string asm2)

let test_keyword_args_errors () =
  let expect_parse_error ?(says = "") src =
    match Spec.load src with
    | Ok _ -> Alcotest.failf "expected parse error for %s" src
    | Error es ->
        if not (List.exists (fun e -> contains e says) es) then
          Alcotest.failf "diagnostics %s lack %S" (String.concat " | " es) says
  in
  let wrap body =
    {|platform P1 { alpha = 1; }
component C { implementation: scheduler fixed_priority;
  thread T periodic(period = 10) priority 1 { |} ^ body
    ^ {| } } instance c : C on P1;|}
  in
  (* missing mandatory wcet, reported at the closing parenthesis *)
  expect_parse_error (wrap "task w(bcet = 1);")
    ~says:"line 3, column 62: missing argument 'wcet'";
  expect_parse_error (wrap "task w(wcet = 1, wcet = 2);");
  (* duplicate *)
  expect_parse_error (wrap "task w(wcet = 1, nonsense = 2);")

(* --- round trip --- *)

let test_round_trip_paper () =
  let asm = Hsched.Paper_example.assembly () in
  let printed = Spec.to_string asm in
  let asm2 = load_ok printed in
  let printed2 = Spec.to_string asm2 in
  Alcotest.(check string) "print is a fixed point" printed printed2

let test_round_trip_generated () =
  for seed = 1 to 6 do
    let asm =
      Workload.Gen.chain_assembly ~seed ~n_chains:2 ~chain_length:2
        ~cross_host:(seed mod 2 = 0) ()
    in
    let printed = Spec.to_string asm in
    match Spec.load printed with
    | Error es ->
        Alcotest.failf "seed %d: reload failed: %s\n%s" seed
          (String.concat " | " es) printed
    | Ok asm2 ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d stable" seed)
          printed (Spec.to_string asm2)
  done

let test_load_file () =
  let path = Filename.temp_file "hsched" ".hsc" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc source);
  (match Spec.load_file path with
  | Ok _ -> ()
  | Error es -> Alcotest.failf "load_file: %s" (String.concat " | " es));
  Sys.remove path;
  match Spec.load_file "/nonexistent/x.hsc" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected IO error"

(* --- hostile input: mutated sources --- *)

(* The shipped examples; `dune runtest` runs from the test directory,
   `dune exec` from the workspace root. *)
let example_sources =
  lazy
    (List.map
       (fun file ->
         match
           List.find_opt Sys.file_exists
             [ "../examples/" ^ file; "examples/" ^ file ]
         with
         | Some path -> In_channel.with_open_bin path In_channel.input_all
         | None -> Alcotest.failf "cannot find %s" file)
       [ "sensor_fusion.hsc"; "cruise_control.hsc" ])

(* Fragments that steer a mutation into the grammar's corners: braces,
   separators, keywords, and numbers that are zero, negative, a zero
   denominator or too long for an int. *)
let source_fragments =
  [ "{"; "}"; "("; ")"; ";"; ","; "="; "."; "->"; "\""; "//"; "/*" ]
  @ [ "0"; "-1"; "1/0"; "2/3"; "0.0000001"; "99999999999999999999" ]
  @ [ "priority"; "period"; "deadline"; "task"; "call"; "bind"; "via" ]
  @ [ "instance"; "platform"; "component"; "thread"; "realizes"; "network" ]

(* One edit: a byte replaced, a span deleted or duplicated, a fragment
   inserted, or the tail cut off. *)
let source_edit src =
  let open QCheck.Gen in
  let n = String.length src in
  if n = 0 then return src
  else
    let* i = int_range 0 (n - 1) in
    let* l = int_range 1 (min 40 (n - i)) in
    oneof
      [
        map
          (fun c ->
            String.mapi (fun j x -> if j = i then Char.chr c else x) src)
          (int_range 0 255);
        return (String.sub src 0 i ^ String.sub src (i + l) (n - i - l));
        return (String.sub src 0 (i + l) ^ String.sub src i (n - i));
        map
          (fun f -> String.sub src 0 i ^ f ^ String.sub src i (n - i))
          (oneofl source_fragments);
        return (String.sub src 0 i);
      ]

let mutated_source_gen st =
  let open QCheck.Gen in
  let src = oneofl (Lazy.force example_sources) st in
  let rec edit src k =
    if k = 0 then return src else source_edit src >>= fun s -> edit s (k - 1)
  in
  (int_range 1 4 >>= edit src) st

(* Parsing, elaborating and deriving a mutated example each answer [Ok]
   or an error message, never an exception; a parse error locates its
   token. *)
let prop_source_fuzz src =
  match Spec.Parser.parse src with
  | Error e -> located e
  | Ok ast -> (
      match Spec.Elaborate.assembly ast with
      | Error e -> e <> ""
      | Ok asm -> (
          match Transaction.Derive.derive asm with
          | Ok _ -> true
          | Error es -> es <> [] && List.for_all (( <> ) "") es))

let test_source_fuzz =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"mutated examples parse, elaborate and derive or fail cleanly"
       ~count:2000
       (QCheck.make ~print:Fun.id mutated_source_gen)
       prop_source_fuzz)

let () =
  Alcotest.run "spec"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "out-of-range numbers" `Quick
            test_lexer_out_of_range;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
        ] );
      ( "parser",
        [
          Alcotest.test_case "full example" `Quick test_full_example_parses;
          Alcotest.test_case "matches programmatic model" `Quick
            test_parsed_equals_programmatic;
          Alcotest.test_case "supply forms" `Quick test_supply_forms;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "validation wired" `Quick test_validation_is_wired;
          Alcotest.test_case "jitter/blocking annotations" `Quick
            test_jitter_and_blocking_annotations;
          Alcotest.test_case "annotations round trip" `Quick
            test_annotations_round_trip;
          Alcotest.test_case "keyword-arg errors" `Quick test_keyword_args_errors;
          Alcotest.test_case "nested supply syntax" `Quick test_nested_supply_syntax;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "paper example" `Quick test_round_trip_paper;
          Alcotest.test_case "generated assemblies" `Quick test_round_trip_generated;
          Alcotest.test_case "load_file" `Quick test_load_file;
        ] );
      ("hostile input", [ test_source_fuzz ]);
    ]
