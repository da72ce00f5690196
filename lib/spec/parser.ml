module Q = Rational
open Lexer

exception Parse_error of string

type state = { mutable tokens : located list }

let peek st =
  match st.tokens with
  | [] -> { token = EOF; line = 0; col = 0 }
  | t :: _ -> t

let fail_at (t : located) msg =
  raise
    (Parse_error
       (Printf.sprintf "line %d, column %d: %s, found %s" t.line t.col msg
          (describe t.token)))

let advance st =
  match st.tokens with [] -> () | _ :: rest -> st.tokens <- rest

let next st =
  let t = peek st in
  advance st;
  t

let expect st want msg =
  let t = next st in
  if t.token <> want then fail_at t msg

(* [expect], returning the token: where to report a fault that only
   the end of a construct shows. *)
let expect_at st want msg =
  let t = peek st in
  expect st want msg;
  t

let ident st =
  let t = next st in
  match t.token with IDENT s -> s | _ -> fail_at t "expected an identifier"

let keyword st kw =
  let t = next st in
  match t.token with
  | IDENT s when String.equal s kw -> ()
  | _ -> fail_at t (Printf.sprintf "expected '%s'" kw)

let number st =
  let t = next st in
  match t.token with NUMBER q -> q | _ -> fail_at t "expected a number"

let integer st =
  let t = next st in
  match t.token with
  | NUMBER q when Q.is_integer q -> Q.floor q
  | _ -> fail_at t "expected an integer"

let accept_kw st kw =
  match (peek st).token with
  | IDENT s when String.equal s kw ->
      advance st;
      true
  | _ -> false

let accept st tok =
  if (peek st).token = tok then begin
    advance st;
    true
  end
  else false

(* "( key = NUM, key2 = NUM, ... )": keyword arguments in any order,
   the first being mandatory. *)
let keyword_args st ~mandatory ~optional =
  expect st LPAREN "expected '('";
  let seen = Hashtbl.create 4 in
  let parse_one () =
    let t = next st in
    match t.token with
    | IDENT key when List.mem key (mandatory :: optional) ->
        if Hashtbl.mem seen key then
          fail_at t (Printf.sprintf "duplicate argument '%s'" key);
        expect st EQUALS "expected '='";
        Hashtbl.replace seen key (number st)
    | _ ->
        fail_at t
          (Printf.sprintf "expected one of: %s"
             (String.concat ", " (mandatory :: optional)))
  in
  parse_one ();
  while accept st COMMA do
    parse_one ()
  done;
  let close = expect_at st RPAREN "expected ')'" in
  if not (Hashtbl.mem seen mandatory) then
    fail_at close (Printf.sprintf "missing argument '%s'" mandatory);
  fun key -> Hashtbl.find_opt seen key

(* "( key = NUM [, key2 = NUM] )" with the second field optional, and
   the closing parenthesis. *)
let pair_args st ~first ~second =
  expect st LPAREN "expected '('";
  keyword st first;
  expect st EQUALS "expected '='";
  let a = number st in
  let b =
    if accept st COMMA then begin
      keyword st second;
      expect st EQUALS "expected '='";
      Some (number st)
    end
    else None
  in
  (a, b, expect_at st RPAREN "expected ')'")

(* one supply mechanism: server(...), slots(...), pfair(...), full, or
   bounded(alpha = ..[, delta = ..][, beta = ..]) *)
let supply_atom st =
  let t = peek st in
  match t.token with
  | IDENT "full" ->
      advance st;
      Ast.S_full
  | IDENT "server" ->
      advance st;
      let budget, period, close =
        pair_args st ~first:"budget" ~second:"period"
      in
      let period =
        match period with
        | Some p -> p
        | None -> fail_at close "server needs a period"
      in
      Ast.S_server { budget; period }
  | IDENT "pfair" ->
      advance st;
      expect st LPAREN "expected '('";
      keyword st "weight";
      expect st EQUALS "expected '='";
      let weight = number st in
      expect st RPAREN "expected ')'";
      Ast.S_pfair { weight }
  | IDENT "bounded" ->
      advance st;
      let args =
        keyword_args st ~mandatory:"alpha" ~optional:[ "delta"; "beta" ]
      in
      Ast.S_bound
        {
          alpha = Option.get (args "alpha");
          delta = Option.value (args "delta") ~default:Q.zero;
          beta = Option.value (args "beta") ~default:Q.zero;
        }
  | IDENT "slots" ->
      advance st;
      expect st LPAREN "expected '('";
      keyword st "frame";
      expect st EQUALS "expected '='";
      let frame = number st in
      expect st RPAREN "expected ')'";
      let slots = ref [] in
      while (peek st).token = LBRACKET do
        advance st;
        let s = number st in
        expect st COMMA "expected ','";
        let l = number st in
        expect st RBRACKET "expected ']'";
        slots := (s, l) :: !slots
      done;
      Ast.S_slots { frame; slots = List.rev !slots }
  | _ -> fail_at t "expected a supply model"

(* atoms chained by 'within', right associative:
   a within b within c  =  a within (b within c) *)
let rec supply_expr st =
  let inner = supply_atom st in
  if accept_kw st "within" then Ast.S_nested { inner; outer = supply_expr st }
  else inner

let platform_decl st =
  let p_name = ident st in
  let p_network = accept_kw st "network" in
  expect st LBRACE "expected '{'";
  let host = ref None in
  let supply = ref None in
  let set_supply t s =
    match !supply with
    | None -> supply := Some s
    | Some _ -> fail_at t ("platform " ^ p_name ^ ": two supply models")
  in
  let alpha = ref None and delta = ref None and beta = ref None in
  (* The attributes, up to the closing brace, which is returned. *)
  let rec body () =
    let t = peek st in
    if accept st RBRACE then t
    else begin
      (match t.token with
      | IDENT "host" ->
          advance st;
          expect st EQUALS "expected '='";
          let v = next st in
          (match v.token with
          | STRING s -> host := Some s
          | _ -> fail_at v "expected a string")
      | IDENT "alpha" ->
          advance st;
          expect st EQUALS "expected '='";
          alpha := Some (number st)
      | IDENT "delta" ->
          advance st;
          expect st EQUALS "expected '='";
          delta := Some (number st)
      | IDENT "beta" ->
          advance st;
          expect st EQUALS "expected '='";
          beta := Some (number st)
      | IDENT ("full" | "server" | "pfair" | "slots" | "bounded") ->
          set_supply t (supply_expr st)
      | _ -> fail_at t "expected a platform attribute");
      expect st SEMI "expected ';'";
      body ()
    end
  in
  let close = body () in
  let p_supply =
    match (!supply, !alpha) with
    | Some s, None -> s
    | None, Some alpha ->
        Ast.S_bound
          {
            alpha;
            delta = Option.value !delta ~default:Q.zero;
            beta = Option.value !beta ~default:Q.zero;
          }
    | Some _, Some _ ->
        fail_at close
          ("platform " ^ p_name
         ^ ": give either alpha/delta/beta or a supply model")
    | None, None ->
        fail_at close ("platform " ^ p_name ^ ": no supply specified")
  in
  Ast.I_platform { p_name; p_network; p_host = !host; p_supply }

let method_decl st =
  let m_name = ident st in
  expect st LPAREN "expected '('";
  expect st RPAREN "expected ')'";
  keyword st "mit";
  let m_mit = number st in
  expect st SEMI "expected ';'";
  { Ast.m_name; m_mit }

let action st =
  let t = peek st in
  match t.token with
  | IDENT "task" ->
      advance st;
      let t_name = ident st in
      let args = keyword_args st ~mandatory:"wcet" ~optional:[ "bcet"; "blocking" ] in
      let wcet = Option.get (args "wcet") in
      let prio = if accept_kw st "priority" then Some (integer st) else None in
      expect st SEMI "expected ';'";
      Some
        (Ast.A_task
           { t_name; wcet; bcet = args "bcet"; blocking = args "blocking"; prio })
  | IDENT "call" ->
      advance st;
      let m = ident st in
      expect st LPAREN "expected '('";
      expect st RPAREN "expected ')'";
      expect st SEMI "expected ';'";
      Some (Ast.A_call m)
  | _ -> None

let thread_decl st =
  let th_name = ident st in
  let t = peek st in
  let th_act =
    match t.token with
    | IDENT "periodic" ->
        advance st;
        let args =
          keyword_args st ~mandatory:"period" ~optional:[ "deadline"; "jitter" ]
        in
        Ast.Act_periodic
          {
            period = Option.get (args "period");
            deadline = args "deadline";
            jitter = args "jitter";
          }
    | IDENT "realizes" ->
        advance st;
        let meth = ident st in
        expect st LPAREN "expected '('";
        expect st RPAREN "expected ')'";
        let deadline = if accept_kw st "deadline" then Some (number st) else None in
        Ast.Act_realizes { meth; deadline }
    | _ -> fail_at t "expected 'periodic' or 'realizes'"
  in
  keyword st "priority";
  let th_prio = integer st in
  expect st LBRACE "expected '{'";
  let body = ref [] in
  let rec actions () =
    match action st with
    | Some a ->
        body := a :: !body;
        actions ()
    | None -> ()
  in
  actions ();
  expect st RBRACE "expected '}'";
  { Ast.th_name; th_act; th_prio; th_body = List.rev !body }

let component_decl st =
  let c_name = ident st in
  expect st LBRACE "expected '{'";
  let provided = ref [] and required = ref [] and threads = ref [] in
  let rec sections () =
    if accept st RBRACE then ()
    else begin
      let t = peek st in
      (match t.token with
      | IDENT "provided" ->
          advance st;
          expect st COLON "expected ':'";
          let rec methods () =
            match (peek st).token with
            | IDENT m
              when (not (List.mem m [ "provided"; "required"; "implementation" ]))
                   && (match st.tokens with
                      | _ :: { token = LPAREN; _ } :: _ -> true
                      | _ -> false) ->
                provided := method_decl st :: !provided;
                methods ()
            | _ -> ()
          in
          methods ()
      | IDENT "required" ->
          advance st;
          expect st COLON "expected ':'";
          let rec methods () =
            match (peek st).token with
            | IDENT m
              when (not (List.mem m [ "provided"; "required"; "implementation" ]))
                   && (match st.tokens with
                      | _ :: { token = LPAREN; _ } :: _ -> true
                      | _ -> false) ->
                required := method_decl st :: !required;
                methods ()
            | _ -> ()
          in
          methods ()
      | IDENT "implementation" ->
          advance st;
          expect st COLON "expected ':'";
          let rec impl () =
            match (peek st).token with
            | IDENT "scheduler" ->
                advance st;
                keyword st "fixed_priority";
                expect st SEMI "expected ';'";
                impl ()
            | IDENT "thread" ->
                advance st;
                threads := thread_decl st :: !threads;
                impl ()
            | _ -> ()
          in
          impl ()
      | _ -> fail_at t "expected 'provided', 'required' or 'implementation'");
      sections ()
    end
  in
  sections ();
  Ast.I_component
    {
      c_name;
      c_provided = List.rev !provided;
      c_required = List.rev !required;
      c_threads = List.rev !threads;
    }

let instance_decl st =
  let i_name = ident st in
  expect st COLON "expected ':'";
  let i_class = ident st in
  keyword st "on";
  let i_platform = ident st in
  expect st SEMI "expected ';'";
  Ast.I_instance { i_name; i_class; i_platform }

let binding_decl st =
  let b_caller = ident st in
  expect st DOT "expected '.'";
  let b_required = ident st in
  expect st ARROW "expected '->'";
  let b_callee = ident st in
  expect st DOT "expected '.'";
  let b_provided = ident st in
  let b_link =
    if accept_kw st "via" then begin
      let l_network = ident st in
      keyword st "priority";
      let l_prio = integer st in
      keyword st "request";
      let w, b, _ = pair_args st ~first:"wcet" ~second:"bcet" in
      let l_request = (w, Option.value b ~default:w) in
      let l_reply =
        if accept_kw st "reply" then begin
          let w, b, _ = pair_args st ~first:"wcet" ~second:"bcet" in
          Some (w, Option.value b ~default:w)
        end
        else None
      in
      Some { Ast.l_network; l_prio; l_request; l_reply }
    end
    else None
  in
  expect st SEMI "expected ';'";
  Ast.I_bind { b_caller; b_required; b_callee; b_provided; b_link }

let parse src =
  match Lexer.tokenize src with
  | Error e -> Error e
  | Ok tokens -> (
      let st = { tokens } in
      let items = ref [] in
      try
        let rec go () =
          let t = peek st in
          match t.token with
          | EOF -> Ok (List.rev !items)
          | IDENT "platform" ->
              advance st;
              items := platform_decl st :: !items;
              go ()
          | IDENT "component" ->
              advance st;
              items := component_decl st :: !items;
              go ()
          | IDENT "instance" ->
              advance st;
              items := instance_decl st :: !items;
              go ()
          | IDENT "bind" ->
              advance st;
              items := binding_decl st :: !items;
              go ()
          | _ ->
              fail_at t "expected 'platform', 'component', 'instance' or 'bind'"
        in
        go ()
      with Parse_error msg -> Error msg)
