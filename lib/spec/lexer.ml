type token =
  | IDENT of string
  | NUMBER of Rational.t
  | STRING of string
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COLON
  | SEMI
  | COMMA
  | EQUALS
  | ARROW
  | DOT
  | EOF

type located = { token : token; line : int; col : int }

let describe = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | NUMBER q -> Printf.sprintf "number %s" (Rational.to_string q)
  | STRING s -> Printf.sprintf "string %S" s
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | COLON -> "':'"
  | SEMI -> "';'"
  | COMMA -> "','"
  | EQUALS -> "'='"
  | ARROW -> "'->'"
  | DOT -> "'.'"
  | EOF -> "end of input"

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let line = ref 1 and col = ref 1 in
  let out = ref [] in
  let error msg =
    Error (Printf.sprintf "line %d, column %d: %s" !line !col msg)
  in
  let emit token = out := { token; line = !line; col = !col } :: !out in
  let rec go i =
    if i >= n then begin
      emit EOF;
      Ok (List.rev !out)
    end
    else
      let c = src.[i] in
      let advance k =
        for j = i to i + k - 1 do
          if src.[j] = '\n' then begin
            incr line;
            col := 1
          end
          else incr col
        done;
        go (i + k)
      in
      if c = '\n' || c = ' ' || c = '\t' || c = '\r' then advance 1
      else if c = '/' && i + 1 < n && src.[i + 1] = '/' then begin
        let rec eol j = if j < n && src.[j] <> '\n' then eol (j + 1) else j in
        advance (eol i - i)
      end
      else if is_ident_start c then begin
        let rec stop j = if j < n && is_ident_char src.[j] then stop (j + 1) else j in
        let j = stop i in
        emit (IDENT (String.sub src i (j - i)));
        advance (j - i)
      end
      else if is_digit c || (c = '-' && i + 1 < n && is_digit src.[i + 1]) then begin
        (* integer, decimal or fraction *)
        let rec digits j = if j < n && is_digit src.[j] then digits (j + 1) else j in
        let j0 = if c = '-' then i + 1 else i in
        let j = digits j0 in
        let j =
          if j < n && (src.[j] = '.' || src.[j] = '/') && j + 1 < n && is_digit src.[j + 1]
          then digits (j + 1)
          else j
        in
        let text = String.sub src i (j - i) in
        (match Rational.of_decimal_string text with
        | q ->
            emit (NUMBER q);
            advance (j - i)
        | exception (Invalid_argument _ | Rational.Overflow) ->
            error ("bad number " ^ text))
      end
      else if c = '"' then begin
        let rec stop j =
          if j >= n then None
          else if src.[j] = '"' then Some j
          else if src.[j] = '\n' then None
          else stop (j + 1)
        in
        match stop (i + 1) with
        | None -> error "unterminated string"
        | Some j ->
            emit (STRING (String.sub src (i + 1) (j - i - 1)));
            advance (j - i + 1)
      end
      else if c = '-' && i + 1 < n && src.[i + 1] = '>' then begin
        emit ARROW;
        advance 2
      end
      else
        let simple t =
          emit t;
          advance 1
        in
        match c with
        | '{' -> simple LBRACE
        | '}' -> simple RBRACE
        | '(' -> simple LPAREN
        | ')' -> simple RPAREN
        | '[' -> simple LBRACKET
        | ']' -> simple RBRACKET
        | ':' -> simple COLON
        | ';' -> simple SEMI
        | ',' -> simple COMMA
        | '=' -> simple EQUALS
        | '.' -> simple DOT
        | _ -> error (Printf.sprintf "unexpected character %C" c)
  in
  go 0
