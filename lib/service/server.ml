module P = Protocol

(* The JSON-lines IO loops over a {!Fleet}: read request lines,
   assign sequence numbers, hand each drained batch to the fleet and
   write the responses back in arrival order. *)

(* One request line without its newline, [`Overlong] when it ran past
   [P.max_line_bytes] (the rest is discarded up to the newline or EOF,
   so a client cannot grow the heap without bound).  Raises
   [End_of_file] at EOF with nothing read, like [input_line]. *)
let read_line ic =
  let buf = Buffer.create 256 in
  let rec go over =
    match input_char ic with
    | '\n' -> if over then `Overlong else `Line (Buffer.contents buf)
    | c ->
        let over = over || Buffer.length buf >= P.max_line_bytes in
        if not over then Buffer.add_char buf c;
        go over
    | exception End_of_file ->
        if over then `Overlong
        else if Buffer.length buf = 0 then raise End_of_file
        else `Line (Buffer.contents buf)
  in
  go false

let run t ic oc =
  let now = Fleet.clock t in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let q = Queue.create () in
  let eof = ref false in
  (* A dedicated reader domain keeps draining stdin while the main
     domain processes a batch — under load the queue accumulates and the
     next round genuinely batches. *)
  let reader =
    Domain.spawn (fun () ->
        (try
           while true do
             let line = read_line ic in
             let arrival = now () in
             Mutex.lock mu;
             Queue.add (line, arrival) q;
             Condition.signal cv;
             Mutex.unlock mu
           done
         with End_of_file -> ());
        Mutex.lock mu;
        eof := true;
        Condition.signal cv;
        Mutex.unlock mu)
  in
  let respond j =
    output_string oc (Json.to_string j);
    output_char oc '\n'
  in
  let rec round () =
    Mutex.lock mu;
    while Queue.is_empty q && not !eof do
      Condition.wait cv mu
    done;
    let lines = ref [] in
    while not (Queue.is_empty q) do
      lines := Queue.pop q :: !lines
    done;
    let finished = !eof in
    Mutex.unlock mu;
    let lines = List.rev !lines in
    (* An empty round happens only on the EOF wake-up, and only when the
       reader flagged EOF after this domain popped the last line — a
       scheduling race.  Skip it entirely so the batch trace and the
       [batches] metric do not depend on that timing. *)
    if lines = [] then (if not finished then round ())
    else process_lines lines finished
  and process_lines lines finished =
    let items =
      List.filter_map
        (fun (line, arrival) ->
          let parsed =
            match line with
            | `Line l when String.trim l = "" -> None
            | `Line l -> Some (P.parse l)
            | `Overlong ->
                Some
                  (Error
                     (Printf.sprintf "request line exceeds %d bytes"
                        P.max_line_bytes))
          in
          Option.map
            (fun parsed ->
              let seq = Fleet.fresh_seq t in
              match parsed with
              | Ok (req, deadline_ms, tenant) ->
                  `Env { P.seq; arrival; deadline_ms; tenant; req }
              | Error msg ->
                  (* Counted here, not at response time, so a [stats] in
                     the same batch already sees the error. *)
                  Fleet.count_error t;
                  `Err (seq, msg))
            parsed)
        lines
    in
    let envs = List.filter_map (function `Env e -> Some e | _ -> None) items in
    let resps = Fleet.process_batch t envs in
    let rec interleave items resps =
      match items with
      | [] -> ()
      | `Err (seq, msg) :: rest ->
          respond (P.error ~seq ~op:"invalid" ~msg);
          interleave rest resps
      | `Env _ :: rest -> (
          match resps with
          | r :: rs ->
              respond r;
              interleave rest rs
          | [] -> assert false)
    in
    interleave items resps;
    flush oc;
    if not finished then round ()
  in
  round ();
  Domain.join reader

let run_unix_socket ?accept_limit t ~path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let served = ref 0 in
  let more () =
    match accept_limit with None -> true | Some k -> !served < k
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      while more () do
        let fd, _ = Unix.accept sock in
        incr served;
        (* The in and out channels must not share the descriptor:
           closing both would close it twice. *)
        let ic = Unix.in_channel_of_descr (Unix.dup fd) in
        let oc = Unix.out_channel_of_descr fd in
        Fun.protect
          ~finally:(fun () ->
            close_out_noerr oc;
            close_in_noerr ic)
          (fun () -> run t ic oc)
      done)
