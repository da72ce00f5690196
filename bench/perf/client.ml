(* A real [hsched serve --socket] process and the one connection the
   benchmark drives it through. *)

type server = { pid : int; socket : string; mutable running : bool }

(* Spawn [hsched serve BASE --socket SOCKET ARGS...].  Paths are
   relative to the working directory both processes share, which keeps
   the socket path short whatever the checkout's location. *)
let spawn ~hsched ~workdir ~base ~socket args =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let out =
    Unix.openfile
      (Filename.concat workdir "serve.out")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let argv =
    Array.of_list ([ hsched; "serve"; base; "--socket"; socket ] @ args)
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () -> Unix.create_process hsched argv Unix.stdin out out)
  in
  { pid; socket; running = true }

let exited srv =
  srv.running
  &&
  match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
  | 0, _ -> false
  | _ ->
      srv.running <- false;
      true

type conn = { ic : in_channel; oc : out_channel }

(* Connect once the server listens; fails if it exits first. *)
let connect srv =
  let t0 = Span.now () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX srv.socket) with
    | () ->
        (* Separate descriptors for the two channels: closing both must
           not close one descriptor twice. *)
        {
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr (Unix.dup fd);
        }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if exited srv then failwith "hsched serve exited before listening";
        if Span.s_since t0 > 30. then
          failwith "hsched serve did not listen within 30 s";
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c = input_line c.ic

let close c =
  close_out_noerr c.oc;
  close_in_noerr c.ic

let call c line =
  send c line;
  recv c

let peak_rss_mb srv = Run.peak_rss_mb (Some srv.pid)

(* Stop the server and wait until it has ended.  Every committed
   mutation is already flushed to its log, so SIGTERM loses nothing. *)
let stop srv =
  if srv.running then begin
    (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] srv.pid);
    srv.running <- false
  end;
  try Unix.unlink srv.socket with Unix.Unix_error _ -> ()

(* A closed loop with [window] requests outstanding on one connection:
   the next request goes out only when a response comes back.  [next i]
   is the [i]-th request line, or [None] once the phase is over;
   [on_response i line latency_ms] sees the responses in request order,
   which is the order the server answers in. *)
let pipeline c ~window ~next ~on_response =
  let pending = Queue.create () in
  let i = ref 0 in
  let send_next () =
    match next !i with
    | None -> ()
    | Some line ->
        Queue.push (!i, Span.now ()) pending;
        send c line;
        incr i
  in
  for _ = 1 to window do
    send_next ()
  done;
  while not (Queue.is_empty pending) do
    let line = recv c in
    let j, t0 = Queue.pop pending in
    on_response j line (Span.ms_since t0);
    send_next ()
  done
