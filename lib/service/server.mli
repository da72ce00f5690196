(** The JSON-lines IO loops of the admission-control service, over a
    {!Fleet} (which documents admission, determinism and the WAL).
    Requests arrive as JSON lines ({!Protocol}); each loop drains
    whatever has arrived into one batch for {!Fleet.process_batch} and
    writes one response line per request, in arrival order. *)

val run : Fleet.t -> in_channel -> out_channel -> unit
(** The JSON-lines loop: read requests from [ic] (a dedicated reader
    domain keeps draining while a batch is being processed — that is
    what makes batches larger than one under load), write responses to
    [oc] in arrival order, return on end of input.  Unparseable lines,
    and lines longer than {!Protocol.max_line_bytes} (read no further
    than that, then discarded up to their newline), are answered with
    [status:"error"] in place and counted in [requests.errors]. *)

val run_unix_socket : ?accept_limit:int -> Fleet.t -> path:string -> unit
(** Serve connections on a Unix-domain socket, one client at a time,
    against the same long-lived fleet.  [accept_limit] bounds the
    number of connections served (default: loop forever). *)
