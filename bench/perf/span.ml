(* One clock for every number the benchmark reports, and the in-memory
   trace spans of the traced run.

   All times come from [Monotonic_clock.now] (CLOCK_MONOTONIC, in
   nanoseconds).  Spans are recorded only while [enabled] is set, so an
   untraced run pays one boolean test per layer call.  Spans are kept
   in memory and written out once the traced phase ends. *)

let now () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)
let ms_since t0 = ns_since t0 /. 1e6
let s_since t0 = ns_since t0 /. 1e9

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : int;  (** the op the span belongs to; -1 outside ops *)
  start : int64;
  mutable stop : int64;
}

let enabled = ref false
let recorded : t list ref = ref [] (* newest first *)
let next_id = ref 0
let stack : int list ref = ref []
let current_req = ref (-1)

let reset () =
  recorded := [];
  next_id := 0;
  stack := [];
  current_req := -1

let pop s =
  s.stop <- now ();
  stack := List.tl !stack

(* [with_ name f] runs [f] inside a span named after the layer whose
   public function [f] calls. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s =
      { id; name; parent; req = !current_req; start = now (); stop = 0L }
    in
    recorded := s :: !recorded;
    stack := id :: !stack;
    match f () with
    | v ->
        pop s;
        v
    | exception e ->
        pop s;
        raise e
  end

(* A root span for one workload op: its children share the op's id. *)
let op name ~req f =
  current_req := req;
  Fun.protect ~finally:(fun () -> current_req := -1) (fun () -> with_ name f)

let duration s = Int64.to_float (Int64.sub s.stop s.start)

type layer = { calls : int; self_ns : float }

let no_layer = { calls = 0; self_ns = 0. }

(* Per span name: call count and self time — the duration minus the
   time its child spans cover.  Children are nested and sequential (one
   recording domain), so their durations add up. *)
let aggregate () =
  let spans = Array.of_list (List.rev !recorded) in
  let child = Array.make (Array.length spans) 0. in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        child.(s.parent) <- child.(s.parent) +. duration s)
    spans;
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun s ->
      let l = Option.value (Hashtbl.find_opt tbl s.name) ~default:no_layer in
      Hashtbl.replace tbl s.name
        {
          calls = l.calls + 1;
          self_ns = l.self_ns +. duration s -. child.(s.id);
        })
    spans;
  Hashtbl.fold (fun name l acc -> (name, l) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find layers name =
  Option.value (List.assoc_opt name layers) ~default:no_layer

(* JSON lines, one span per line, in start order. *)
let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"req\":%d,\
             \"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.name s.parent s.req s.start s.stop)
        (List.rev !recorded))

(* Observer on the engine's public event sink: how many sessions were
   compiled, how many outer sweeps ran and how long each fixed point
   took, from [Analysis_started] to [Finished].  Every engine the
   benchmark traces runs on its own domain, one analysis at a time. *)
module Engine_probe = struct
  let started = ref 0L
  let compiled = ref 0
  let sweeps = ref 0
  let fixpoints = ref 0
  let iterations = ref 0
  let fixpoint_ns = ref 0.

  let reset () =
    compiled := 0;
    sweeps := 0;
    fixpoints := 0;
    iterations := 0;
    fixpoint_ns := 0.

  let sink : Analysis.Engine.sink = function
    | Compiled _ -> incr compiled
    | Analysis_started _ -> started := now ()
    | Sweep _ -> incr sweeps
    | Finished { iterations = it; _ } ->
        incr fixpoints;
        iterations := !iterations + it;
        fixpoint_ns := !fixpoint_ns +. ns_since !started
    | _ -> ()
end
