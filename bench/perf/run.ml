(* What one workload run is given, and what it reports. *)

type ctx = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  quick : bool;  (** op counts ÷100, one set-up, correctness only *)
  trace : bool;  (** the traced run: per-layer metrics *)
  spans : string;  (** where the traced run writes its span lines *)
  hsched : string;  (** the hsched CLI binary the serve workloads spawn *)
  workdir : string;  (** sockets, logs and span files *)
}

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** first failure messages, newest first *)
  mutable metrics : (string * float * string) list;  (** reversed *)
  mutable info : (string * string) list;  (** reversed *)
  mutable table : string list;  (** the trace table's lines *)
}

let create () =
  { attempted = 0; failed = 0; notes = []; metrics = []; info = []; table = [] }

let fail r msg =
  r.failed <- r.failed + 1;
  if List.length r.notes < 8 then r.notes <- msg :: r.notes

let check r ok msg = if not ok then fail r msg
let metric r name value unit_ = r.metrics <- (name, value, unit_) :: r.metrics
let info r key value = r.info <- (key, value) :: r.info
let metrics r = List.rev r.metrics
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The timed phase: ops run until the deadline, or until the op budget
   in a quick run.  Set-up follows the same rule: the median of several
   set-ups in a full run, one in a quick run. *)
let deadline ctx = Int64.add (Span.now ()) (Int64.of_float (ctx.seconds *. 1e9))

let expired ctx d ~ops ~budget =
  if ctx.quick then ops >= budget else Span.now () >= d

let set_ups ctx = if ctx.quick then 1 else 15

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                    float_of_int kb /. 1024.)
            | _ -> scan ()
          in
          scan ())

(* The end-to-end metrics every workload reports, from its timed phase;
   times at the calibrated reference host speed ({!Calib}). *)
let end_to_end r ~ops ~elapsed_s ~latencies ~set_up_s ~rss_mb =
  let sorted = Summary.sorted latencies in
  let rate = float_of_int ops /. elapsed_s in
  let p50 = Summary.percentile sorted 0.5 in
  let p99 = Summary.percentile sorted 0.99 in
  let f = Calib.factor () in
  info r "raw"
    (Printf.sprintf "ops_per_s:%.2f,p50_ms:%.4f,p99_ms:%.4f,setup_s:%.4f" rate
       p50 p99 set_up_s);
  info r "host_factor" (Printf.sprintf "%.3f" f);
  metric r "ops_per_s" (rate /. f) "ops/s";
  metric r "p50_ms" (p50 *. f) "ms";
  metric r "p99_ms" (p99 *. f) "ms";
  metric r "setup_s" (set_up_s *. f) "s";
  metric r "rss_mb" rss_mb "MB"

(* The end-to-end metrics of a workload whose passes repeat the same
   ops: each op's latency is its median over the passes, which drops the
   passes a neighbour on the host happened to slow down; the percentiles
   are over ops, and ops_per_s is, by Little's law for a closed loop
   with [window] ops outstanding, [window] ops over their mean median. *)
let repeated_end_to_end ?(window = 1) r ~(per_op : float list array) ~set_up_s
    ~rss_mb =
  let medians = Summary.samples () in
  Array.iter
    (fun l -> if l <> [] then Summary.add medians (Summary.median l))
    per_op;
  let ops = Summary.count medians in
  end_to_end r ~ops
    ~elapsed_s:
      (Summary.mean medians *. float_of_int ops /. 1e3 /. float_of_int window)
    ~latencies:medians ~set_up_s ~rss_mb
