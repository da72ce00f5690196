(* Host-speed calibration.

   The benchmark runs on shared hosts whose speed drifts by up to 2x
   over minutes as neighbours come and go; a raw wall-clock number then
   says more about the neighbours than about the code.  A run therefore
   times a fixed kernel — standard library only, so no change to the
   repository can make it faster or slower — every [every_ns] of its
   timed phase, and reports its times scaled by [reference_ms] / the
   kernel's mean time in that run: times at the speed of a host on which
   the kernel takes [reference_ms].  A workload that keeps two cores
   busy runs the kernel on two domains at once, so a neighbour taking
   either core shows.  Raw values are printed beside. *)

let reference_ms = 2.0
let every_ns = 125_000_000L

let kernel () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 3999 do
    Hashtbl.replace h ((i * 7919) land 0xFFFF) (string_of_int i)
  done;
  let a = Array.init 6000 (fun i -> (i * 2654435761) land 0xFFFFFF) in
  Array.sort compare a;
  let l = List.init 3000 (fun i -> a.(i) lxor Hashtbl.length h) in
  ignore (Sys.opaque_identity (List.rev_map (fun x -> x + 1) l))

(* The second core: a helper domain that runs the kernel on request. *)
type helper = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable pending : bool;  (** a kernel requested and not yet run *)
  mutable quit : bool;
  mutable domain : unit Domain.t option;
}

let helper =
  {
    mu = Mutex.create ();
    cv = Condition.create ();
    pending = false;
    quit = false;
    domain = None;
  }

let rec helper_loop () =
  Mutex.lock helper.mu;
  while (not helper.pending) && not helper.quit do
    Condition.wait helper.cv helper.mu
  done;
  let quit = helper.quit in
  Mutex.unlock helper.mu;
  if not quit then begin
    kernel ();
    Mutex.protect helper.mu (fun () ->
        helper.pending <- false;
        Condition.broadcast helper.cv);
    helper_loop ()
  end

let stop_helper () =
  Option.iter
    (fun d ->
      Mutex.protect helper.mu (fun () ->
          helper.quit <- true;
          Condition.broadcast helper.cv);
      Domain.join d;
      helper.domain <- None;
      helper.quit <- false)
    helper.domain

let samples = ref []
let next_due = ref 0L

(* Start a run's calibration on [domains] cores (1 or 2). *)
let reset ~domains =
  stop_helper ();
  samples := [];
  next_due := 0L;
  if domains > 1 then helper.domain <- Some (Domain.spawn helper_loop)

(* One timed kernel run, on every calibrated core at once; returns its
   duration in ns so callers can keep it out of their own time. *)
let sample () =
  let t0 = Span.now () in
  let two = helper.domain <> None in
  if two then
    Mutex.protect helper.mu (fun () ->
        helper.pending <- true;
        Condition.broadcast helper.cv);
  kernel ();
  if two then
    Mutex.protect helper.mu (fun () ->
        while helper.pending do
          Condition.wait helper.cv helper.mu
        done);
  let ns = Span.ns_since t0 in
  samples := (ns /. 1e6) :: !samples;
  next_due := Int64.add (Span.now ()) every_ns;
  ns

let maybe () = if Span.now () >= !next_due then sample () else 0.

(* [reference_ms] over the kernel's interquartile mean time: a sample
   preempted mid-kernel must not move the factor, and one kernel run
   varies by ±30% even on an idle host — the fastest of three runs back
   to back varies as much — so the estimate averages the middle half of
   some 150 samples. *)
let factor () =
  let a = Array.of_list !samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 1.
  else
    let kept = Array.sub a (n / 4) (n - (2 * (n / 4))) in
    let mean =
      Array.fold_left ( +. ) 0. kept /. float_of_int (Array.length kept)
    in
    reference_ms /. mean
