(* Resident worker domains synchronised by a single mutex: the caller
   publishes a region (epoch bump + broadcast), every participant
   executes a static stride of slots once per epoch, the caller takes
   participant 0 itself and waits for the unfinished count to drain.
   Slot identity is static — slot [s] of a region always runs in the
   participant [s mod participants] — so per-slot state (a serving
   shard and its engine session) is only ever touched by one domain.  At
   most one worker per hardware core is ever spawned: surplus domains
   cannot run in parallel, yet each live domain taxes every minor
   collection with stop-the-world coordination, so on a single-core
   host the pool spawns no domains at all and [run] degrades to an
   inline loop over the slots. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable epoch : int;
  mutable work : (int -> unit) option;
  mutable unfinished : int;
  mutable stopped : bool;
  errors : (exn * Printexc.raw_backtrace) option array;
      (* per-slot, so the caller re-raises the lowest slot's exception
         regardless of the order the domains actually failed in *)
  busy : bool Atomic.t;
  mutable workers : unit Domain.t array;
}

let jobs t = t.jobs

let record_error t slot e =
  t.errors.(slot) <- Some (e, Printexc.get_raw_backtrace ())

let hardware_slots = lazy (Domain.recommended_domain_count ())

(* Participant [p] of [P] owns slots [p], [p + P], [p + 2P], … — a
   static assignment, so the caller can wait on a plain count of
   workers and no claiming protocol is needed. *)
let exec_stride t f ~participant ~participants =
  let slot = ref participant in
  while !slot < t.jobs do
    (try f !slot with e -> record_error t !slot e);
    slot := !slot + participants
  done

let worker t participant participants =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while t.epoch = !seen && not t.stopped do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stopped then begin
      running := false;
      Mutex.unlock t.mutex
    end
    else begin
      seen := t.epoch;
      let f = match t.work with Some f -> f | None -> assert false in
      Mutex.unlock t.mutex;
      exec_stride t f ~participant ~participants;
      Mutex.lock t.mutex;
      t.unfinished <- t.unfinished - 1;
      if t.unfinished = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex
    end
  done

let create ~jobs =
  if jobs < 1 then invalid_arg "Parallel.Pool.create: jobs < 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      work = None;
      unfinished = 0;
      stopped = false;
      errors = Array.make jobs None;
      busy = Atomic.make false;
      workers = [||];
    }
  in
  let workers =
    Stdlib.max 0 (Stdlib.min (jobs - 1) (Lazy.force hardware_slots - 1))
  in
  if workers > 0 then begin
    let participants = workers + 1 in
    t.workers <-
      Array.init workers (fun i ->
          Domain.spawn (fun () -> worker t (i + 1) participants))
  end;
  t

let shutdown t =
  if t.jobs > 1 && not t.stopped then begin
    Mutex.lock t.mutex;
    t.stopped <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let reraise_first t =
  let err = ref None in
  for slot = t.jobs - 1 downto 0 do
    match t.errors.(slot) with
    | Some _ as e ->
        err := e;
        t.errors.(slot) <- None
    | None -> ()
  done;
  match !err with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run t f =
  if t.jobs = 1 then f 0
  else if t.stopped then invalid_arg "Parallel.Pool.run: pool was shut down"
  else if Array.length t.workers = 0 then begin
    (* single-core host: no resident workers were spawned, so the
       region runs inline — same slots, same results *)
    Array.fill t.errors 0 t.jobs None;
    exec_stride t f ~participant:0 ~participants:1;
    reraise_first t
  end
  else if not (Atomic.compare_and_set t.busy false true) then begin
    (* reentrant call from a worker of this pool: the outer region holds
       the domains, so execute every slot inline — same slots, same
       results, just sequentially *)
    for slot = 0 to t.jobs - 1 do
      try f slot with e -> record_error t slot e
    done;
    reraise_first t
  end
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set t.busy false)
      (fun () ->
        let workers = Array.length t.workers in
        Mutex.lock t.mutex;
        t.work <- Some f;
        t.unfinished <- workers;
        Array.fill t.errors 0 t.jobs None;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.work_ready;
        Mutex.unlock t.mutex;
        exec_stride t f ~participant:0 ~participants:(workers + 1);
        Mutex.lock t.mutex;
        while t.unfinished > 0 do
          Condition.wait t.work_done t.mutex
        done;
        t.work <- None;
        Mutex.unlock t.mutex;
        reraise_first t)
