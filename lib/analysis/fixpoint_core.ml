(* The holistic analysis (Section 3), written once over a numeric
   timeline [N] ({!Timeline.S}).  This file is not a module of the
   library: the build writes it into one compilation unit per domain,
   behind that domain's [N] (see dune) — [Fixpoint.Exact] on exact
   rationals, [Fixpoint.Scaled] on overflow-checked scaled ints — so
   every [N.add], [N.compare] and [N.eval] below is a direct call into
   the same unit, which ocamlopt can inline.  Every step of the one
   instance is the exact image of the other's under v ↦ v·scale, so
   sweep counts, pruning decisions, convergence and reports coincide
   bit for bit (docs/THEORY.md). *)

(* Job counts clamp at 0 with an int comparison: [Stdlib.max] is
   polymorphic, and the build inlines nothing across modules. *)
let[@inline] at_least_0 (n : int) = if n > 0 then n else 0

type num = N.t

let[@inline] max x y = if N.compare x y >= 0 then x else y

let[@inline] clamp v = max N.zero v

(* ---------------------------------------------------------------- *)
(* Demand kernels (Eqs. 7-11, 17)                                   *)
(* ---------------------------------------------------------------- *)

(* The value-independent half of a demand curve: what survives every
   jitter/offset sweep, flattened to contiguous arrays. *)
type skeleton = {
  txn : int;
  js : int array;
  period : N.t;
  costs : N.t array;
}

let skeleton_of (tb : N.t Timebase.t) ~i ~js =
  let c = tb.Timebase.c.(i) in
  {
    txn = i;
    js;
    period = tb.Timebase.period.(i);
    costs = Array.map (Array.get c) js;
  }

let skeleton tb ~i ~hp_list = skeleton_of tb ~i ~js:(Array.of_list hp_list)

(* ϕ^k_{i,j} (Eq. 10) for [lead] = (φ_{i,k} mod T) + J_{i,k}: the
   first activation of τ_{i,j} after a busy period initiated by τ_{i,k}
   released at its maximum jitter, in (0, T]. *)
let lead period ~phi_row ~jit_row k =
  N.add (N.modulo phi_row.(k) period) jit_row.(k)

let phase period ~lead phi_j =
  N.sub period (N.modulo (N.sub lead (N.modulo phi_j period)) period)

(* Jobs of one term released at the start of the window (Eq. 8). *)
let delayed period ~jitter ~phase = N.floor_div (N.add jitter phase) period

let compile sk ~phi ~jit ~k : N.t Timeline.kernel =
  let phi_row = phi.(sk.txn) and jit_row = jit.(sk.txn) in
  let period = sk.period in
  let lead = lead period ~phi_row ~jit_row k in
  let n = Array.length sk.js in
  let phases = Array.make n N.zero and delays = Array.make n 0 in
  for idx = 0 to n - 1 do
    let j = sk.js.(idx) in
    let ph = phase period ~lead phi_row.(j) in
    phases.(idx) <- ph;
    delays.(idx) <- delayed period ~jitter:jit_row.(j) ~phase:ph
  done;
  { Timeline.period; phase = phases; delayed = delays; cost = sk.costs }

(* ---------------------------------------------------------------- *)
(* Busy-period fixed point                                          *)
(* ---------------------------------------------------------------- *)

let rec fixpoint ~horizon f w =
  if N.compare w horizon > 0 then None
  else
    let w' = f w in
    let c = N.compare w' w in
    if c < 0 then invalid_arg "Busy.fixpoint: non-monotone recurrence"
    else if c = 0 then Some w
    else fixpoint ~horizon f w'

(* ---------------------------------------------------------------- *)
(* Best cases (Section 3.2)                                         *)
(* ---------------------------------------------------------------- *)

(* A demand of Cb cycles on (α, Δ, β) completes in as little as
   max 0 (Cb/α − β); the chain sums them. *)
let best_simple (tb : N.t Timebase.t) =
  Array.mapi
    (fun a row ->
      let acc = ref N.zero in
      Array.mapi
        (fun b cb ->
          acc := N.add !acc (clamp (N.sub cb tb.Timebase.beta.(a).(b)));
          !acc)
        row)
    tb.Timebase.cb

(* Redell-style: any window of length r contains at least
   ⌈(r − J)/T⌉ − 1 complete arrivals of each interferer, each of at
   least its best-case demand; least fixed point from below.  Every
   interferer runs on the platform of the task (Eq. 17), so the
   division by α distributes over the demand sum. *)
let best_refined (tb : N.t Timebase.t) ir ~jit =
  Array.mapi
    (fun a row ->
      let start = ref N.zero in
      Array.mapi
        (fun b cb ->
          let site = Ir.site ir ~a ~b and beta = tb.Timebase.beta.(a).(b) in
          let add_txn r i acc hp_list =
            List.fold_left
              (fun acc j ->
                let arrivals =
                  N.ceil_div (N.sub r jit.(i).(j)) tb.Timebase.period.(i) - 1
                in
                N.add acc
                  (N.mul_int (at_least_0 arrivals) tb.Timebase.cb.(i).(j)))
              acc hp_list
          in
          let guaranteed r =
            let own = add_txn r a cb site.Ir.own_hp in
            let demand =
              Array.fold_left
                (fun acc (rm : Ir.remote) ->
                  add_txn r rm.Ir.txn acc rm.Ir.hp_list)
                own site.Ir.remotes
            in
            clamp (N.sub demand beta)
          in
          let alone = clamp (N.sub cb beta) in
          let horizon = N.mul_int 1024 tb.Timebase.period.(a) in
          (* An overloaded platform falls back to the simple term: the
             refinement is only a tightening, never a requirement. *)
          let own =
            match fixpoint ~horizon guaranteed N.zero with
            | Some r -> r
            | None -> alone
          in
          start := N.add !start (max own alone);
          !start)
        row)
    tb.Timebase.cb

(* ---------------------------------------------------------------- *)
(* Response time of one site (Sections 3.1.1, 3.1.2)                *)
(* ---------------------------------------------------------------- *)

type bound = Finite of N.t | Divergent

let bound_max x y =
  match (x, y) with
  | Divergent, _ | _, Divergent -> Divergent
  | Finite u, Finite v -> Finite (max u v)

(* Per-session tables: the timebase plus, per site, the skeletons of
   its own and remote interfering sets — flattened on first use (the
   delta path only touches its dirty frontier). *)
type site_skeletons = { own_sk : skeleton; remote_sks : skeleton array }

type tables = {
  tb : N.t Timebase.t;
  ir : Ir.t;
  sites : site_skeletons option array array;
}

let tables ir (tb : N.t Timebase.t) =
  {
    tb;
    ir;
    sites =
      Array.map (fun row -> Array.make (Array.length row) None) tb.Timebase.c;
  }

let timebase t = t.tb

let skeletons t (s : Ir.site) =
  match t.sites.(s.Ir.a).(s.Ir.b) with
  | Some k -> k
  | None ->
      let k =
        {
          own_sk = skeleton t.tb ~i:s.Ir.a ~hp_list:s.Ir.own_hp;
          remote_sks =
            Array.map
              (fun (r : Ir.remote) ->
                skeleton_of t.tb ~i:r.Ir.txn ~js:r.Ir.choices)
              s.Ir.remotes;
        }
      in
      t.sites.(s.Ir.a).(s.Ir.b) <- Some k;
      k

(* Response of task (a,b) within busy periods started by the scenario
   where τ_{a,c} initiates the own transaction; [own] is the demand
   curve of the other own tasks, [remote] the demand of the remote
   transactions. *)
let scenario_response (tb : N.t Timebase.t) ~phi ~jit ~a ~b ~c ~own ~remote =
  let ta = tb.Timebase.period.(a) and cost = tb.Timebase.c.(a).(b) in
  let horizon = tb.Timebase.horizon.(a) and base = tb.Timebase.base.(a).(b) in
  let ph =
    phase ta ~lead:(lead ta ~phi_row:phi.(a) ~jit_row:jit.(a) c) phi.(a).(b)
  in
  let p0 = 1 - N.floor_div (N.add jit.(a).(b) ph) ta in
  (* Nominal self activations inside (0, l), clamped at 0 like the
     kernels. *)
  let inside l = at_least_0 (N.ceil_div (N.sub l ph) ta) in
  let demand self_jobs w =
    N.add
      (N.add (N.add base (N.mul_int self_jobs cost)) (N.eval own w))
      (remote w)
  in
  let busy_length l = demand (at_least_0 (inside l - p0 + 1)) l in
  match fixpoint ~horizon busy_length N.zero with
  | None -> Divergent
  | Some l ->
      let response p w =
        let activation =
          N.sub (N.add ph (N.mul_int (p - 1) ta)) phi.(a).(b)
        in
        Finite (N.sub w activation)
      in
      let last = inside l in
      if last < p0 then Finite N.zero
      else begin
        (* The last job completes at the end of the window: the least
           fixed point of [demand (last - p0 + 1)] is [l] itself
           (docs/THEORY.md).  Earlier jobs iterate from 0. *)
        let best = ref (bound_max (Finite N.zero) (response last l)) in
        for p = p0 to last - 1 do
          match fixpoint ~horizon (demand (p - p0 + 1)) N.zero with
          | None -> best := Divergent
          | Some w -> best := bound_max !best (response p w)
        done;
        !best
      end

(* What a site's previous computation in one run of [analyze] found
   (docs/THEORY.md, "Branch-and-bound pruning"): [floor], a lower bound
   of the site's current response that the branch and bound takes as
   its initial incumbent (zero: none), and [hint], the scenario it
   evaluates first (-1: none yet, the W{^*} seed instead).  The search
   leaves its argmax scenario in [hint]. *)
type start = { mutable floor : num; mutable hint : int }

let response_time ~counters ?start tables (site : Ir.site) params ~phi ~jit =
  let tb = tables.tb in
  let a = site.Ir.a and b = site.Ir.b in
  let { own_sk; remote_sks } = skeletons tables site in
  (* Every demand curve is compiled once per response-time
     computation. *)
  let own =
    Array.of_list
      (List.map (fun c -> (c, compile own_sk ~phi ~jit ~k:c)) site.Ir.own)
  in
  (* The curves of every remote choice, per remote transaction. *)
  let remotes =
    Array.mapi
      (fun ri (r : Ir.remote) ->
        Array.map (fun k -> compile remote_sks.(ri) ~phi ~jit ~k) r.Ir.choices)
      site.Ir.remotes
  in
  let n_remotes = Array.length remotes in
  (* The scenario under evaluation, one slot per remote: remotes below
     [level] are free, at their scenario maximum W{^*}; remote [ri]
     from [level] on is fixed at choice [digit.(ri)]. *)
  let level = ref n_remotes and digit = Array.make n_remotes 0 in
  let remote t =
    let acc = ref N.zero in
    for ri = 0 to n_remotes - 1 do
      let curves = remotes.(ri) in
      let w =
        if ri < !level then begin
          let w = ref N.zero in
          for ci = 0 to Array.length curves - 1 do
            w := max !w (N.eval curves.(ci) t)
          done;
          !w
        end
        else N.eval curves.(digit.(ri)) t
      in
      acc := N.add !acc w
    done;
    !acc
  in
  let n_own = Array.length own in
  (* The response under the slots' scenario when own initiator [oi]
     starts the busy period. *)
  let initiator oi =
    let c, curve = own.(oi) in
    scenario_response tb ~phi ~jit ~a ~b ~c ~own:curve ~remote
  in
  (* The response under the slots' scenario, over every own
     initiator. *)
  let evaluate lvl =
    level := lvl;
    let best = ref (Finite N.zero) in
    for oi = 0 to n_own - 1 do
      best := bound_max !best (initiator oi)
    done;
    !best
  in
  match params.Params.variant with
  | Params.Reduced ->
      Rta.record counters Rta.Total 1;
      Rta.record counters Rta.Visited 1;
      evaluate n_remotes
  | Params.Exact ->
      (* The scenario vectors ν (Eq. 12) of the remote transactions
         form a mixed-radix space of size Π |hp_i|: index v picks
         digit (v / stride_i) mod |hp_i| for remote i. *)
      let stride = site.Ir.stride and total = site.Ir.total in
      Rta.record counters Rta.Total total;
      if not params.Params.prune then begin
        (* Exhaustive enumeration — the reference pruning is checked
           against (bench X10, qcheck identity properties). *)
        Rta.record counters Rta.Visited total;
        let best = ref (Finite N.zero) in
        for v = 0 to total - 1 do
          let rem = ref v in
          for ri = 0 to n_remotes - 1 do
            let s = Array.length remotes.(ri) in
            digit.(ri) <- !rem mod s;
            rem := !rem / s
          done;
          best := bound_max !best (evaluate 0)
        done;
        !best
      end
      else begin
        (* Branch and bound over the mixed-radix digit tree.  The
           incumbent is a lower bound of the site's response: the
           [start]'s floor, raised to the best response of every
           scenario evaluated so far; a subtree is discarded when an
           optimistic bound (fixed digits at their actual demand, free
           digits at the scenario maximum W{^*}) cannot beat it.
           Pruning only drops scenarios provably ≤ the incumbent, so
           the returned bound is the exhaustive path's as long as the
           floor is ≤ it (see docs/THEORY.md). *)
        let floor, hint =
          match start with Some s -> (s.floor, s.hint) | None -> (N.zero, -1)
        in
        let incumbent = ref (Finite floor) and argmax = ref hint in
        let prune_le ub inc =
          match (ub, inc) with
          | _, Divergent -> true
          | Divergent, Finite _ -> false
          | Finite u, Finite i -> N.compare u i <= 0
        in
        (* The dominance argument holds per own initiator, so each
           block keeps its bound per initiator: [values.(lvl)] for the
           block evaluated at level [lvl] (row 0 for leaves).  Below a
           block whose finite bound for an initiator cannot beat the
           incumbent, that initiator is not evaluated again: the
           bound stands in for it, and since it is ≤ the incumbent,
           every pruning decision and incumbent update is the one a
           full evaluation would make (docs/THEORY.md).  A divergent
           bound never stands in: its iteration stopped past the
           horizon, so the evaluations below could reach points it
           never did. *)
        let values =
          Array.init (n_remotes + 1) (fun _ -> Array.make n_own Divergent)
        in
        (* The slots' scenario with remotes below [lvl] free, under
           the bounds of the nearest evaluated enclosing block. *)
        let evaluate_within enclosing lvl =
          level := lvl;
          let row = values.(lvl) in
          let best = ref (Finite N.zero) in
          for oi = 0 to n_own - 1 do
            let v =
              match enclosing with
              | Some up -> (
                  match up.(oi) with
                  | Finite _ as u when prune_le u !incumbent -> u
                  | _ -> initiator oi)
              | None -> initiator oi
            in
            row.(oi) <- v;
            best := bound_max !best v
          done;
          !best
        in
        (* Scenario [v], its digits in the slots. *)
        let leaf enclosing v =
          Rta.record counters Rta.Visited 1;
          let r = evaluate_within enclosing 0 in
          if not (prune_le r !incumbent) then begin
            incumbent := r;
            argmax := v
          end
        in
        (* The scenario evaluated first: the previous computation's
           argmax [hint], or the seed — per remote transaction, the
           initiator of maximal demand over the horizon, the argmax
           realising the Reduced variant's W{^*} there.  Either is an
           ordinary scenario, so a sound incumbent, and usually a
           near-maximal one. *)
        let first = ref (-1) in
        let evaluate_first enclosing ~hint =
          let v =
            if hint >= 0 then hint
            else begin
              let horizon = tb.Timebase.horizon.(a) in
              let seed = ref 0 in
              for ri = 0 to n_remotes - 1 do
                let curves = remotes.(ri) in
                let best_ci = ref 0
                and best_w = ref (N.eval curves.(0) horizon) in
                for ci = 1 to Array.length curves - 1 do
                  let w = N.eval curves.(ci) horizon in
                  if N.compare w !best_w > 0 then begin
                    best_w := w;
                    best_ci := ci
                  end
                done;
                seed := !seed + (!best_ci * stride.(ri))
              done;
              !seed
            end
          in
          for ri = 0 to n_remotes - 1 do
            digit.(ri) <- v / stride.(ri) mod Array.length remotes.(ri)
          done;
          first := v;
          leaf enclosing v
        in
        (* The block [v_base, v_base + stride.(lvl)). *)
        let rec visit lvl v_base enclosing =
          if lvl = 0 then begin
            if v_base <> !first then leaf enclosing v_base
          end
          else
            let size = stride.(lvl) in
            if size <= 1 then descend lvl v_base enclosing
            else begin
              (* The block's optimistic bound: remotes below [lvl]
                 free, the rest at the digits of the descent. *)
              Rta.record counters Rta.Bounds 1;
              if prune_le (evaluate_within enclosing lvl) !incumbent then
                Rta.record counters Rta.Pruned size
              else descend lvl v_base (Some values.(lvl))
            end
        and descend lvl v_base enclosing =
          let ri = lvl - 1 in
          let sub = stride.(ri) in
          for ci = 0 to Array.length remotes.(ri) - 1 do
            digit.(ri) <- ci;
            visit ri (v_base + (ci * sub)) enclosing
          done
        in
        if total <= 1 then evaluate_first None ~hint
        else begin
          (* The root block, every remote free, dominates every
             scenario.  The hint runs only under a converged root
             bound, so that it reads no point beyond the bound's busy
             periods; under a divergent one the seed runs, as it does
             in a site's first computation (docs/THEORY.md). *)
          Rta.record counters Rta.Bounds 1;
          let root = evaluate_within None n_remotes in
          let enclosing = Some values.(n_remotes) in
          evaluate_first enclosing
            ~hint:(match root with Finite _ -> hint | Divergent -> -1);
          if prune_le root !incumbent then Rta.record counters Rta.Pruned total
          else descend n_remotes 0 enclosing
        end;
        (match start with Some s -> s.hint <- !argmax | None -> ());
        !incumbent
      end

(* ---------------------------------------------------------------- *)
(* The outer Jacobi fixed point (Section 3.2)                        *)
(* ---------------------------------------------------------------- *)

type lifted = {
  l_dirty : bool array;
  l_jit : N.t array array;
  l_resp : bound array array;
  l_rows : Report.task_result array array;
  l_seeded : bool;
}

(* A warm start planned on rationals, moved onto this timeline: exact
   conversions raise [Rational.Overflow] off the lattice; seeded
   starts round jitters down instead (sound: the rows they pin hold
   their cold starting values, already on the lattice).  The
   jitter rows are fresh, so [analyze] owns them. *)
let lift t (w : Timeline.warm) =
  let scale = t.tb.Timebase.scale in
  let jit = if w.floor then N.floor_of_q ~scale else N.of_q ~scale in
  {
    l_dirty = w.dirty;
    l_jit = Array.map (Array.map jit) w.jit;
    l_resp =
      Array.map
        (Array.map (function
          | Report.Finite r -> Finite (N.of_q ~scale r)
          | Report.Divergent -> Divergent))
        w.resp;
    l_rows = w.rows;
    l_seeded = w.floor;
  }

(* The cap on outer sweeps.  Converging systems settle in a handful;
   the cap only stops a system whose jitters keep creeping up without
   diverging or missing a deadline. *)
let max_sweeps = 256

let rows_equal x y =
  Array.length x = Array.length y
  &&
  let rec go i = i < 0 || (N.equal x.(i) y.(i) && go (i - 1)) in
  go (Array.length x - 1)

let analyze ~params ~counters ~sweep t ~warm =
  let tb = t.tb and ir = t.ir in
  let scale = tb.Timebase.scale in
  let n = Array.length tb.Timebase.period in
  let to_q = N.to_q ~scale in
  let to_bound = function
    | Finite v -> Report.Finite (to_q v)
    | Divergent -> Report.Divergent
  in
  let jit =
    match warm with
    | Some w -> w.l_jit
    | None ->
        Array.mapi
          (fun a row ->
            Array.mapi
              (fun b _ ->
                if b = 0 then tb.Timebase.release_jitter.(a) else N.zero)
              row)
          tb.Timebase.c
  in
  let best_case () =
    match params.Params.best_case with
    | Params.Simple -> best_simple tb
    | Params.Refined -> best_refined tb ir ~jit
  in
  let offsets rbest =
    Array.map
      (fun row ->
        Array.mapi (fun b _ -> if b = 0 then N.zero else row.(b - 1)) row)
      rbest
  in
  (* Some transaction's end-to-end response diverged or missed its
     deadline. *)
  let late resp =
    let late = ref false in
    Array.iteri
      (fun a row ->
        match row.(Array.length row - 1) with
        | Divergent -> late := true
        | Finite v ->
            if N.compare v tb.Timebase.deadline.(a) > 0 then late := true)
      resp;
    !late
  in
  let rbest = ref (best_case ()) in
  let phi = ref (offsets !rbest) in
  (* Rows whose values changed in the latest jitter/offset update; all
     dirty before the first sweep so every task is computed once.  A
     warm start instead seeds exactly its dirty frontier: clean rows
     hold the converged values their carried responses were computed
     under, so carrying them is the same bit-identical shortcut the
     within-run incremental sweep takes.  (Warm starts imply the
     Simple best case, so the offsets are constant and [phi_dirty]
     stays false.) *)
  let jit_dirty =
    match warm with Some w -> Array.copy w.l_dirty | None -> Array.make n true
  in
  let phi_dirty = Array.make n (Option.is_none warm) in
  let prev = ref (Option.map (fun w -> w.l_resp) warm) in
  (* Per site, what its previous computation in this run found, for the
     exact branch and bound to start from (docs/THEORY.md,
     "Branch-and-bound pruning").  The hint holds in every run; the
     floor, the previous response, only where the rows iterate up from
     bottom under the Simple best case, so that it is ≤ the response
     being computed: cold runs and the dirty rows of delta and pinned
     plans, not seeded runs. *)
  let starts =
    if params.Params.variant = Params.Exact && params.Params.prune then
      Some (Array.map (Array.map (fun _ -> { floor = N.zero; hint = -1 })) jit)
    else None
  in
  let seeded = match warm with Some w -> w.l_seeded | None -> false in
  let floored = params.Params.best_case = Params.Simple && not seeded in
  let history = ref [] in
  let responses = ref (Array.map (Array.map (fun _ -> Divergent)) jit) in
  let diverged = ref false and converged = ref false in
  let iterations = ref 0 in
  while (not !converged) && (not !diverged) && !iterations < max_sweeps do
    incr iterations;
    (* Jacobi sweep.  A task none of whose rows ({!Ir.stale}) changed
       since the previous sweep carries its response forward: the
       response is a pure function of those rows, so the carried
       value is bit-identical to a recomputation. *)
    let stale =
      Ir.stale ir
        ~dirty:(Array.init n (fun i -> jit_dirty.(i) || phi_dirty.(i)))
    in
    let recomputed = ref 0 and carried = ref 0 in
    let resp =
      Array.mapi
        (fun a row ->
          Array.mapi
            (fun b _ ->
              match !prev with
              | Some pr when not (stale ~a ~b) ->
                  incr carried;
                  pr.(a).(b)
              | _ ->
                  incr recomputed;
                  let start = Option.map (fun s -> s.(a).(b)) starts in
                  let r =
                    response_time ~counters ?start t (Ir.site ir ~a ~b) params
                      ~phi:!phi ~jit
                  in
                  (match start with
                  | Some s when floored ->
                      s.floor <-
                        (match r with Finite v -> v | Divergent -> N.zero)
                  | _ -> ());
                  r)
            row)
        jit
    in
    sweep ~iteration:!iterations ~recomputed:!recomputed ~carried:!carried;
    prev := Some resp;
    responses := resp;
    if params.Params.keep_history then
      history :=
        {
          Report.jitters = Array.map (Array.map to_q) jit;
          responses = Array.map (Array.map to_bound) resp;
        }
        :: !history;
    (* With the Simple best case the offsets are constant and the
       responses are monotone across iterations, so a transaction
       already past its deadline settles the verdict: stop early.
       The remaining sweeps would only refine the numbers of a
       failing system, sometimes very slowly.  (Refined recomputes
       offsets, which breaks the monotonicity argument, so it always
       iterates fully.) *)
    if params.Params.best_case = Params.Simple && late resp then
      diverged := true;
    (* Next jitters, Jacobi-style from this iteration's responses. *)
    let next =
      try
        Some
          (Array.mapi
             (fun a row ->
               Array.mapi
                 (fun b _ ->
                   if b = 0 then tb.Timebase.release_jitter.(a)
                   else
                     match resp.(a).(b - 1) with
                     | Divergent -> raise Exit
                     | Finite r -> clamp (N.sub r !rbest.(a).(b - 1)))
                 row)
             jit)
      with Exit -> None
    in
    match next with
    | None -> diverged := true
    | Some _ when !diverged -> ()
    | Some next ->
        Array.fill jit_dirty 0 n false;
        Array.fill phi_dirty 0 n false;
        Array.iteri
          (fun a row ->
            if not (rows_equal row jit.(a)) then begin
              jit_dirty.(a) <- true;
              Array.blit row 0 jit.(a) 0 (Array.length row)
            end)
          next;
        if not (Array.exists Fun.id jit_dirty) then converged := true
        else if params.Params.best_case = Params.Refined then begin
          (* The refined best case depends on the jitters; refresh it
             and the offsets it seeds. *)
          let old_phi = !phi in
          rbest := best_case ();
          phi := offsets !rbest;
          Array.iteri
            (fun i row -> phi_dirty.(i) <- not (rows_equal old_phi.(i) row))
            !phi
        end
  done;
  (* A row the warm start pinned is never recomputed, and under the
     Simple best case its offsets and best cases read only its own
     constants: its entries are the previous report's row, bit for
     bit. *)
  let results =
    Array.mapi
      (fun a row ->
        match warm with
        | Some w when not w.l_dirty.(a) -> w.l_rows.(a)
        | _ ->
            Array.mapi
              (fun b r ->
                {
                  Report.offset = to_q !phi.(a).(b);
                  jitter = to_q jit.(a).(b);
                  rbest = to_q !rbest.(a).(b);
                  response = to_bound r;
                })
              row)
      !responses
  in
  {
    Report.results;
    history = List.rev !history;
    outer_iterations = !iterations;
    converged = !converged;
    schedulable = !converged && not (late !responses);
  }
