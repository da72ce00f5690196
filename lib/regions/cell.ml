module Q = Rational
module Sym = Symbolic

type verdict = Feasible | Infeasible | Boundary

type constraint_ = { c_txn : string; c_slack : Sym.t }

type leaf = {
  l_box : Sym.box;
  l_verdict : verdict;
  l_constraints : constraint_ list;
}

(* Quadtree split at the exact midpoints: sw/se below [d_mid], nw/ne
   above; sw/nw below [a_mid], se/ne above.  Points on a midline fall
   to the low side — both children contain them, and certified verdicts
   agree wherever boxes overlap. *)
type tree =
  | Leaf of leaf
  | Split of {
      a_mid : Q.t;
      d_mid : Q.t;
      sw : tree;
      se : tree;
      nw : tree;
      ne : tree;
    }

type stats = {
  cells : int;
  feasible : int;
  infeasible : int;
  boundary : int;
  refined : int;
  probes : int;
  probe_hits : int;
}

type t = {
  resource : int;
  beta : Q.t;
  precision : int;
  domain : Sym.box;
  tree : tree;
  stats : stats;
}

let resource t = t.resource
let beta t = t.beta
let precision t = t.precision
let domain t = t.domain
let stats t = t.stats

type sample = {
  s_schedulable : bool;
  s_slacks : (string * Q.t option) list;
}

type event =
  | Probed of { alpha : Q.t; delta : Q.t; schedulable : bool }
  | Classified of { box : Sym.box; verdict : verdict; refined : bool }
  | Built of { cells : int; probes : int }

let verdict_name = function
  | Feasible -> "feasible"
  | Infeasible -> "infeasible"
  | Boundary -> "boundary"

let event_to_json = function
  | Probed { alpha; delta; schedulable } ->
      Printf.sprintf
        {|{"event":"region_probe","alpha":"%s","delta":"%s","schedulable":%b}|}
        (Q.to_string alpha) (Q.to_string delta) schedulable
  | Classified { box; verdict; refined } ->
      Printf.sprintf
        {|{"event":"region_cell","alpha":["%s","%s"],"delta":["%s","%s"],"verdict":"%s","refined":%b}|}
        (Q.to_string box.Sym.a_lo) (Q.to_string box.Sym.a_hi)
        (Q.to_string box.Sym.d_lo) (Q.to_string box.Sym.d_hi)
        (verdict_name verdict) refined
  | Built { cells; probes } ->
      Printf.sprintf {|{"event":"region_built","cells":%d,"probes":%d}|} cells
        probes

let sample_of_report (model : Analysis.Model.t) report =
  let s_slacks =
    Array.to_list
      (Array.mapi
         (fun a (tx : Analysis.Model.txn) ->
           let last = Array.length tx.Analysis.Model.tasks - 1 in
           match
             report.Analysis.Report.results.(a).(last).Analysis.Report.response
           with
           | Analysis.Report.Divergent -> (tx.Analysis.Model.tname, None)
           | Analysis.Report.Finite r ->
               ( tx.Analysis.Model.tname,
                 Some Q.(r - tx.Analysis.Model.deadline) ))
         model.Analysis.Model.txns)
  in
  { s_schedulable = report.Analysis.Report.schedulable; s_slacks }

(* The slack of every transaction at the three sample corners, fitted
   into affine forms and validated at the fourth.  Any transaction that
   diverges at a corner, fails to fit or fails validation voids the
   whole reconstruction — partial constraint sets would misrepresent
   the frontier. *)
let fit_constraints ~sample_at (box : Sym.box) =
  let ll = sample_at ~alpha:box.Sym.a_lo ~delta:box.Sym.d_lo in
  let hl = sample_at ~alpha:box.Sym.a_hi ~delta:box.Sym.d_lo in
  let lh = sample_at ~alpha:box.Sym.a_lo ~delta:box.Sym.d_hi in
  let hh = sample_at ~alpha:box.Sym.a_hi ~delta:box.Sym.d_hi in
  let rec zip acc = function
    | [], [], [], [] -> Some (List.rev acc)
    | ( (n1, Some v1) :: r1,
        (_, Some v2) :: r2,
        (_, Some v3) :: r3,
        (_, Some v4) :: r4 ) -> (
        match
          Sym.fit
            (box.Sym.a_lo, box.Sym.d_lo, v1)
            (box.Sym.a_hi, box.Sym.d_lo, v2)
            (box.Sym.a_lo, box.Sym.d_hi, v3)
        with
        | Some f
          when Q.equal (Sym.eval f ~alpha:box.Sym.a_hi ~delta:box.Sym.d_hi) v4
          ->
            zip ({ c_txn = n1; c_slack = f } :: acc) (r1, r2, r3, r4)
        | Some _ | None -> None)
    | _ -> None
  in
  match zip [] (ll.s_slacks, hl.s_slacks, lh.s_slacks, hh.s_slacks) with
  | Some cs -> cs
  | None -> []

(* Mutable assembly slots for the breadth-first build: a split is
   allocated before its children are classified, then the finished
   graph is frozen into the immutable [tree]. *)
type build_node =
  | Pending
  | Built of tree
  | Branch of {
      a_mid : Q.t;
      d_mid : Q.t;
      sw : build_slot;
      se : build_slot;
      nw : build_slot;
      ne : build_slot;
    }

and build_slot = { mutable b_node : build_node }

let rec freeze slot =
  match slot.b_node with
  | Built t -> t
  | Branch { a_mid; d_mid; sw; se; nw; ne } ->
      Split
        {
          a_mid;
          d_mid;
          sw = freeze sw;
          se = freeze se;
          nw = freeze nw;
          ne = freeze ne;
        }
  | Pending -> assert false

let build ?sink ?(precision = 6) ~sample ~resource ~beta ~limit () =
  if precision < 1 then invalid_arg "Regions.Cell.build: precision must be >= 1";
  if Q.(limit <= zero) then
    invalid_arg "Regions.Cell.build: limit must be > 0";
  let emit e = match sink with None -> () | Some f -> f e in
  let memo = Hashtbl.create 256 in
  let probes = ref 0 and probe_hits = ref 0 in
  let sample_at ~alpha ~delta =
    let key = (alpha.Q.num, alpha.Q.den, delta.Q.num, delta.Q.den) in
    match Hashtbl.find_opt memo key with
    | Some s ->
        incr probe_hits;
        s
    | None ->
        incr probes;
        let s = sample ~alpha ~delta in
        emit (Probed { alpha; delta; schedulable = s.s_schedulable });
        Hashtbl.add memo key s;
        s
  in
  let ok ~alpha ~delta = (sample_at ~alpha ~delta).s_schedulable in
  let n_cells = ref 0
  and n_feas = ref 0
  and n_inf = ref 0
  and n_bnd = ref 0
  and n_ref = ref 0 in
  let leaf box verdict constraints =
    incr n_cells;
    (match verdict with
    | Feasible -> incr n_feas
    | Infeasible -> incr n_inf
    | Boundary -> incr n_bnd);
    if constraints <> [] then incr n_ref;
    emit (Classified { box; verdict; refined = constraints <> [] });
    Leaf { l_box = box; l_verdict = verdict; l_constraints = constraints }
  in
  (* The tree is grown breadth-first, each generation of boxes walked
     in dominance order — (d_lo ascending, a_hi descending), a linear
     extension of "easier box first" — instead of split (depth-first)
     order, so a warm [sample] closure (Probe_ladder) finds the corners
     of easier neighbours already converged when it probes a harder
     box.  Per-box classification is untouched: verdicts, cell and
     probe counts, and the assembled tree are identical to the old
     recursive walk (the driving [sample] is a pure function of the
     point), only the probe order changes. *)
  let classify (box : Sym.box) depth slot =
    (* monotone corner certificates: the worst corner feasible makes
       the whole box feasible, the best corner infeasible makes it all
       infeasible (docs/REGIONS.md) *)
    if ok ~alpha:box.Sym.a_lo ~delta:box.Sym.d_hi then begin
      slot.b_node <- Built (leaf box Feasible []);
      []
    end
    else if not (ok ~alpha:box.Sym.a_hi ~delta:box.Sym.d_lo) then begin
      slot.b_node <- Built (leaf box Infeasible []);
      []
    end
    else if depth <= 0 then begin
      slot.b_node <- Built (leaf box Boundary (fit_constraints ~sample_at box));
      []
    end
    else begin
      let a_mid = Q.div_int (Q.add box.Sym.a_lo box.Sym.a_hi) 2 in
      let d_mid = Q.div_int (Q.add box.Sym.d_lo box.Sym.d_hi) 2 in
      let sub ~a_lo ~a_hi ~d_lo ~d_hi = Sym.box ~a_lo ~a_hi ~d_lo ~d_hi in
      let d = depth - 1 in
      let sw = { b_node = Pending }
      and se = { b_node = Pending }
      and nw = { b_node = Pending }
      and ne = { b_node = Pending } in
      slot.b_node <- Branch { a_mid; d_mid; sw; se; nw; ne };
      [
        ( sub ~a_lo:box.Sym.a_lo ~a_hi:a_mid ~d_lo:box.Sym.d_lo ~d_hi:d_mid,
          d, sw );
        ( sub ~a_lo:a_mid ~a_hi:box.Sym.a_hi ~d_lo:box.Sym.d_lo ~d_hi:d_mid,
          d, se );
        ( sub ~a_lo:box.Sym.a_lo ~a_hi:a_mid ~d_lo:d_mid ~d_hi:box.Sym.d_hi,
          d, nw );
        ( sub ~a_lo:a_mid ~a_hi:box.Sym.a_hi ~d_lo:d_mid ~d_hi:box.Sym.d_hi,
          d, ne );
      ]
    end
  in
  let dominance_order ((b1 : Sym.box), _, _) ((b2 : Sym.box), _, _) =
    match Q.compare b1.Sym.d_lo b2.Sym.d_lo with
    | 0 -> Q.compare b2.Sym.a_hi b1.Sym.a_hi
    | c -> c
  in
  let domain =
    Sym.box ~a_lo:(Q.make 1 (1 lsl precision)) ~a_hi:Q.one ~d_lo:Q.zero
      ~d_hi:limit
  in
  let root = { b_node = Pending } in
  let generation = ref [ (domain, precision, root) ] in
  while !generation <> [] do
    let sorted = List.stable_sort dominance_order !generation in
    generation :=
      List.concat_map (fun (box, depth, slot) -> classify box depth slot) sorted
  done;
  let tree = freeze root in
  emit (Built { cells = !n_cells; probes = !probes });
  {
    resource;
    beta;
    precision;
    domain;
    tree;
    stats =
      {
        cells = !n_cells;
        feasible = !n_feas;
        infeasible = !n_inf;
        boundary = !n_bnd;
        refined = !n_ref;
        probes = !probes;
        probe_hits = !probe_hits;
      };
  }

let rec find tree ~alpha ~delta =
  match tree with
  | Leaf l -> l
  | Split s ->
      let sub =
        if Q.(alpha <= s.a_mid) then
          if Q.(delta <= s.d_mid) then s.sw else s.nw
        else if Q.(delta <= s.d_mid) then s.se
        else s.ne
      in
      find sub ~alpha ~delta

let classify t ~alpha ~delta =
  if not (Sym.mem t.domain ~alpha ~delta) then Boundary
  else (find t.tree ~alpha ~delta).l_verdict

let predicted t ~alpha ~delta =
  if not (Sym.mem t.domain ~alpha ~delta) then None
  else
    let l = find t.tree ~alpha ~delta in
    match (l.l_verdict, l.l_constraints) with
    | Boundary, (_ :: _ as cs) ->
        Some
          (List.for_all
             (fun c -> Q.(Sym.eval c.c_slack ~alpha ~delta <= zero))
             cs)
    | _ -> None

let member t ~probe ~alpha ~delta =
  match classify t ~alpha ~delta with
  | Feasible -> true
  | Infeasible -> false
  | Boundary -> probe ~alpha ~delta

let fold_leaves t ~init ~f =
  let rec go acc = function
    | Leaf l -> f acc l
    | Split s -> go (go (go (go acc s.sw) s.se) s.nw) s.ne
  in
  go init t.tree
