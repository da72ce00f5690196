module Q = Rational
module Resource = Platform.Resource

type link = {
  network : string;
  priority : int;
  request : Q.t * Q.t;
  reply : (Q.t * Q.t) option;
}

type binding = {
  caller : string;
  required : string;
  callee : string;
  provided : string;
  via : link option;
}

type instance = { iname : string; cls : string }

type t = {
  classes : Comp.t list;
  resources : Resource.t list;
  instances : instance list;
  bindings : binding list;
  allocation : (string * string) list;
}

let make ~classes ~resources ~instances ~bindings ~allocation =
  { classes; resources; instances; bindings; allocation }

let concat parts =
  let all f = List.concat_map f parts in
  {
    classes = all (fun p -> p.classes);
    resources = all (fun p -> p.resources);
    instances = all (fun p -> p.instances);
    bindings = all (fun p -> p.bindings);
    allocation = all (fun p -> p.allocation);
  }

module Names = Map.Make (String)

module Pairs = Map.Make (struct
  type t = string * string

  let compare (a, b) (c, d) =
    match String.compare a c with 0 -> String.compare b d | n -> n
end)

type namespace = Class | Instance | Platform

module Refs = Map.Make (struct
  type t = namespace * string

  let compare (a, x) (b, y) =
    match Stdlib.compare a b with 0 -> String.compare x y | n -> n
end)

(* Name-indexed lookups, persistent: an index extended by one part
   shares everything else with the index it extends, so a candidate
   never copies it.  The first occurrence of a name wins, as a scan of
   the lists would find it; binding groups are kept latest first and
   read back in binding order. *)
type index = {
  classes : Comp.t Names.t;
  instances : instance Names.t;
  allocated : string Names.t;
  platforms : (int * Resource.t) Names.t;
  n_platforms : int;
  by_requirer : binding list Pairs.t;
  by_provider : binding list Pairs.t;
  refs : int Refs.t;
      (* how often later parts use a name an earlier part declares *)
}

let empty =
  {
    classes = Names.empty;
    instances = Names.empty;
    allocated = Names.empty;
    platforms = Names.empty;
    n_platforms = 0;
    by_requirer = Pairs.empty;
    by_provider = Pairs.empty;
    refs = Refs.empty;
  }

(* Every name [p] uses, once per use; a binding's caller is [p]'s own in
   every valid assembly (see "one part at a time" below). *)
let fold_uses f (p : t) acc =
  let acc =
    List.fold_left (fun acc i -> f (Class, i.cls) acc) acc p.instances
  in
  let acc =
    List.fold_left
      (fun acc (i, r) -> f (Platform, r) (f (Instance, i) acc))
      acc p.allocation
  in
  List.fold_left
    (fun acc b ->
      let acc = f (Instance, b.callee) acc in
      match b.via with None -> acc | Some l -> f (Platform, l.network) acc)
    acc p.bindings

let declares idx (ns, name) =
  match ns with
  | Class -> Names.mem name idx.classes
  | Instance -> Names.mem name idx.instances
  | Platform -> Names.mem name idx.platforms

let count by key refs =
  Refs.update key
    (fun n ->
      match Option.value n ~default:0 + by with 0 -> None | n -> Some n)
    refs

let extend idx (p : t) =
  let first key v m =
    Names.update key (function None -> Some v | seen -> seen) m
  in
  let push key b m =
    Pairs.update key (fun l -> Some (b :: Option.value l ~default:[])) m
  in
  let platforms, n_platforms =
    List.fold_left
      (fun (m, k) (r : Resource.t) -> (first r.Resource.name (k, r) m, k + 1))
      (idx.platforms, idx.n_platforms) p.resources
  in
  {
    classes =
      List.fold_left
        (fun m (c : Comp.t) -> first c.Comp.name c m)
        idx.classes p.classes;
    instances =
      List.fold_left (fun m i -> first i.iname i m) idx.instances p.instances;
    allocated =
      List.fold_left (fun m (i, r) -> first i r m) idx.allocated p.allocation;
    platforms;
    n_platforms;
    by_requirer =
      List.fold_left
        (fun m b -> push (b.caller, b.required) b m)
        idx.by_requirer p.bindings;
    by_provider =
      List.fold_left
        (fun m b -> push (b.callee, b.provided) b m)
        idx.by_provider p.bindings;
    refs =
      fold_uses
        (fun key refs -> if declares idx key then count 1 key refs else refs)
        p idx.refs;
  }

let index t = extend empty t

let find_class idx name = Names.find_opt name idx.classes

let find_instance idx name = Names.find_opt name idx.instances

let find_resource idx name = Option.map snd (Names.find_opt name idx.platforms)

let allocation_of idx iname = Names.find_opt iname idx.allocated

let class_of idx iname =
  match find_instance idx iname with
  | None -> raise Not_found
  | Some i -> (
      match find_class idx i.cls with None -> raise Not_found | Some c -> c)

let resource_of idx iname =
  match allocation_of idx iname with
  | None -> raise Not_found
  | Some rname -> (
      match find_resource idx rname with None -> raise Not_found | Some r -> r)

let resource_index idx rname = fst (Names.find rname idx.platforms)

let group m key =
  match Pairs.find_opt key m with None -> [] | Some l -> List.rev l

let bindings_of idx ~caller ~required = group idx.by_requirer (caller, required)

let binding_for idx ~caller ~required =
  match bindings_of idx ~caller ~required with [] -> None | b :: _ -> Some b

let callers idx ~callee ~provided = group idx.by_provider (callee, provided)

let called idx ~callee ~provided = Pairs.mem (callee, provided) idx.by_provider

let call_graph (t : t) =
  List.map (fun b -> (b.caller, b.callee)) t.bindings

(* Depth-first cycle detection over the instance call graph. *)
let find_cycle edges nodes =
  let succ = Hashtbl.create 64 in
  List.iter (fun (a, b) -> Hashtbl.add succ a b) (List.rev edges);
  let on_path = Hashtbl.create 64 and visited = Hashtbl.create 64 in
  let exception Cycle of string list in
  (* a node without successors is on no cycle, and visiting it changes
     nothing: only nodes with calls are walked *)
  let rec visit path n =
    match Hashtbl.find_all succ n with
    | [] -> ()
    | children ->
        if Hashtbl.mem on_path n then raise (Cycle (List.rev (n :: path)))
        else if not (Hashtbl.mem visited n) then begin
          Hashtbl.replace visited n ();
          Hashtbl.replace on_path n ();
          List.iter (visit (n :: path)) children;
          Hashtbl.remove on_path n
        end
  in
  match List.iter (visit []) nodes with
  | () -> None
  | exception Cycle c -> Some c

(* [indexed] of the [names] are indexed: fewer exactly when a name
   repeats *)
let check_unique what indexed names errs =
  if indexed = List.length names then errs
  else
    let sorted = List.sort String.compare names in
    let rec dups acc = function
      | a :: (b :: _ as rest) ->
          if String.equal a b then
            dups (("duplicate " ^ what ^ " " ^ a) :: acc) rest
          else dups acc rest
      | [] | [ _ ] -> acc
    in
    dups [] sorted @ errs

(* The aggregate invocation rate of a provided method: the sum over its
   callers, in binding order, of 1/caller_mit.  Callers of unknown
   instances, classes or required methods are reported elsewhere. *)
let caller_rate idx ~callee ~provided =
  List.fold_left
    (fun acc b ->
      match find_instance idx b.caller with
      | None -> acc
      | Some ci -> (
          match find_class idx ci.cls with
          | None -> acc
          | Some ccls -> (
              match Comp.find_required ccls b.required with
              | None -> acc
              | Some r -> Q.(acc + inv r.Method_sig.mit))))
    Q.zero
    (callers idx ~callee ~provided)

(* Every check of [validate] but name uniqueness, over the elements of
   [t] alone, with lookups in [idx], an index of an assembly that
   contains [t]; the diagnostics are added to [errs], latest first. *)
let check_elements idx (t : t) errs =
  let find_class = find_class idx and find_instance = find_instance idx in
  let find_resource = find_resource idx and allocation_of = allocation_of idx in
  let errs = ref errs in
  let error msg = errs := msg :: !errs in
  (* Instances: known class, allocated on an existing CPU platform. *)
  List.iter
    (fun i ->
      (match find_class i.cls with
      | Some _ -> ()
      | None -> error (i.iname ^ ": unknown class " ^ i.cls));
      match allocation_of i.iname with
      | None -> error (i.iname ^ ": not allocated to any platform")
      | Some rname -> (
          match find_resource rname with
          | None -> error (i.iname ^ ": allocated to unknown platform " ^ rname)
          | Some r ->
              if r.Resource.kind <> Resource.Cpu then
                error (i.iname ^ ": allocated to non-CPU platform " ^ rname)))
    t.instances;
  List.iter
    (fun (iname, _) ->
      if find_instance iname = None then
        error ("allocation of unknown instance " ^ iname))
    t.allocation;
  (* Bindings: endpoints exist; methods exist; links are consistent. *)
  let binding_descr b = b.caller ^ "." ^ b.required in
  List.iter
    (fun b ->
      match (find_instance b.caller, find_instance b.callee) with
      | None, _ -> error (binding_descr b ^ ": unknown caller instance")
      | _, None -> error (binding_descr b ^ ": unknown callee " ^ b.callee)
      | Some caller_inst, Some callee_inst -> (
          match (find_class caller_inst.cls, find_class callee_inst.cls) with
          | None, _ | _, None -> () (* already reported above *)
          | Some caller_cls, Some callee_cls -> (
              let req = Comp.find_required caller_cls b.required
              and prov = Comp.find_provided callee_cls b.provided in
              (match req with
              | None ->
                  error
                    (binding_descr b ^ ": " ^ caller_cls.Comp.name
                   ^ " has no such required method")
              | Some _ -> ());
              (match prov with
              | None ->
                  error
                    (binding_descr b ^ ": " ^ callee_cls.Comp.name
                   ^ " does not provide " ^ b.provided)
              | Some _ -> ());
              (match (req, prov) with
              | Some r, Some p ->
                  (* The caller promises interarrival >= r.mit; the callee
                     tolerates interarrival >= p.mit.  Compatible iff the
                     promise is at least as strict: r.mit >= p.mit. *)
                  if Q.(r.Method_sig.mit < p.Method_sig.mit) then
                    error
                      (binding_descr b ^ ": caller MIT "
                      ^ Q.to_string r.Method_sig.mit
                      ^ " is below the provided MIT "
                      ^ Q.to_string p.Method_sig.mit)
              | _ -> ());
              (* Bindings that cross physical hosts need a network link;
                 distinct abstract platforms of one host do not (the call
                 is a plain function call there, as in the paper's
                 example). *)
              let same_node =
                let host_of iname =
                  Option.bind (allocation_of iname) (fun rname ->
                      Option.map
                        (fun (r : Resource.t) -> r.Resource.host)
                        (find_resource rname))
                in
                match (host_of b.caller, host_of b.callee) with
                | Some a, Some c -> String.equal a c
                | _ -> true (* allocation errors already reported *)
              in
              match b.via with
              | None ->
                  if not same_node then
                    error
                      (binding_descr b
                     ^ ": instances on different hosts need a network link")
              | Some l -> (
                  if l.priority <= 0 then
                    error (binding_descr b ^ ": message priority must be > 0");
                  let check_msg what (w, bst) =
                    if Q.(w <= zero) then
                      error (binding_descr b ^ ": " ^ what ^ " wcet must be > 0");
                    if Q.(bst < zero) || Q.(bst > w) then
                      error
                        (binding_descr b ^ ": " ^ what
                       ^ " needs 0 <= bcet <= wcet")
                  in
                  check_msg "request" l.request;
                  Option.iter (check_msg "reply") l.reply;
                  match find_resource l.network with
                  | None ->
                      error (binding_descr b ^ ": unknown network " ^ l.network)
                  | Some r ->
                      if r.Resource.kind <> Resource.Network then
                        error
                          (binding_descr b ^ ": " ^ l.network
                         ^ " is not a network platform")))))
    t.bindings;
  (* The per-method checks below skip instances of unknown classes,
     reported above. *)
  let classed =
    List.filter_map
      (fun i -> Option.map (fun c -> (i, c)) (find_class i.cls))
      t.instances
  in
  (* Every required method of every instance is bound exactly once. *)
  List.iter
    (fun (i, cls) ->
      List.iter
        (fun (r : Method_sig.t) ->
          match
            bindings_of idx ~caller:i.iname ~required:r.Method_sig.name
          with
          | [] ->
              error
                (i.iname ^ "." ^ r.Method_sig.name ^ ": required method unbound")
          | [ _ ] -> ()
          | _ :: _ :: _ ->
              error
                (i.iname ^ "." ^ r.Method_sig.name ^ ": bound more than once"))
        cls.Comp.required)
    classed;
  (* Aggregate invocation rate on each provided method must fit its MIT:
     sum over callers of 1/caller_mit <= 1/provided_mit. *)
  List.iter
    (fun (i, cls) ->
      List.iter
        (fun (p : Method_sig.t) ->
          let rate =
            caller_rate idx ~callee:i.iname ~provided:p.Method_sig.name
          in
          if Q.(rate > inv p.Method_sig.mit) then
            error
              (i.iname ^ "." ^ p.Method_sig.name
             ^ ": aggregate caller rate exceeds the provided MIT"))
        cls.Comp.provided)
    classed;
  (* Periodic threads must respect the MIT they declared for each call. *)
  List.iter
    (fun (i, cls) ->
      List.iter
        (fun (th : Thread.t) ->
          match th.Thread.activation with
          | Thread.Realizes _ -> ()
          | Thread.Periodic { period; _ } ->
              List.iter
                (fun m ->
                  match Comp.find_required cls m with
                  | None -> ()
                  | Some r ->
                      if Q.(period < r.Method_sig.mit) then
                        error
                          (i.iname ^ "." ^ th.Thread.name ^ " calls " ^ m
                         ^ " every " ^ Q.to_string period
                         ^ " but declared MIT "
                         ^ Q.to_string r.Method_sig.mit))
                (Thread.called_methods th))
        cls.Comp.threads)
    classed;
  (* RPC cycles deadlock under synchronous invocation. *)
  (match
     find_cycle (call_graph t) (List.map (fun i -> i.iname) t.instances)
   with
  | None -> ()
  | Some cycle -> error ("RPC cycle: " ^ String.concat " -> " cycle));
  !errs

let validate_indexed idx (t : t) =
  []
  |> check_unique "class" (Names.cardinal idx.classes)
       (List.map (fun (c : Comp.t) -> c.Comp.name) t.classes)
  |> check_unique "instance" (Names.cardinal idx.instances)
       (List.map (fun i -> i.iname) t.instances)
  |> check_unique "resource" (Names.cardinal idx.platforms)
       (List.map (fun (r : Resource.t) -> r.Resource.name) t.resources)
  |> check_elements idx t
  |> List.rev
  |> function
  | [] -> Ok ()
  | errors -> Error errors

let validate t = validate_indexed (index t) t

(* --- one part at a time ------------------------------------------- *)

(* A valid assembly built from elaborated parts has three properties:
   a part allocates exactly its own instances, a binding's caller
   belongs to the binding's part (any other caller's required method is
   bound already, or not required), and a part uses only its own names
   and those of earlier parts.  So adding a part leaves every check on
   the earlier parts' elements as it was, except the call rates of the
   methods the part calls there, and a new cycle can only run through
   the part's own instances; removing a part can break only the parts
   that use its names, and changes only the rates of the methods it
   called. *)

exception Invalid

let need c = if not c then raise Invalid

let rate_fits idx ~callee ~provided =
  match Comp.find_provided (class_of idx callee) provided with
  | None -> raise Invalid
  | Some p ->
      need (not Q.(caller_rate idx ~callee ~provided > inv p.Method_sig.mit))

let checked f = try Some (f ()) with Invalid | Not_found | Q.Overflow -> None

let admit idx (u : t) =
  checked (fun () ->
      let own = index u in
      let fresh taken mine declared =
        need (Names.cardinal mine = List.length declared);
        need (Names.for_all (fun name _ -> not (Names.mem name taken)) mine)
      in
      fresh idx.classes own.classes u.classes;
      fresh idx.instances own.instances u.instances;
      fresh idx.platforms own.platforms u.resources;
      need
        (List.compare_lengths u.allocation u.instances = 0
        && List.for_all2
             (fun (a, _) i -> String.equal a i.iname)
             u.allocation u.instances);
      let mine name = Names.mem name own.instances in
      need (List.for_all (fun b -> mine b.caller) u.bindings);
      let idx = extend idx u in
      need (check_elements idx u [] = []);
      (* the methods it calls in earlier parts *)
      Pairs.iter
        (fun (callee, provided) _ ->
          if not (mine callee) then rate_fits idx ~callee ~provided)
        own.by_provider;
      idx)

let revoke idx (k : t) =
  checked (fun () ->
      let own = index k in
      let mine name = Names.mem name own.instances in
      let unused ns names =
        Names.iter (fun n _ -> need (not (Refs.mem (ns, n) idx.refs))) names
      in
      unused Class own.classes;
      unused Instance own.instances;
      unused Platform own.platforms;
      let remove names m =
        Names.fold (fun name _ m -> Names.remove name m) names m
      in
      let n = List.length k.resources in
      let platforms =
        match k.resources with
        | [] -> idx.platforms
        | r :: _ ->
            (* later parts' platforms move down *)
            let start = resource_index idx r.Resource.name in
            Names.map
              (fun (i, r) -> ((if i > start then i - n else i), r))
              (remove own.platforms idx.platforms)
      in
      let idx =
        {
          classes = remove own.classes idx.classes;
          instances = remove own.instances idx.instances;
          allocated = remove own.instances idx.allocated;
          platforms;
          n_platforms = idx.n_platforms - n;
          by_requirer =
            List.fold_left
              (fun m b -> Pairs.remove (b.caller, b.required) m)
              idx.by_requirer k.bindings;
          by_provider =
            List.fold_left
              (fun m b ->
                Pairs.update (b.callee, b.provided)
                  (fun l ->
                    match
                      List.filter
                        (fun b -> not (mine b.caller))
                        (Option.value l ~default:[])
                    with
                    | [] -> None
                    | l -> Some l)
                  m)
              idx.by_provider k.bindings;
          refs =
            fold_uses
              (fun key refs ->
                if declares own key then refs else count (-1) key refs)
              k idx.refs;
        }
      in
      (* the methods it called elsewhere, over the callers left *)
      List.iter
        (fun b ->
          if not (mine b.callee) then
            rate_fits idx ~callee:b.callee ~provided:b.provided)
        k.bindings;
      idx)

let pp ppf (t : t) =
  let idx = index t in
  Format.fprintf ppf "@[<v>";
  List.iter (fun r -> Format.fprintf ppf "platform %a@ " Resource.pp r) t.resources;
  List.iter
    (fun i ->
      let alloc =
        match allocation_of idx i.iname with
        | Some r -> r
        | None -> "?"
      in
      Format.fprintf ppf "instance %s : %s on %s@ " i.iname i.cls alloc)
    t.instances;
  List.iter
    (fun b ->
      let via =
        match b.via with None -> "" | Some l -> " via " ^ l.network
      in
      Format.fprintf ppf "bind %s.%s -> %s.%s%s@ " b.caller b.required b.callee
        b.provided via)
    t.bindings;
  Format.fprintf ppf "@]"
