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

(* Name-indexed lookups over one assembly, built once per pass.  The
   first occurrence of a name wins, as a scan of the lists would find
   it; binding groups keep binding order. *)
type index = {
  assembly : t;
  classes_by_name : (string, Comp.t) Hashtbl.t;
  instances_by_name : (string, instance) Hashtbl.t;
  resources_by_name : (string, int * Resource.t) Hashtbl.t;
  allocated : (string, string * string) Hashtbl.t;
  by_requirer : (string * string, binding) Hashtbl.t;
  by_provider : (string * string, binding) Hashtbl.t;
}

let index t =
  (* adding in reverse, so the first occurrence is the one that stays *)
  let table key l =
    let tbl = Hashtbl.create (List.length l) in
    List.iter (fun x -> Hashtbl.replace tbl (key x) x) (List.rev l);
    tbl
  in
  (* [Hashtbl.find_all] returns the latest addition first *)
  let group key =
    let tbl = Hashtbl.create (List.length t.bindings) in
    List.iter (fun b -> Hashtbl.add tbl (key b) b) (List.rev t.bindings);
    tbl
  in
  {
    assembly = t;
    classes_by_name = table (fun (c : Comp.t) -> c.Comp.name) t.classes;
    instances_by_name = table (fun i -> i.iname) t.instances;
    resources_by_name =
      table
        (fun (_, (r : Resource.t)) -> r.Resource.name)
        (List.mapi (fun k r -> (k, r)) t.resources);
    allocated = table fst t.allocation;
    by_requirer = group (fun b -> (b.caller, b.required));
    by_provider = group (fun b -> (b.callee, b.provided));
  }

let find_class idx name = Hashtbl.find_opt idx.classes_by_name name

let find_instance idx name = Hashtbl.find_opt idx.instances_by_name name

let find_resource idx name =
  Option.map snd (Hashtbl.find_opt idx.resources_by_name name)

let allocation_of idx iname =
  Option.map snd (Hashtbl.find_opt idx.allocated iname)

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

let resource_index idx rname = fst (Hashtbl.find idx.resources_by_name rname)

let bindings_of idx ~caller ~required =
  Hashtbl.find_all idx.by_requirer (caller, required)

let binding_for idx ~caller ~required =
  match bindings_of idx ~caller ~required with [] -> None | b :: _ -> Some b

let callers idx ~callee ~provided =
  Hashtbl.find_all idx.by_provider (callee, provided)

let call_graph t =
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

(* [tbl] indexes [names]: it is smaller exactly when a name repeats *)
let check_unique what tbl names errs =
  if Hashtbl.length tbl = List.length names then errs
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

let validate_indexed idx =
  let t = idx.assembly in
  let find_class = find_class idx and find_instance = find_instance idx in
  let find_resource = find_resource idx and allocation_of = allocation_of idx in
  let errs = ref [] in
  let error msg = errs := msg :: !errs in
  !errs
  |> check_unique "class" idx.classes_by_name
       (List.map (fun (c : Comp.t) -> c.Comp.name) t.classes)
  |> check_unique "instance" idx.instances_by_name
       (List.map (fun i -> i.iname) t.instances)
  |> check_unique "resource" idx.resources_by_name
       (List.map (fun (r : Resource.t) -> r.Resource.name) t.resources)
  |> fun base ->
  errs := base;
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
          let callers =
            callers idx ~callee:i.iname ~provided:p.Method_sig.name
          in
          let rate =
            List.fold_left
              (fun acc b ->
                match find_instance b.caller with
                | None -> acc
                | Some ci -> (
                    match find_class ci.cls with
                    | None -> acc
                    | Some ccls -> (
                        match Comp.find_required ccls b.required with
                        | None -> acc
                        | Some r -> Q.(acc + inv r.Method_sig.mit))))
              Q.zero callers
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
  match List.rev !errs with [] -> Ok () | errors -> Error errors

let validate t = validate_indexed (index t)

let pp ppf t =
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
