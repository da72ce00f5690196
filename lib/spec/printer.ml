module Q = Rational
module LB = Platform.Linear_bound
module Resource = Platform.Resource
module M = Component.Method_sig
module Th = Component.Thread
module Comp = Component.Comp
module A = Component.Assembly

(* Every item prints as whole lines, so an assembly's text is the
   concatenation of its items' texts, grouped by section. *)

let bprintf = Printf.bprintf

let q b x = Buffer.add_string b (Q.to_string x)

let rec supply_expr b = function
  | Platform.Supply.Full -> bprintf b "full"
  | Platform.Supply.Bounded_delay l ->
      bprintf b "bounded(alpha = %a, delta = %a, beta = %a)" q l.LB.alpha q
        l.LB.delta q l.LB.beta
  | Platform.Supply.Periodic_server { budget; period } ->
      bprintf b "server(budget = %a, period = %a)" q budget q period
  | Platform.Supply.Pfair { weight } -> bprintf b "pfair(weight = %a)" q weight
  | Platform.Supply.Static_slots { frame; slots } ->
      bprintf b "slots(frame = %a)" q frame;
      List.iter (fun (s, l) -> bprintf b " [%a, %a]" q s q l) slots
  | Platform.Supply.Nested { inner; outer } ->
      bprintf b "%a within %a" supply_expr inner supply_expr outer

let supply b = function
  | Platform.Supply.Bounded_delay l ->
      bprintf b "  alpha = %a;\n  delta = %a;\n  beta = %a;\n" q l.LB.alpha q
        l.LB.delta q l.LB.beta
  | supply -> bprintf b "  %a;\n" supply_expr supply

let platform b (r : Resource.t) =
  bprintf b "platform %s%s {\n%a  host = %S;\n}\n" r.Resource.name
    (match r.Resource.kind with Resource.Network -> " network" | Resource.Cpu -> "")
    supply r.Resource.supply r.Resource.host

let meth b (m : M.t) = bprintf b "    %s() mit %a;\n" m.M.name q m.M.mit

let action b = function
  | Th.Call { method_name } -> bprintf b "      call %s();\n" method_name
  | Th.Task { name; wcet; bcet; blocking; priority } ->
      bprintf b "      task %s(wcet = %a, bcet = %a" name q wcet q bcet;
      Option.iter (bprintf b ", blocking = %a" q) blocking;
      bprintf b ")";
      Option.iter (bprintf b " priority %d") priority;
      bprintf b ";\n"

let thread b (t : Th.t) =
  bprintf b "    thread %s " t.Th.name;
  (match t.Th.activation with
  | Th.Periodic { period; deadline; jitter } ->
      bprintf b "periodic(period = %a, deadline = %a" q period q deadline;
      if not (Q.equal jitter Q.zero) then bprintf b ", jitter = %a" q jitter;
      bprintf b ")"
  | Th.Realizes { method_name; deadline } ->
      bprintf b "realizes %s()" method_name;
      Option.iter (bprintf b " deadline %a" q) deadline);
  bprintf b " priority %d {\n" t.Th.priority;
  List.iter (action b) t.Th.body;
  bprintf b "    }\n"

let component b (c : Comp.t) =
  bprintf b "component %s {\n" c.Comp.name;
  if c.Comp.provided <> [] then begin
    bprintf b "  provided:\n";
    List.iter (meth b) c.Comp.provided
  end;
  if c.Comp.required <> [] then begin
    bprintf b "  required:\n";
    List.iter (meth b) c.Comp.required
  end;
  bprintf b "  implementation:\n    scheduler fixed_priority;\n";
  List.iter (thread b) c.Comp.threads;
  bprintf b "}\n"

let binding b (x : A.binding) =
  bprintf b "bind %s.%s -> %s.%s" x.A.caller x.A.required x.A.callee
    x.A.provided;
  Option.iter
    (fun (l : A.link) ->
      let w, bc = l.A.request in
      bprintf b " via %s priority %d request(wcet = %a, bcet = %a)" l.A.network
        l.A.priority q w q bc;
      Option.iter
        (fun (w, bc) -> bprintf b " reply(wcet = %a, bcet = %a)" q w q bc)
        l.A.reply)
    x.A.via;
  bprintf b ";\n"

type sections = {
  platforms : string;
  components : string;
  instances : string;
  bindings : string;
}

let sections (a : A.t) =
  let text f items =
    let b = Buffer.create 256 in
    List.iter (f b) items;
    Buffer.contents b
  in
  let allocation = Hashtbl.create (List.length a.A.allocation) in
  List.iter
    (fun (i, p) ->
      if not (Hashtbl.mem allocation i) then Hashtbl.add allocation i p)
    a.A.allocation;
  let instance b (i : A.instance) =
    bprintf b "instance %s : %s on %s;\n" i.A.iname i.A.cls
      (Option.value ~default:"UNALLOCATED"
         (Hashtbl.find_opt allocation i.A.iname))
  in
  {
    platforms = text platform a.A.resources;
    components = text component a.A.classes;
    instances = text instance a.A.instances;
    bindings = text binding a.A.bindings;
  }

let concat parts =
  let section f = List.map f parts in
  String.concat ""
    (section (fun s -> s.platforms)
    @ section (fun s -> s.components)
    @ section (fun s -> s.instances)
    @ section (fun s -> s.bindings))

let to_string a = concat [ sections a ]

let pp ppf a = Format.pp_print_string ppf (to_string a)
