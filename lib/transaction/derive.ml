module Q = Rational
module A = Component.Assembly
module Comp = Component.Comp
module Thread = Component.Thread
module Method_sig = Component.Method_sig

(* Tasks are accumulated in reverse while walking thread bodies.  Names
   stay plain unless the same code is spliced in twice (a method called
   repeatedly), in which case occurrences get "@2", "@3", … suffixes. *)
type walk_state = {
  mutable rev_tasks : Task.t list;
  used : (string, int) Hashtbl.t;
}

let fresh_name st base =
  match Hashtbl.find_opt st.used base with
  | None ->
      Hashtbl.replace st.used base 1;
      base
  | Some n ->
      Hashtbl.replace st.used base (n + 1);
      Printf.sprintf "%s@%d" base (n + 1)

let push st task = st.rev_tasks <- task :: st.rev_tasks

(* Walk the body of [thread] of [instance]; [priority] and [resource] are
   the thread's own, already resolved.  [idx] indexes the assembly. *)
let rec walk idx st ~instance ~(thread : Thread.t) =
  let resource =
    A.resource_index idx (A.resource_of idx instance).Platform.Resource.name
  in
  List.iter
    (fun action ->
      match action with
      | Thread.Task { name; wcet; bcet; blocking; priority } ->
          let qualified = instance ^ "." ^ thread.Thread.name ^ "." ^ name in
          push st
            (Task.make
               ~source:
                 (Task.Code
                    { instance; thread = thread.Thread.name; action = name })
               ?blocking
               ~name:(fresh_name st qualified) ~wcet ~bcet ~resource
               ~priority:(Option.value priority ~default:thread.Thread.priority)
               ())
      | Thread.Call { method_name } -> (
          match A.binding_for idx ~caller:instance ~required:method_name with
          | None ->
              (* Excluded by validation; defensive. *)
              invalid_arg
                ("Derive: unbound call " ^ instance ^ "." ^ method_name)
          | Some b ->
              let message direction (wcet, bcet) (l : A.link) =
                let net = A.resource_index idx l.A.network in
                let dir_name =
                  match direction with `Request -> "req" | `Reply -> "rep"
                in
                push st
                  (Task.make
                     ~source:
                       (Task.Message
                          {
                            caller = instance;
                            callee = b.A.callee;
                            method_name = b.A.provided;
                            direction;
                          })
                     ~name:
                       (fresh_name st
                          (instance ^ "->" ^ b.A.callee ^ "." ^ b.A.provided
                         ^ ":" ^ dir_name))
                     ~wcet ~bcet ~resource:net ~priority:l.A.priority ())
              in
              Option.iter (fun l -> message `Request l.A.request l) b.A.via;
              let callee_cls = A.class_of idx b.A.callee in
              (match Comp.realizer callee_cls b.A.provided with
              | None ->
                  invalid_arg
                    ("Derive: no realizer for " ^ b.A.callee ^ "." ^ b.A.provided)
              | Some callee_thread ->
                  walk idx st ~instance:b.A.callee ~thread:callee_thread);
              Option.iter
                (fun l -> Option.iter (fun r -> message `Reply r l) l.A.reply)
                b.A.via))
    thread.Thread.body

let transaction_of_thread idx ~instance ~(thread : Thread.t) ~period ~deadline
    ~release_jitter =
  let st = { rev_tasks = []; used = Hashtbl.create 16 } in
  walk idx st ~instance ~thread;
  Txn.make ~release_jitter
    ~name:(instance ^ "." ^ thread.Thread.name)
    ~period ~deadline
    (List.rev st.rev_tasks)

type derived = {
  txn : Txn.t;
  origin : string;
  sporadic : (string * string) option;
}

let part idx (asm : A.t) =
  List.concat_map
    (fun (i : A.instance) ->
      let instance = i.A.iname in
      let cls = A.class_of idx instance in
      (* Periodic threads each originate a transaction. *)
      let periodic =
        List.filter_map
          (fun (th : Thread.t) ->
            match th.Thread.activation with
            | Thread.Periodic { period; deadline; jitter } ->
                Some
                  {
                    txn =
                      transaction_of_thread idx ~instance ~thread:th ~period
                        ~deadline ~release_jitter:jitter;
                    origin = instance;
                    sporadic = None;
                  }
            | Thread.Realizes _ -> None)
          cls.Comp.threads
      in
      (* Environment-driven provided methods originate sporadic
         transactions at their MIT. *)
      let sporadic =
        List.filter_map
          (fun (p : Method_sig.t) ->
            Option.map
              (fun (th : Thread.t) ->
                let deadline =
                  match th.Thread.activation with
                  | Thread.Realizes { deadline = Some d; _ } -> d
                  | Thread.Realizes { deadline = None; _ } | Thread.Periodic _
                    ->
                      p.Method_sig.mit
                in
                {
                  txn =
                    transaction_of_thread idx ~instance ~thread:th
                      ~period:p.Method_sig.mit ~deadline ~release_jitter:Q.zero;
                  origin = instance;
                  sporadic = Some (instance, p.Method_sig.name);
                })
              (Comp.realizer cls p.Method_sig.name))
          cls.Comp.provided
      in
      periodic @ sporadic)
    asm.A.instances

let live idx d =
  match d.sporadic with
  | None -> true
  | Some (callee, provided) -> not (A.called idx ~callee ~provided)

let system ~resources derived =
  ( System.make ~resources (List.map (fun d -> d.txn) derived),
    List.map (fun d -> (d.txn.Txn.name, d.origin)) derived )

let derive_with_origins asm =
  let idx = A.index asm in
  match A.validate_indexed idx asm with
  | Error errs -> Error errs
  | Ok () ->
      Ok
        (system ~resources:asm.A.resources
           (List.filter (live idx) (part idx asm)))

let derive asm = Result.map fst (derive_with_origins asm)

let derive_exn asm =
  match derive asm with
  | Ok s -> s
  | Error errs -> invalid_arg ("Derive: " ^ String.concat "; " errs)
