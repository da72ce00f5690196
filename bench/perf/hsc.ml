(* Generated .hsc sources and wire requests for the serve workloads. *)

module J = Service.Json

let platform name ~alpha =
  Printf.sprintf
    "platform %s { alpha = %s; delta = 1; beta = 1; host = \"n\"; }" name alpha

(* One admitted unit: a component with one periodic thread of one task,
   instantiated on [platform]. *)
let unit_spec ~name ~platform ~period ~priority ~wcet =
  Printf.sprintf
    "component %s { implementation: scheduler fixed_priority; thread T \
     periodic(period = %d, deadline = %d) priority %d { task work(wcet = %s, \
     bcet = 0.01); } } instance %sI : %s on %s;"
    name period period priority wcet name name platform

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* A unit sized so that 72 of them over three platforms of rate 0.8 stay
   schedulable under the reduced analysis: per-unit utilisation stays
   below 0.004, so even a platform holding half the units is far from
   saturated and every generated admission commits. *)
let random_unit rng ~name ~platforms =
  let platform = pick rng platforms in
  let period = pick rng [ 50; 60; 80; 100; 120; 150; 200 ] in
  let priority = 1 + Random.State.int rng 40 in
  let wcet = Printf.sprintf "0.%02d" (5 + Random.State.int rng 16) in
  unit_spec ~name ~platform ~period ~priority ~wcet

(* The [k]-th what_if candidate: top priority on the shared platform, so
   it interferes with every task there; (wcet, period) is injective in
   [k], so no two candidates share a snapshot hash and every probe
   misses the result cache. *)
let candidate k ~platform =
  unit_spec ~name:"Cand" ~platform ~period:(50 + (k / 1000)) ~priority:1000
    ~wcet:(Printf.sprintf "0.%04d" (500 + (k mod 1000)))

let request ?tenant op fields =
  let tenant =
    match tenant with None -> [] | Some t -> [ ("tenant", J.String t) ]
  in
  J.to_string (J.Obj ((("op", J.String op) :: fields) @ tenant))

let admit ?tenant ~uid spec =
  request ?tenant "admit" [ ("id", J.String uid); ("spec", J.String spec) ]

let revoke ?tenant uid = request ?tenant "revoke" [ ("id", J.String uid) ]
let query ?tenant () = request ?tenant "query" []

let what_if ?tenant spec =
  request ?tenant "what_if"
    [ ("id", J.String "probe"); ("spec", J.String spec) ]

let stats = request "stats" []
