(* Append-only write-ahead log of committed store mutations.

   One JSON object per line.  The first line is a version header; every
   other line is a committed mutation ([admit]/[revoke], with the
   tenant, the unit payload and the resulting store hash) or a
   [snapshot] record written by compaction (the tenant's full admitted
   unit list plus its hash, replacing the mutation history it
   summarizes).  Replay applies the records through the ordinary
   {!Store} transitions and hard-errors when any reached hash differs
   from the recorded one — divergence means the log and the code
   disagree about the store, and serving from either would be a lie.

   Records are flushed per append, so a process killed at any commit
   boundary replays to exactly the committed prefix, and one killed
   mid-append leaves a torn final line that the next open cuts off.  The
   channel is mutex-guarded: shards append concurrently, and replay only
   needs per-tenant order, which each shard's in-order commits already
   guarantee. *)

type record =
  | Admit of { tenant : string; uid : string; spec : string; hash : string }
  | Revoke of { tenant : string; uid : string; hash : string }
  | Snapshot of {
      tenant : string;
      units : (string * string) list;  (* (uid, spec), admission order *)
      hash : string;
    }

type t = {
  path : string;
  mutable oc : out_channel;
  mu : Mutex.t;
  mutable mutations : int;
      (* admit/revoke records on disk — the replay cost compaction
         bounds *)
}

let version = 1

let header_line =
  Json.to_string (Json.Obj [ ("rec", Json.String "wal"); ("version", Json.Int version) ])

let record_to_json = function
  | Admit { tenant; uid; spec; hash } ->
      Json.Obj
        [
          ("rec", Json.String "admit");
          ("tenant", Json.String tenant);
          ("id", Json.String uid);
          ("spec", Json.String spec);
          ("hash", Json.String hash);
        ]
  | Revoke { tenant; uid; hash } ->
      Json.Obj
        [
          ("rec", Json.String "revoke");
          ("tenant", Json.String tenant);
          ("id", Json.String uid);
          ("hash", Json.String hash);
        ]
  | Snapshot { tenant; units; hash } ->
      Json.Obj
        [
          ("rec", Json.String "snapshot");
          ("tenant", Json.String tenant);
          ( "units",
            Json.List
              (List.map
                 (fun (uid, spec) ->
                   Json.Obj
                     [ ("id", Json.String uid); ("spec", Json.String spec) ])
                 units) );
          ("hash", Json.String hash);
        ]

let record_of_json j =
  let str name =
    match Json.string_field name j with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing string field %S" name)
  in
  let ( let* ) = Result.bind in
  match Json.string_field "rec" j with
  | Some "wal" -> (
      match Json.int_field "version" j with
      | Some v when v = version -> Ok None
      | Some v -> Error (Printf.sprintf "unsupported wal version %d" v)
      | None -> Error "wal header without version")
  | Some "admit" ->
      let* tenant = str "tenant" in
      let* uid = str "id" in
      let* spec = str "spec" in
      let* hash = str "hash" in
      Ok (Some (Admit { tenant; uid; spec; hash }))
  | Some "revoke" ->
      let* tenant = str "tenant" in
      let* uid = str "id" in
      let* hash = str "hash" in
      Ok (Some (Revoke { tenant; uid; hash }))
  | Some "snapshot" ->
      let* tenant = str "tenant" in
      let* hash = str "hash" in
      let* units =
        match Json.member "units" j with
        | Some (Json.List us) ->
            List.fold_left
              (fun acc u ->
                let* acc = acc in
                match
                  (Json.string_field "id" u, Json.string_field "spec" u)
                with
                | Some uid, Some spec -> Ok ((uid, spec) :: acc)
                | _ -> Error "snapshot unit without id/spec")
              (Ok []) us
            |> Result.map List.rev
        | _ -> Error "snapshot without units array"
      in
      Ok (Some (Snapshot { tenant; units; hash }))
  | Some r -> Error (Printf.sprintf "unknown wal record %S" r)
  | None -> Error "wal line without rec field"

let is_mutation = function Admit _ | Revoke _ -> true | Snapshot _ -> false

(* Parse the log.  A final line without its newline is an append the
   process did not finish: the record was never acknowledged (responses
   are written after the flush), so it is dropped, and its length is
   reported so [open_] can cut it off before appending.  Every other
   malformed line is a hard error. *)
let load path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let complete =
    match String.rindex_opt data '\n' with None -> 0 | Some i -> i + 1
  in
  let records = ref [] and errors = ref [] in
  List.iteri
    (fun i line ->
      let error e =
        errors := Printf.sprintf "%s:%d: %s" path (i + 1) e :: !errors
      in
      if String.trim line <> "" then
        match Json.parse line with
        | Error e -> error e
        | Ok j -> (
            match record_of_json j with
            | Error e -> error e
            | Ok None -> ()
            | Ok (Some r) -> records := r :: !records))
    (String.split_on_char '\n' (String.sub data 0 complete));
  if !errors <> [] then Error (List.rev !errors)
  else Ok (List.rev !records, complete, String.length data - complete)

let open_ ~path =
  let existing =
    if Sys.file_exists path then load path else Ok ([], 0, 0)
  in
  match existing with
  | Error es -> Error es
  | Ok (records, complete, torn) ->
      if torn > 0 then Unix.truncate path complete;
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
      in
      if complete = 0 then (
        output_string oc header_line;
        output_char oc '\n';
        flush oc);
      let mutations =
        List.length (List.filter is_mutation records)
      in
      Ok ({ path; oc; mu = Mutex.create (); mutations }, records)

let path t = t.path

let append t r =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      output_string t.oc (Json.to_string (record_to_json r));
      output_char t.oc '\n';
      flush t.oc;
      if is_mutation r then t.mutations <- t.mutations + 1)

let mutations t =
  Mutex.lock t.mu;
  let m = t.mutations in
  Mutex.unlock t.mu;
  m

exception Injected_crash

(* Rewrite the log as one snapshot record per non-empty tenant (sorted,
   so compaction output is deterministic), via a temp file and an
   atomic rename: a crash mid-compaction leaves the old log intact.
   Returns the number of snapshot records written.

   [fault] injects a crash at the most dangerous point — after the
   snapshot temp file is durable but before the rename — so tests can
   pin the crash-safety claim instead of trusting the comment above. *)
let compact ?fault t ~tenants =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      let tenants =
        List.filter (fun (_, s) -> s.Store.units <> []) tenants
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let tmp = t.path ^ ".tmp" in
      let oc = open_out tmp in
      output_string oc header_line;
      output_char oc '\n';
      List.iter
        (fun (tenant, (s : Store.t)) ->
          let units =
            List.map (fun u -> (u.Store.uid, u.Store.spec)) s.Store.units
          in
          output_string oc
            (Json.to_string
               (record_to_json (Snapshot { tenant; units; hash = s.Store.hash })));
          output_char oc '\n')
        tenants;
      flush oc;
      close_out oc;
      (match fault with
      | Some `Crash_before_rename -> raise Injected_crash
      | None -> ());
      close_out_noerr t.oc;
      Sys.rename tmp t.path;
      t.oc <- open_out_gen [ Open_append; Open_wronly ] 0o644 t.path;
      t.mutations <- 0;
      List.length tenants)

let close t =
  Mutex.lock t.mu;
  close_out_noerr t.oc;
  Mutex.unlock t.mu

(* Apply the records through the ordinary store transitions.  Hard
   error on any divergence from a recorded hash.  Returns the replayed
   tenants in first-appearance order. *)
let replay ~boot records =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  let get tenant =
    match Hashtbl.find_opt tbl tenant with Some s -> s | None -> boot
  in
  let set tenant store =
    if not (Hashtbl.mem tbl tenant) then order := tenant :: !order;
    Hashtbl.replace tbl tenant store
  in
  let fail fmt = Printf.ksprintf (fun m -> Error [ m ]) fmt in
  let check ~tenant ~what recorded (store : Store.t) =
    if store.Store.hash <> recorded then
      fail
        "wal replay diverged: %s for tenant %S reached hash %s, log records \
         %s"
        what tenant store.Store.hash recorded
    else (
      set tenant store;
      Ok ())
  in
  let apply = function
    | Admit { tenant; uid; spec; hash } -> (
        match Store.admit (get tenant) ~uid ~spec with
        | Error es ->
            fail "wal replay: admit %S for tenant %S failed: %s" uid tenant
              (String.concat "; " es)
        | Ok c -> check ~tenant ~what:(Printf.sprintf "admit %S" uid) hash c)
    | Revoke { tenant; uid; hash } -> (
        match Store.revoke (get tenant) ~uid with
        | Error es ->
            fail "wal replay: revoke %S for tenant %S failed: %s" uid tenant
              (String.concat "; " es)
        | Ok c -> check ~tenant ~what:(Printf.sprintf "revoke %S" uid) hash c)
    | Snapshot { tenant; units; hash } -> (
        let store =
          List.fold_left
            (fun acc (uid, spec) ->
              Result.bind acc (fun s ->
                  Result.map_error
                    (fun es ->
                      [
                        Printf.sprintf
                          "wal replay: snapshot admit %S for tenant %S \
                           failed: %s"
                          uid tenant (String.concat "; " es);
                      ])
                    (Store.admit s ~uid ~spec)))
            (Ok boot) units
        in
        match store with
        | Error es -> Error es
        | Ok s -> check ~tenant ~what:"snapshot" hash s)
  in
  let rec go = function
    | [] -> Ok (List.rev_map (fun id -> (id, Hashtbl.find tbl id)) !order)
    | r :: rest -> ( match apply r with Error es -> Error es | Ok () -> go rest)
  in
  go records
