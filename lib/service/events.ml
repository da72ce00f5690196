type event =
  | Engine_event of Analysis.Engine.event
  | Request of {
      seq : int;
      op : string;
      status : string;
      latency_ms : float;
      cache_hit : bool;
      session : string option;
      tenant : string option;
    }
  | Batch of { size : int; shed : int }
  | Replay of { records : int; tenants : int }
  | Compaction of { records : int; tenants : int }

let to_json = function
  | Engine_event e -> Analysis.Engine.event_to_json e
  | Request { seq; op; status; latency_ms; cache_hit; session; tenant } ->
      (* The tenant field appears only when the request carried one, so
         default-tenant trace lines keep their historical bytes. *)
      let tenant_field =
        match tenant with
        | None -> ""
        | Some t -> Printf.sprintf {|,"tenant":"%s"|} (Json.escape t)
      in
      Printf.sprintf
        {|{"event":"request","seq":%d,"op":"%s"%s,"status":"%s","latency_ms":%.3f,"cache_hit":%b,"session":%s}|}
        seq (Json.escape op) tenant_field (Json.escape status) latency_ms
        cache_hit
        (match session with
        | None -> "null"
        | Some s -> Printf.sprintf "%S" s)
  | Batch { size; shed } ->
      Printf.sprintf {|{"event":"batch","size":%d,"shed":%d}|} size shed
  | Replay { records; tenants } ->
      Printf.sprintf {|{"event":"replay","records":%d,"tenants":%d}|} records
        tenants
  | Compaction { records; tenants } ->
      Printf.sprintf {|{"event":"compaction","records":%d,"tenants":%d}|}
        records tenants
