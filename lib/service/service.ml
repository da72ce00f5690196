(** The online admission-control service: a long-lived multi-tenant
    fleet that admits and revokes component fragments over reusable
    analysis engine sessions.  {!Store} holds an admitted system as an
    immutable content-hashed snapshot, {!Tenant} scopes store, result
    cache and delta baseline to one tenant id, {!Wal} is the durable
    replay log of committed mutations, {!Protocol} defines the
    JSON-lines wire format (docs/SERVICE.md is the field-by-field
    reference), {!Shard} serves a tenant partition on one engine
    session, one request at a time, {!Fleet} consistent-hashes tenants
    across shards run on one domain pool and merges their [stats],
    {!Server} runs the JSON-lines IO loops over a fleet, {!Metrics} and
    {!Events} are the observability surface, and {!Json} is the
    dependency-free JSON reader/writer underneath it all. *)

module Json = Json
module Store = Store
module Tenant = Tenant
module Wal = Wal
module Protocol = Protocol
module Metrics = Metrics
module Events = Events
module Shard = Shard
module Fleet = Fleet
module Server = Server
