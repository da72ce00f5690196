(** Parallel execution substrate: a domain pool with static slot
    identity and a reentrancy fallback, on which the serving fleet runs
    its shards.  See {!Pool} and docs/PERFORMANCE.md. *)

module Pool = Pool
