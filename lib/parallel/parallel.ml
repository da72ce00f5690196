(** Parallel execution substrate: a domain pool with static slot
    identity, deterministic index-order maps and reentrancy fallback,
    for independent work items.  See {!Pool} and docs/PERFORMANCE.md. *)

module Pool = Pool
