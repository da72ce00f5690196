(** Lookup statistics of an interference memo.

    The analysis keeps no memo: both instances of the fixed-point core
    evaluate every compiled demand curve directly (docs/PERFORMANCE.md
    says why).  The record remains the type {!Engine.memo_stats}
    returns, which is always [None]. *)

type stats = { hits : int; misses : int; invalidations : int }
