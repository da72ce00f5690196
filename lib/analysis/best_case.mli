(** Best-case response times (Section 3.2), on exact rationals.

    [Rbest]{_i,j} is a lower bound on the completion of τ{_i,j}, measured
    from the activation of Γ{_i}.  It seeds the offsets (φ{_i,j} =
    Rbest{_i,j−1}) and keeps the jitters J{_i,j} = R{_i,j−1} −
    Rbest{_i,j−1} finite.  Views of {!Fixpoint.Exact.best_simple} and
    {!Fixpoint.Exact.best_refined}, which every analysis runs. *)

val simple : Model.t -> Rational.t array array
(** The paper's bound: the cumulative best-case computation times of the
    chain, where a demand of [cb] cycles on platform (α, Δ, β) can
    complete in as little as [max 0 (cb/α − β)] time — a high burstiness
    shortens the best case, as the paper notes. *)

val refined :
  Model.t -> jit:Rational.t array array -> Rational.t array array
(** Redell-style refinement: additionally counts the higher-priority
    interference that is unavoidable under any phasing, given the current
    jitter upper bounds [jit] — any window of length [r] must contain at
    least [⌈(r − J_k)/T_k⌉ − 1] complete arrivals of an interferer with
    period [T_k] and jitter at most [J_k], each demanding at least its
    best-case cycles.  Never smaller than {!simple}; used by the
    best-case ablation experiment. *)
