let fixpoint = Fixpoint.Exact.fixpoint
