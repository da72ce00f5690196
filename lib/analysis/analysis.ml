(** Schedulability analysis on abstract computing platforms (Section 3):
    holistic offset-based response-time analysis, exact and reduced, with
    the dynamic-offset outer iteration, plus the classical baselines the
    model generalises. *)

module Params = Params
module Model = Model
module Report = Report
module Ir = Ir
module Timebase = Timebase
module Timeline = Timeline
module Rta = Rta
module Fixpoint = Fixpoint
module Interference = Interference
module Busy = Busy
module Best_case = Best_case
module Memo = Memo
module Engine = Engine
module Classical = Classical
module Edf = Edf
