(** Global dead-code elimination: mark-and-sweep (removing self-feeding
    dead cycles such as orphaned induction variables) plus
    liveness-based rounds, all on one {!Impact_analysis.Liveness.Dense}
    frame per call. *)

val run : Impact_ir.Prog.t -> Impact_ir.Prog.t
