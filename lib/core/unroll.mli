(** Loop unrolling with a preconditioning loop (paper Section 2): N-1
    body copies appended, intermediate control transfers removed, the
    first [trip mod N] iterations run by a preconditioning loop so the
    main loop's exit test fires once per N iterations. Compile-time trip
    counts fold the bookkeeping away; runtime counts are computed in the
    preheader. *)

val run : ?factor:int -> Impact_ir.Prog.t -> Impact_ir.Prog.t
