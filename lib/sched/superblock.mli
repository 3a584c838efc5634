(** Superblock formation for innermost loop bodies: trace selection
    (rarely-taken guarded updates are inverted off the trace) and tail
    duplication remove internal join points, leaving a straight-line main
    trace with side exits that the scheduler can reorder freely. *)

open Impact_ir

val max_growth : int
(** Tail-duplication size cap, as a multiple of the original body. *)

val run : Prog.t -> Prog.t
(** Form every innermost loop body of the program. *)
