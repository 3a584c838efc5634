(** The conventional-optimization pipeline (the paper's "Conv" level): a
    complete set of classical local, global and loop transformations. *)

val cleanup : Impact_ir.Prog.t -> Impact_ir.Prog.t
(** Propagation, folding and CSE in one sweep, then DCE; used between
    structural passes and after the ILP transformations. *)

val passes : (string * (Impact_ir.Prog.t -> Impact_ir.Prog.t)) list
(** The pipeline's named steps, which {!run} applies in order. *)

val run : Impact_ir.Prog.t -> Impact_ir.Prog.t
