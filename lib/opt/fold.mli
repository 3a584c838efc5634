(** Constant folding, algebraic simplification and constant-condition
    branch resolution ("operation folding"). *)

val simplify_insn :
  Impact_ir.Prog.ctx -> Impact_ir.Insn.t -> Impact_ir.Insn.t list
