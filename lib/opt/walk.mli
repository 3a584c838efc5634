(** Traversal helpers shared by the optimizer passes. *)

open Impact_ir

val rewrite_blocks : (Block.t -> Block.t) -> Prog.t -> Prog.t
(** Apply a block rewriter to the entry block and every loop body,
    innermost first. *)
