(** Traversal helpers shared by the optimizer passes. *)

open Impact_ir

val rewrite_blocks : (Block.t -> Block.t) -> Prog.t -> Prog.t
(** Apply a block rewriter to the entry block and every loop body,
    innermost first. *)

type outcome =
  | Converged of int  (** rounds run, the unchanged last one included *)
  | Capped  (** [max_rounds] rounds ran and the last one still changed *)

val fixpoint : max_rounds:int -> (Prog.t -> Prog.t) -> Prog.t -> Prog.t * outcome
(** [fixpoint ~max_rounds pass p] applies [pass] until a round leaves the
    instruction stream unchanged, at most [max_rounds] times. *)
