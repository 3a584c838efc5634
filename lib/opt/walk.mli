(** Traversal helpers shared by the optimizer passes. *)

open Impact_ir

val rewrite_blocks : (Block.t -> Block.t) -> Prog.t -> Prog.t
(** Apply a block rewriter to the entry block and every loop body,
    innermost first. *)

val rewrite_innermost_with_preheader :
  (Block.item list -> Block.loop -> Block.item list) -> Prog.t -> Prog.t
(** Rewrite each innermost loop together with the items preceding it in
    its parent block (the preheader region); the callback returns the
    replacement items for both. *)

type outcome =
  | Converged of int  (** rounds run, the unchanged last one included *)
  | Capped  (** [max_rounds] rounds ran and the last one still changed *)

val fixpoint : max_rounds:int -> (Prog.t -> Prog.t) -> Prog.t -> Prog.t * outcome
(** [fixpoint ~max_rounds pass p] applies [pass] until a round leaves the
    instruction stream unchanged, at most [max_rounds] times. *)
