(* Traversal helpers shared by the optimizer passes. *)

open Impact_ir

(* Apply [f] to every block in the program: the entry block and every
   loop body, innermost first. [f] sees the raw item list (instructions,
   labels, nested Loop markers). *)
let rewrite_blocks (f : Block.t -> Block.t) (p : Prog.t) : Prog.t =
  let rec go (b : Block.t) : Block.t =
    let b =
      List.map
        (function
          | Block.Loop l -> Block.Loop { l with Block.body = go l.Block.body }
          | (Block.Ins _ | Block.Lbl _) as item -> item)
        b
    in
    f b
  in
  Prog.with_entry p (go p.Prog.entry)
