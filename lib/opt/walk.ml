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

let insns_equal_prog (a : Prog.t) (b : Prog.t) =
  List.equal Insn.equal_content (Block.insns a.Prog.entry) (Block.insns b.Prog.entry)

type outcome = Converged of int | Capped

(* Iterate a pass until a round changes nothing, or [max_rounds] rounds
   have run. *)
let fixpoint ~max_rounds (pass : Prog.t -> Prog.t) (p : Prog.t) : Prog.t * outcome =
  let rec go n p =
    if n > max_rounds then (p, Capped)
    else
      let p' = pass p in
      if insns_equal_prog p p' then (p', Converged n) else go (n + 1) p'
  in
  go 1 p
