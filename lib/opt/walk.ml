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

(* Rewrite the items in front of each innermost loop together with the
   loop itself: [f preceding_items loop] returns replacement items for
   both. Used by passes that move code into or out of preheaders. *)
let rewrite_innermost_with_preheader
    (f : Block.item list -> Block.loop -> Block.item list) (p : Prog.t) : Prog.t =
  let rec go_block (b : Block.t) : Block.t =
    (* Walk items, keeping a reversed prefix of already-processed items. *)
    let rec go acc = function
      | [] -> List.rev acc
      | Block.Loop l :: rest when Block.is_innermost l ->
        let new_items = f (List.rev acc) l in
        go (List.rev new_items) rest
      | Block.Loop l :: rest ->
        let l = { l with Block.body = go_block l.Block.body } in
        go (Block.Loop l :: acc) rest
      | ((Block.Ins _ | Block.Lbl _) as item) :: rest -> go (item :: acc) rest
    in
    go [] b
  in
  Prog.with_entry p (go_block p.Prog.entry)

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
