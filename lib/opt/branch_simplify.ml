(* Control-flow peepholes:
   - [br c X; jmp L; X:]  becomes  [br !c L; X:]   (inverted branch)
   - labels no branch targets are removed (loop heads and exits are
     referenced structurally and never appear as label items).
   The first rewrite canonicalizes FORTRAN "IF (c) GOTO" loops into single
   side-exit branches, which is what superblock formation expects. *)

open Impact_ir

let invert_branches (p : Prog.t) : Prog.t =
  let ctx = p.Prog.ctx in
  let process (items : Block.t) : Block.t =
    let rec go = function
      | Block.Ins ({ Insn.op = Insn.Br (cls, c); _ } as b)
        :: Block.Ins ({ Insn.op = Insn.Jmp; _ } as j)
        :: Block.Lbl x :: rest
        when b.Insn.target = Some x ->
        let nb =
          Build.br ctx cls (Insn.negate_cmp c) b.Insn.srcs.(0) b.Insn.srcs.(1)
            (Option.get j.Insn.target)
        in
        Block.Ins nb :: Block.Lbl x :: go rest
      | item :: rest -> item :: go rest
      | [] -> []
    in
    go items
  in
  Walk.rewrite_blocks process p

let drop_unreferenced_labels (p : Prog.t) : Prog.t =
  let targets = Hashtbl.create 32 in
  Block.iter_insns
    (fun i -> match i.Insn.target with Some t -> Hashtbl.replace targets t () | None -> ())
    p.Prog.entry;
  (* Latch labels are structural anchors (induction-variable updates are
     inserted there) even when no CYCLE branch targets them. *)
  List.iter
    (fun (l : Block.loop) ->
      match l.Block.meta.Block.latch with
      | Some s -> Hashtbl.replace targets s ()
      | None -> ())
    (Block.loops p.Prog.entry);
  let process (items : Block.t) : Block.t =
    List.filter
      (function
        | Block.Lbl s -> Hashtbl.mem targets s
        | Block.Ins _ | Block.Loop _ -> true)
      items
  in
  Walk.rewrite_blocks process p

let run (p : Prog.t) : Prog.t =
  Impact_obs.Obs.span ~cat:"opt" "opt.branch_simplify" (fun () ->
    drop_unreferenced_labels (invert_branches p))
