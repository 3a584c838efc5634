(* Constant folding, algebraic simplification and constant-condition
   branch resolution ("operation folding" in the paper's list of
   conventional transformations). *)

open Impact_ir

let simplify_insn ctx (i : Insn.t) : Insn.t list =
  let keep = [ i ] in
  let mov_int d o = [ Build.imov ctx d o ] in
  let mov_flt d o = [ Build.fmov ctx d o ] in
  match i.Insn.op, i.Insn.dst with
  | Insn.IBin op, Some d -> (
    let a = i.Insn.srcs.(0) and b = i.Insn.srcs.(1) in
    match a, b with
    | Operand.Int x, Operand.Int y -> (
      match Insn.eval_ibin op x y with
      | Some z -> mov_int d (Operand.Int z)
      | None -> keep)
    | _, Operand.Int 0 -> (
      match op with
      | Insn.Add | Insn.Sub | Insn.Shl | Insn.Shr | Insn.Or | Insn.Xor -> mov_int d a
      | Insn.Mul | Insn.And -> mov_int d (Operand.Int 0)
      | Insn.Div | Insn.Rem -> keep)
    | Operand.Int 0, _ -> (
      match op with
      | Insn.Add | Insn.Or | Insn.Xor -> mov_int d b
      | Insn.Mul | Insn.And | Insn.Div | Insn.Rem | Insn.Shl | Insn.Shr ->
        if op = Insn.Mul then mov_int d (Operand.Int 0) else keep
      | Insn.Sub -> keep)
    | _, Operand.Int 1 -> (
      match op with
      | Insn.Mul | Insn.Div -> mov_int d a
      | Insn.Rem -> mov_int d (Operand.Int 0)
      | _ -> keep)
    | Operand.Int 1, _ when op = Insn.Mul -> mov_int d b
    | _ -> keep)
  | Insn.FBin op, Some d -> (
    let a = i.Insn.srcs.(0) and b = i.Insn.srcs.(1) in
    match a, b with
    | Operand.Flt x, Operand.Flt y -> mov_flt d (Operand.Flt (Insn.eval_fbin op x y))
    | _, Operand.Flt 0.0 when op = Insn.Fadd || op = Insn.Fsub -> mov_flt d a
    | Operand.Flt 0.0, _ when op = Insn.Fadd -> mov_flt d b
    | _, Operand.Flt 1.0 when op = Insn.Fmul || op = Insn.Fdiv -> mov_flt d a
    | Operand.Flt 1.0, _ when op = Insn.Fmul -> mov_flt d b
    | _ -> keep)
  | Insn.IMov, Some d -> (
    match i.Insn.srcs.(0) with
    | Operand.Reg r when Reg.equal r d -> []
    | _ -> keep)
  | Insn.FMov, Some d -> (
    match i.Insn.srcs.(0) with
    | Operand.Reg r when Reg.equal r d -> []
    | _ -> keep)
  | Insn.ItoF, Some d -> (
    match i.Insn.srcs.(0) with
    | Operand.Int n -> mov_flt d (Operand.Flt (float_of_int n))
    | _ -> keep)
  | Insn.Br (cls, c), None -> (
    match cls, i.Insn.srcs.(0), i.Insn.srcs.(1) with
    | Reg.Int, Operand.Int x, Operand.Int y ->
      if Insn.eval_icmp c x y then
        [ Build.jmp ctx (Option.get i.Insn.target) ]
      else []
    | Reg.Float, Operand.Flt x, Operand.Flt y ->
      if Insn.eval_fcmp c x y then
        [ Build.jmp ctx (Option.get i.Insn.target) ]
      else []
    | _ -> keep)
  | _ -> keep
