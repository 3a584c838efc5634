(* Lowering from mini-Fortran to the RISC IR. Generated code is naive
   (explicit subscript arithmetic per access); the classical optimizer
   (constant/copy propagation, CSE, LICM, induction-variable strength
   reduction) is responsible for producing baseline code of the quality
   shown in the paper's figures. *)

open Impact_ir

exception Lower_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Lower_error s)) fmt

type lenv = {
  ctx : Prog.ctx;
  tenv : Typecheck.tenv;
  regs : (string, Reg.t) Hashtbl.t;
}

type buf = Block.item list ref

let emit_i (buf : buf) i = buf := Block.Ins i :: !buf

let emit_l (buf : buf) l = buf := Block.Lbl l :: !buf

let emit_loop (buf : buf) l = buf := Block.Loop l :: !buf

let items_of (buf : buf) = List.rev !buf

let cls_of_ty = function Ast.TInt -> Reg.Int | Ast.TReal -> Reg.Float

let home env name =
  match Hashtbl.find_opt env.regs name with
  | Some r -> r
  | None -> err "no home register for %s" name

let ty_of env e = Typecheck.expr_type env.tenv e

(* Convert an integer-typed operand to floating point, folding constants. *)
let to_float env buf (o : Operand.t) : Operand.t =
  match o with
  | Operand.Int n -> Operand.Flt (float_of_int n)
  | Operand.Flt _ -> o
  | Operand.Reg r when r.Reg.cls = Reg.Float -> o
  | Operand.Reg _ | Operand.Lab _ ->
    let d = Reg.fresh env.ctx.Prog.rgen Reg.Float in
    emit_i buf (Build.itof env.ctx d o);
    Operand.reg d

let ibin_of = function
  | Ast.BAdd -> Insn.Add
  | Ast.BSub -> Insn.Sub
  | Ast.BMul -> Insn.Mul
  | Ast.BDiv -> Insn.Div
  | Ast.BRem -> Insn.Rem

let fbin_of = function
  | Ast.BAdd -> Insn.Fadd
  | Ast.BSub -> Insn.Fsub
  | Ast.BMul -> Insn.Fmul
  | Ast.BDiv -> Insn.Fdiv
  | Ast.BRem -> assert false

let cmp_of = function
  | Ast.CLt -> Insn.Lt
  | Ast.CLe -> Insn.Le
  | Ast.CGt -> Insn.Gt
  | Ast.CGe -> Insn.Ge
  | Ast.CEq -> Insn.Eq
  | Ast.CNe -> Insn.Ne

(* Element strides (in elements) for a column-major array. *)
let strides dims =
  let rec go acc = function
    | [] -> []
    | d :: rest -> acc :: go (acc * d) rest
  in
  go 1 dims

let rec lower_expr env buf (e : Ast.expr) : Operand.t =
  match e with
  | Ast.EInt n -> Operand.Int n
  | Ast.EReal x -> Operand.Flt x
  | Ast.EVar n -> Operand.reg (home env n)
  | Ast.EIdx (name, idxs) ->
    let base, off = lower_address env buf name idxs in
    let ty, _ = Hashtbl.find env.tenv.Typecheck.arrays name in
    let cls = cls_of_ty ty in
    let d = Reg.fresh env.ctx.Prog.rgen cls in
    emit_i buf (Build.load env.ctx cls d base off);
    Operand.reg d
  | Ast.ENeg a -> (
    match ty_of env a with
    | Ast.TInt -> lower_ibin env buf Insn.Sub (Ast.EInt 0) a
    | Ast.TReal -> lower_fbin env buf Insn.Fsub (Ast.EReal 0.0) a)
  | Ast.ECvt (Ast.TReal, a) -> (
    match ty_of env a with
    | Ast.TReal -> lower_expr env buf a
    | Ast.TInt -> to_float env buf (lower_expr env buf a))
  | Ast.ECvt (Ast.TInt, a) -> (
    match ty_of env a with
    | Ast.TInt -> lower_expr env buf a
    | Ast.TReal -> (
      let o = lower_expr env buf a in
      match o with
      | Operand.Flt x -> Operand.Int (int_of_float (Float.trunc x))
      | Operand.Reg _ | Operand.Int _ | Operand.Lab _ ->
        let d = Reg.fresh env.ctx.Prog.rgen Reg.Int in
        emit_i buf (Build.ftoi env.ctx d o);
        Operand.reg d))
  | Ast.EBin (op, a, b) -> (
    let ta = ty_of env a and tb = ty_of env b in
    match ta, tb with
    | Ast.TInt, Ast.TInt -> lower_ibin env buf (ibin_of op) a b
    | _, _ ->
      if op = Ast.BRem then err "MOD on reals";
      lower_fbin env buf (fbin_of op) a b)

and lower_ibin env buf iop a b : Operand.t =
  let oa = lower_expr env buf a in
  let ob = lower_expr env buf b in
  let fold =
    match oa, ob with
    | Operand.Int x, Operand.Int y -> Insn.eval_ibin iop x y
    | _ -> None
  in
  match fold with
  | Some z -> Operand.Int z
  | None ->
    let d = Reg.fresh env.ctx.Prog.rgen Reg.Int in
    emit_i buf (Build.ib env.ctx iop d oa ob);
    Operand.reg d

and lower_fbin env buf fop a b : Operand.t =
  let oa = to_float env buf (lower_expr env buf a) in
  let ob = to_float env buf (lower_expr env buf b) in
  match oa, ob with
  | Operand.Flt x, Operand.Flt y -> Operand.Flt (Insn.eval_fbin fop x y)
  | _ ->
    let d = Reg.fresh env.ctx.Prog.rgen Reg.Float in
    emit_i buf (Build.fb env.ctx fop d oa ob);
    Operand.reg d

(* Byte-offset address of an array element: base label plus
   4 * sum_k (idx_k - 1) * stride_k. *)
and lower_address env buf name idxs : Operand.t * Operand.t =
  let _, dims = Hashtbl.find env.tenv.Typecheck.arrays name in
  let sts = strides dims in
  let terms =
    List.map2
      (fun ix st -> Ast.EBin (Ast.BMul, Ast.EBin (Ast.BSub, ix, Ast.EInt 1), Ast.EInt st))
      idxs sts
  in
  let lin =
    match terms with
    | [] -> assert false
    | t0 :: rest -> List.fold_left (fun acc t -> Ast.EBin (Ast.BAdd, acc, t)) t0 rest
  in
  let byte_off = Ast.EBin (Ast.BMul, lin, Ast.EInt 4) in
  let off = lower_expr env buf byte_off in
  (Operand.lab name, off)

(* Lower an expression directly into a destination register when the shape
   allows (giving canonical accumulator forms like [s = s + t]); otherwise
   lower and move. *)
let lower_expr_into env buf (dst : Reg.t) (e : Ast.expr) =
  let dty = match dst.Reg.cls with Reg.Int -> Ast.TInt | Reg.Float -> Ast.TReal in
  match e, dty with
  | Ast.EBin (op, a, b), Ast.TInt
    when ty_of env a = Ast.TInt && ty_of env b = Ast.TInt ->
    let oa = lower_expr env buf a in
    let ob = lower_expr env buf b in
    emit_i buf (Build.ib env.ctx (ibin_of op) dst oa ob)
  | Ast.EBin (op, a, b), Ast.TReal when op <> Ast.BRem ->
    let oa = to_float env buf (lower_expr env buf a) in
    let ob = to_float env buf (lower_expr env buf b) in
    emit_i buf (Build.fb env.ctx (fbin_of op) dst oa ob)
  | _, _ -> (
    let o = lower_expr env buf e in
    let o = if dty = Ast.TReal then to_float env buf o else o in
    match dst.Reg.cls with
    | Reg.Int -> emit_i buf (Build.imov env.ctx dst o)
    | Reg.Float -> emit_i buf (Build.fmov env.ctx dst o))

let lower_cond env buf (c : Ast.cond) ~negate ~target =
  let ta = ty_of env c.Ast.lhs and tb = ty_of env c.Ast.rhs in
  let cmp = cmp_of c.Ast.rel in
  let cmp = if negate then Insn.negate_cmp cmp else cmp in
  if ta = Ast.TInt && tb = Ast.TInt then begin
    let oa = lower_expr env buf c.Ast.lhs in
    let ob = lower_expr env buf c.Ast.rhs in
    emit_i buf (Build.br env.ctx Reg.Int cmp oa ob target)
  end
  else begin
    let oa = to_float env buf (lower_expr env buf c.Ast.lhs) in
    let ob = to_float env buf (lower_expr env buf c.Ast.rhs) in
    emit_i buf (Build.br env.ctx Reg.Float cmp oa ob target)
  end

let const_int_of_expr = function
  | Ast.EInt n -> Some n
  | Ast.ENeg (Ast.EInt n) -> Some (-n)
  | _ -> None

let rec lower_stmt env buf ~latch (s : Ast.stmt) =
  match s with
  | Ast.SAssign (Ast.LVar n, e) -> lower_expr_into env buf (home env n) e
  | Ast.SAssign (Ast.LIdx (name, idxs), e) ->
    let ty, _ = Hashtbl.find env.tenv.Typecheck.arrays name in
    let cls = cls_of_ty ty in
    let v = lower_expr env buf e in
    let v = if ty = Ast.TReal then to_float env buf v else v in
    let base, off = lower_address env buf name idxs in
    emit_i buf (Build.store env.ctx cls base off v)
  | Ast.SIf (c, then_, []) ->
    let lend = Prog.fresh_label env.ctx "F" in
    lower_cond env buf c ~negate:true ~target:lend;
    List.iter (lower_stmt env buf ~latch) then_;
    emit_l buf lend
  | Ast.SIf (c, then_, else_) ->
    let lelse = Prog.fresh_label env.ctx "F" in
    let lend = Prog.fresh_label env.ctx "F" in
    lower_cond env buf c ~negate:true ~target:lelse;
    List.iter (lower_stmt env buf ~latch) then_;
    emit_i buf (Build.jmp env.ctx lend);
    emit_l buf lelse;
    List.iter (lower_stmt env buf ~latch) else_;
    emit_l buf lend
  | Ast.SCycle -> (
    match latch with
    | Some l -> emit_i buf (Build.jmp env.ctx l)
    | None -> err "CYCLE outside of a loop")
  | Ast.SDo d -> lower_do env buf d

and lower_do env buf (d : Ast.doloop) =
  let step =
    match const_int_of_expr d.Ast.step with
    | Some s when s <> 0 -> s
    | Some _ -> err "DO step must be non-zero"
    | None -> err "DO step must be a compile-time constant"
  in
  let vreg = home env d.Ast.v in
  (* Counter initialization and (entry-evaluated) limit, in the parent
     block = the loop preheader region. *)
  let lo_op = lower_expr env buf d.Ast.lo in
  emit_i buf (Build.imov env.ctx vreg lo_op);
  let hi_op = lower_expr env buf d.Ast.hi in
  let limit =
    match hi_op with
    | Operand.Int _ -> hi_op
    | Operand.Reg _ ->
      (* Copy into a dedicated register so the bound cannot be clobbered by
         body code that reuses the source scalar. *)
      let lr = Reg.fresh env.ctx.Prog.rgen Reg.Int in
      emit_i buf (Build.imov env.ctx lr hi_op);
      Operand.reg lr
    | Operand.Flt _ | Operand.Lab _ -> err "bad DO bound"
  in
  let lid = Prog.fresh_loop_id env.ctx in
  let head = Printf.sprintf "L%d" lid in
  let exit_lbl = Printf.sprintf "X%d" lid in
  let latch_lbl = Printf.sprintf "T%d" lid in
  let trip =
    match const_int_of_expr d.Ast.lo, const_int_of_expr d.Ast.hi with
    | Some lo, Some hi ->
      let t = ((hi - lo) / step) + 1 in
      Some (max 0 t)
    | _ -> None
  in
  (* Zero-trip guard, unless the trip count is statically positive. *)
  (match trip with
  | Some t when t >= 1 -> ()
  | _ ->
    let cmp = if step > 0 then Insn.Gt else Insn.Lt in
    emit_i buf (Build.br env.ctx Reg.Int cmp (Operand.reg vreg) limit exit_lbl));
  if trip = Some 0 then ()
  else begin
    let bbuf : buf = ref [] in
    List.iter (lower_stmt env bbuf ~latch:(Some latch_lbl)) d.Ast.body;
    emit_l bbuf latch_lbl;
    emit_i bbuf (Build.ib env.ctx Insn.Add vreg (Operand.reg vreg) (Operand.Int step));
    let cmp = if step > 0 then Insn.Le else Insn.Ge in
    emit_i bbuf (Build.br env.ctx Reg.Int cmp (Operand.reg vreg) limit head);
    let meta =
      {
        Block.counter = Some vreg;
        step = Some step;
        limit = Some limit;
        trip;
        latch = Some latch_lbl;
        unrolled = 1;
      }
    in
    emit_loop buf { Block.lid; head; exit_lbl; meta; body = items_of bbuf }
  end

let lower_decls env buf (decls : Ast.decl list) =
  List.iter
    (fun d ->
      match d with
      | Ast.DScalar (n, ty, init) -> (
        let cls = cls_of_ty ty in
        let reg = Reg.fresh env.ctx.Prog.rgen cls in
        Hashtbl.replace env.regs n reg;
        match ty with
        | Ast.TInt ->
          emit_i buf (Build.imov env.ctx reg (Operand.Int (int_of_float init)))
        | Ast.TReal -> emit_i buf (Build.fmov env.ctx reg (Operand.Flt init)))
      | Ast.DArray _ -> ())
    decls

let adecl_of = function
  | Ast.DScalar _ -> None
  | Ast.DArray (name, ty, dims, f) ->
    let size = List.fold_left ( * ) 1 dims in
    let init =
      match ty with
      | Ast.TInt -> Prog.IInit (Array.init size (fun k -> int_of_float (f k)))
      | Ast.TReal -> Prog.FInit (Array.init size f)
    in
    Some { Prog.aname = name; acls = cls_of_ty ty; asize = size; ainit = init }

let lower (p : Ast.program) : Prog.t =
  let tenv = Typecheck.check p in
  let ctx = Prog.make_ctx () in
  let env = { ctx; tenv; regs = Hashtbl.create 16 } in
  let buf : buf = ref [] in
  lower_decls env buf p.Ast.decls;
  List.iter (lower_stmt env buf ~latch:None) p.Ast.stmts;
  let arrays = List.filter_map adecl_of p.Ast.decls in
  let outputs = List.map (fun n -> (n, home env n)) p.Ast.outs in
  { Prog.arrays; entry = items_of buf; ctx; outputs }
