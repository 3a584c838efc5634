(* Convenience constructors for instructions; every pass and the frontend
   build code through these so that instruction ids stay unique. *)

let ib ctx op dst a b =
  Insn.make ~id:(Prog.fresh_insn_id ctx) ~op:(Insn.IBin op) ~dst ~srcs:[| a; b |] ()

let fb ctx op dst a b =
  Insn.make ~id:(Prog.fresh_insn_id ctx) ~op:(Insn.FBin op) ~dst ~srcs:[| a; b |] ()

let imov ctx dst a =
  Insn.make ~id:(Prog.fresh_insn_id ctx) ~op:Insn.IMov ~dst ~srcs:[| a |] ()

let fmov ctx dst a =
  Insn.make ~id:(Prog.fresh_insn_id ctx) ~op:Insn.FMov ~dst ~srcs:[| a |] ()

let mov ctx (dst : Reg.t) a =
  match dst.Reg.cls with Reg.Int -> imov ctx dst a | Reg.Float -> fmov ctx dst a

let itof ctx dst a =
  Insn.make ~id:(Prog.fresh_insn_id ctx) ~op:Insn.ItoF ~dst ~srcs:[| a |] ()

let ftoi ctx dst a =
  Insn.make ~id:(Prog.fresh_insn_id ctx) ~op:Insn.FtoI ~dst ~srcs:[| a |] ()

let load ctx cls dst ?(disp = 0) base off =
  Insn.make ~id:(Prog.fresh_insn_id ctx) ~op:(Insn.Load cls) ~dst
    ~srcs:[| base; off; Operand.Int disp |] ()

let store ctx cls ?(disp = 0) base off v =
  Insn.make ~id:(Prog.fresh_insn_id ctx) ~op:(Insn.Store cls)
    ~srcs:[| base; off; Operand.Int disp; v |] ()

let br ctx cls cmp a b target =
  Insn.make ~id:(Prog.fresh_insn_id ctx) ~op:(Insn.Br (cls, cmp)) ~srcs:[| a; b |] ~target ()

let jmp ctx target =
  Insn.make ~id:(Prog.fresh_insn_id ctx) ~op:Insn.Jmp ~target ()

(* Clone an instruction under a fresh id, optionally replacing fields. *)
let clone ctx ?dst ?srcs ?target (i : Insn.t) =
  let dst = match dst with Some d -> Some d | None -> i.Insn.dst in
  let srcs = match srcs with Some s -> s | None -> Array.copy i.Insn.srcs in
  let target = match target with Some t -> Some t | None -> i.Insn.target in
  { i with Insn.id = Prog.fresh_insn_id ctx; dst; srcs; target }

(* cnt = count; [guard]; head: body; cnt = cnt - 1; br cnt > 0 head.
   Registers, ids, the loop id and labels are taken in that order. *)
let countdown_loop ctx ~suffix count body =
  let cnt = Reg.fresh ctx.Prog.rgen Reg.Int in
  let init = imov ctx cnt count in
  let lid = Prog.fresh_loop_id ctx in
  let head = Printf.sprintf "L%d%s" lid suffix in
  let exit_lbl = Printf.sprintf "X%d%s" lid suffix in
  let guard =
    match count with
    | Operand.Int n when n > 0 -> []
    | _ -> [ Block.Ins (br ctx Reg.Int Insn.Le (Operand.Reg cnt) (Operand.Int 0) exit_lbl) ]
  in
  let body = body () in
  let dec = ib ctx Insn.Sub cnt (Operand.Reg cnt) (Operand.Int 1) in
  let back = br ctx Reg.Int Insn.Gt (Operand.Reg cnt) (Operand.Int 0) head in
  let meta =
    {
      Block.counter = Some cnt;
      step = Some (-1);
      limit = Some (Operand.Int 0);
      trip = (match count with Operand.Int n -> Some n | _ -> None);
      latch = None;
      unrolled = 1;
    }
  in
  let body = body @ [ Block.Ins dec; Block.Ins back ] in
  (Block.Ins init :: guard) @ [ Block.Loop { Block.lid; head; exit_lbl; meta; body } ]
