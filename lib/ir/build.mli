(** Instruction constructors; all passes and the frontend build code
    through these so instruction ids stay unique per program. *)

val ib :
  Prog.ctx -> Insn.ibin -> Reg.t -> Operand.t -> Operand.t -> Insn.t

val fb :
  Prog.ctx -> Insn.fbin -> Reg.t -> Operand.t -> Operand.t -> Insn.t

val imov : Prog.ctx -> Reg.t -> Operand.t -> Insn.t

val fmov : Prog.ctx -> Reg.t -> Operand.t -> Insn.t

val mov : Prog.ctx -> Reg.t -> Operand.t -> Insn.t
(** [imov] or [fmov], by the destination's register class. *)

val itof : Prog.ctx -> Reg.t -> Operand.t -> Insn.t

val ftoi : Prog.ctx -> Reg.t -> Operand.t -> Insn.t

val load :
  Prog.ctx -> Reg.cls -> Reg.t -> ?disp:int -> Operand.t -> Operand.t -> Insn.t
(** [load ctx cls dst base off]: [dst = MEM(base + off + disp)]. *)

val store :
  Prog.ctx -> Reg.cls -> ?disp:int -> Operand.t -> Operand.t -> Operand.t -> Insn.t
(** [store ctx cls base off v]: [MEM(base + off + disp) = v]. *)

val br :
  Prog.ctx -> Reg.cls -> Insn.cmp -> Operand.t -> Operand.t -> string -> Insn.t

val jmp : Prog.ctx -> string -> Insn.t

val clone :
  Prog.ctx -> ?dst:Reg.t -> ?srcs:Operand.t array -> ?target:string -> Insn.t -> Insn.t
(** Copy an instruction under a fresh id, optionally replacing fields;
    the source array is copied. *)

val countdown_loop :
  Prog.ctx -> suffix:string -> Operand.t -> (unit -> Block.t) -> Block.t
(** [countdown_loop ctx ~suffix count body]: [cnt = count], then a loop
    headed [L<lid><suffix>] (exit [X<lid><suffix>]) of [body ()], then
    [cnt = cnt - 1; br cnt > 0 head]; its meta counts [cnt] down by 1
    to 0. Unless [count] is a positive constant, a zero-trip guard
    [br cnt <= 0 exit] comes first; [body] is called after it is built. *)
