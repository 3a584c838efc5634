(** Instructions for the RISC-like target (paper Section 3.1). *)

type ibin = Add | Sub | Mul | Div | Rem | Shl | Shr | And | Or | Xor

type fbin = Fadd | Fsub | Fmul | Fdiv

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type op =
  | IBin of ibin  (** integer arithmetic: [dst = src0 op src1] *)
  | FBin of fbin  (** floating-point arithmetic *)
  | IMov  (** [dst = src0] (integer) *)
  | FMov  (** [dst = src0] (floating point) *)
  | ItoF  (** conversion *)
  | FtoI  (** conversion *)
  | Load of Reg.cls  (** [dst = MEM(src0 + src1 + src2)], src2 an immediate *)
  | Store of Reg.cls  (** [MEM(src0 + src1 + src2) = src3], src2 an immediate *)
  | Br of Reg.cls * cmp  (** [if src0 cmp src1 goto target] *)
  | Jmp  (** unconditional jump to [target] *)

type t = {
  id : int;  (** unique within a program; used as dependence-graph key *)
  op : op;
  dst : Reg.t option;
  srcs : Operand.t array;
  target : string option;  (** branch target label *)
}

val make :
  id:int -> op:op -> ?dst:Reg.t -> ?srcs:Operand.t array -> ?target:string -> unit -> t

val defs : t -> Reg.t list

val uses : t -> Reg.t list

val is_branch : t -> bool

val is_cond_branch : t -> bool

val is_load : t -> bool

val is_store : t -> bool

val is_mem : t -> bool

val mem_addr : t -> (Operand.t * Operand.t * int) option
(** [(base, offset, displacement)] address components of a load or store. *)

val is_speculatable : t -> bool
(** True for instructions that only write a register (including
    non-excepting loads), which superblock scheduling may move above
    branches. *)

val result_cls : t -> Reg.cls option

val eval_ibin : ibin -> int -> int -> int option
(** Compile-time evaluation; [None] for a zero divisor ([Div], [Rem])
    and out-of-range shifts. *)

val eval_fbin : fbin -> float -> float -> float

val negate_cmp : cmp -> cmp
(** The comparison that is true exactly where [c] is false, on non-NaN
    operands: [Lt] and [Ge], [Le] and [Gt], [Eq] and [Ne]. *)

val eval_icmp : cmp -> int -> int -> bool

val eval_fcmp : cmp -> float -> float -> bool

val to_string : t -> string
