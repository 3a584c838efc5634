(** Instruction operands. *)

type t =
  | Reg of Reg.t  (** a virtual register *)
  | Int of int  (** integer immediate *)
  | Flt of float  (** floating-point immediate *)
  | Lab of string  (** base address of a named array, e.g. [A] in [MEM(A+r1i)] *)

val reg : Reg.t -> t

val lab : string -> t

val as_reg : t -> Reg.t option

val is_const : t -> bool
(** [is_const o] is true for integer and floating immediates. *)

val equal : t -> t -> bool

val to_string : t -> string
