(** The cleanup's forward sweep: copy and constant propagation,
    folding ({!Fold.simplify_insn}), local common-subexpression
    elimination, redundant-load elimination and store-to-load
    forwarding, interleaved per instruction on one walk of each block.
    Memory knowledge is syntactic; a store invalidates loads unless the
    base labels prove disjointness. *)

open Impact_ir

val run : Prog.t -> Prog.t

(** Value-numbering key of a pure computation. [equal] agrees with
    [Stdlib.compare a b = 0] and equal keys hash equally. *)
module Vkey : sig
  type t =
    | KI of Insn.ibin * Operand.t * Operand.t
    | KF of Insn.fbin * Operand.t * Operand.t
    | KItoF of Operand.t
    | KFtoI of Operand.t
    | KLoad of Reg.cls * Operand.t * Operand.t * Operand.t

  val equal : t -> t -> bool

  val hash : t -> int
end

(** [(base, offset, displacement)] of a memory access, with the same
    contract as {!Vkey}. *)
module Mkey : sig
  type t = Operand.t * Operand.t * Operand.t

  val equal : t -> t -> bool

  val hash : t -> int
end
