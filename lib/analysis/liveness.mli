(** Global liveness over the flattened instruction stream. Used by dead
    code elimination, the scheduler's speculation rule, and the register
    allocator.

    The fixpoint runs on dense integer register indices and bitsets
    ({!Dense}); the [Reg.Set]-based record is reconstructed from that
    result for symbolic consumers, and {!target_live} builds single
    branch-target sets on demand for the schedulers. *)

open Impact_ir

type t = {
  flat : Flatten.t;
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
  exit_live : Reg.Set.t;
}

(** Dense form: registers numbered 0..nregs-1 in ascending [Reg.Ord]
    order (so ascending bit iteration matches [Reg.Set] order), live
    sets as bitsets. This is what the compile hot paths consume. *)
module Dense : sig
  type d = {
    flat : Flatten.t;
    regs : Reg.t array;  (** dense index -> register *)
    base : int;  (** smallest [Reg.hash] in [regs] *)
    index : int array;  (** [Reg.hash r - base] -> dense index, or -1 *)
    def : int array;  (** dense index each position defines, or -1 *)
    fall : int array;
        (** fall-through successor of each position ([n] = program
            exit), or -1 after a [Jmp] *)
    jump : int array;  (** branch target position ([n] = exit), or -1 *)
    live_in : Bits.t array;
    live_out : Bits.t array;
    exit_live : Bits.t;
  }

  val nregs : d -> int

  val index_opt : d -> Reg.t -> int option
  (** Dense index of a register, [None] when it neither occurs in the
      code nor is live at exit. *)

  val frame : ?exit_live:Reg.t list -> Flatten.t -> d
  (** Numbering, defs and successors (each branch target resolved once),
      with every live set empty: the set-up {!solve} reuses. *)

  val solve : ?removed:bool array -> d -> unit
  (** (Re)compute the live sets of a frame in place. A position with
      [removed.(k)] is a no-op: it defines and uses nothing and falls
      through, so the result equals a fresh {!frame} and [solve] of the
      code with those positions deleted (a label at a removed position
      reads the live-in of the next kept one), over the same numbering. *)

  val of_prog : Prog.t -> d
  (** Dense liveness with the program outputs live at exit. *)
end

val of_dense : Dense.d -> t
(** Expand a dense result to [Reg.Set] arrays. *)

val live_at_label : t -> string -> Reg.Set.t
(** Live set at a label (the exit-live set for a trailing label). *)

val live_at_target : t -> Insn.t -> Reg.Set.t
(** Live set at a branch's target. *)

val target_live : Dense.d -> Insn.t -> Reg.Set.t
(** [target_live d] is a lookup equal to [live_at_target (of_dense d)]
    that builds each target's set on first request and memoises it in
    the returned closure. Raises [Invalid_argument] on a non-branch or
    an unknown label. *)

val of_prog : Prog.t -> t
(** Liveness with the program outputs live at exit. *)
