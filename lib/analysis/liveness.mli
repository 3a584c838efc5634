(** Global liveness over the flattened instruction stream. Used by dead
    code elimination, the scheduler's speculation rule, and the register
    allocator.

    The fixpoint runs on dense integer register indices and bitsets
    ({!Dense}); {!target_live} builds single branch-target [Reg.Set]s on
    demand for the schedulers. *)

open Impact_ir

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

val target_live : Dense.d -> Insn.t -> Reg.Set.t
(** [target_live d] looks up the live set at a branch's target: the
    live-in of the instruction its label points at, or the exit-live
    set for a label at the end of the code. It builds each target's set
    on first request and memoises it in the returned closure. Raises
    [Invalid_argument] on a non-branch or an unknown label. *)
