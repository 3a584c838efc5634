(** Global liveness over the flattened instruction stream. Used by dead
    code elimination, the schedulers' speculation rule, and the register
    allocator.

    The fixpoint runs over basic blocks, on dense integer register
    indices and bitsets ({!Dense}): one use/def summary and one live-in
    and live-out set per block. A block starts at position 0, at every
    label and after every branch or jump. A consumer that needs the
    live set at a position replays the position's block backwards from
    the block's live-out with {!Dense.walk}; {!target_live} builds
    single branch-target [Reg.Set]s on demand for the schedulers. *)

open Impact_ir

(** Dense form: registers numbered 0..nregs-1 in ascending [Reg.Ord]
    order (so ascending bit iteration matches [Reg.Set] order), live
    sets as bitsets, one per block. This is what the compile hot paths
    consume. *)
module Dense : sig
  type blocks
  (** Per block: successors, use/def summary, live-in and live-out
      sets, and the removal mask of the last {!solve}. Read through
      {!walk} and {!Liveness.target_live}. *)

  type d = {
    flat : Flatten.t;
    regs : Reg.t array;  (** dense index -> register *)
    def : int array;  (** dense index each position defines, or -1 *)
    use_start : int array;
        (** position [k]'s register sources are
            [uses.(use_start.(k))] to [uses.(use_start.(k + 1) - 1)] *)
    uses : int array;
        (** dense index of every register source, in position and
            operand order *)
    start : int array;
        (** first position of each block, ascending; the extra last
            entry is the code's length *)
    exit_live : Bits.t;
    blocks : blocks;
  }

  val nregs : d -> int

  val nblocks : d -> int

  val frame : ?exit_live:Reg.t list -> Flatten.t -> d
  (** Numbering, defs, blocks, successors (each branch target resolved
      once) and use/def summaries, with every live set empty: the set-up
      {!solve} reuses. *)

  val solve : ?removed:bool array -> d -> unit
  (** (Re)compute the live sets of a frame in place. A position with
      [removed.(k)] is a no-op: it defines and uses nothing and falls
      through, so the result equals a fresh {!frame} and [solve] of the
      code with those positions deleted (a label at a removed position
      reads the live-in of the next kept one), over the same numbering.
      Only the blocks whose mask changed since the last [solve] are
      re-summarised. The frame keeps its own copy of the mask, so a
      caller may mark positions in [removed] while it {!walk}s. Counts
      the blocks processed as [liveness.block_visits]. *)

  val walk : d -> int -> Bits.t -> (int -> unit) -> unit
  (** [walk d b live f] replays block [b] backwards into the scratch set
      [live] (created with {!nregs} bits): it sets [live] to the block's
      live-out, then for each position [k] of the block, last first,
      calls [f k] while [live] holds the live-out of [k], and steps
      [live] to the live-in of [k] under the mask of the last {!solve}.
      [live] ends as the block's live-in. *)

  val of_prog : Prog.t -> d
  (** Dense liveness with the program outputs live at exit. *)
end

val target_live : Dense.d -> Insn.t -> Reg.Set.t
(** [target_live d] looks up the live set at a branch's target: the
    live-in of the block its label starts, or the exit-live set for a
    label at the end of the code. It builds each target's set on first
    request and memoises it in the returned closure. Raises
    [Invalid_argument] on a non-branch or an unknown label. *)
