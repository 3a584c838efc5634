(** Superblock view of an innermost loop body (or any straight-line
    segment with side exits): an array of items with resolved internal
    branch targets. All body-level analyses and transformations work over
    this view. *)

open Impact_ir

type t = {
  items : Block.item array;
  label_pos : (string, int) Hashtbl.t;  (** label -> item index *)
  head : string;  (** loop head label: branches to it are back-edges *)
  exit_lbl : string;  (** loop exit label: branches to it are exits *)
}

val make : head:string -> exit_lbl:string -> Block.item array -> t
(** View over raw items (rejects nested [Loop] items). *)

val of_loop : Block.loop -> t

val length : t -> int

val insn : t -> int -> Insn.t option
(** The instruction at an item position, or [None] for labels. *)

val internal_target : t -> Insn.t -> int option
(** Position of a branch target inside the body; [None] for the head,
    the exit, or labels outside the body. *)

val is_back_branch : t -> Insn.t -> bool

val insn_positions : t -> int list

val iter_insns : (int -> Insn.t -> unit) -> t -> unit

val succs : t -> int -> int list
(** Successor positions within the body (external targets dropped). *)

val all_defs : t -> Reg.Set.t

val def_counts : t -> (int, int) Hashtbl.t
(** Number of definitions per register id. *)
