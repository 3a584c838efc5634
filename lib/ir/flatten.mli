(** Resolve a structured block to a flat instruction stream with a label
    table, for simulation and global analyses. *)

type t = { code : Insn.t array; labels : (string, int) Hashtbl.t }

exception Unresolved_label of string

exception Duplicate_label of string

val target_index : t -> Insn.t -> int
(** Index of a branch's target. *)

val of_prog : Prog.t -> t
