(** DOALL / DOACROSS / serial classification of innermost loops,
    standing in for the KAP-derived classification of the paper's
    Table 2. *)

open Impact_ir

type loop_class = Doall | Doacross | Serial

val to_string : loop_class -> string

val carried_scalars : Sb.t -> Reg.t list
(** Registers defined in the body whose incoming value may be observed
    by some use (dominance-based). *)

val classify : Block.loop -> loop_class
