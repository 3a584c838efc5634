(** Pretty-printing of structured programs in the paper's assembly
    style. *)

val prog_to_string : Prog.t -> string
