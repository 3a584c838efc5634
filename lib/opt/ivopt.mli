(** Loop induction-variable strength reduction and elimination (both in
    the paper's conventional-optimization list): affine subscript
    arithmetic becomes derived induction registers stepped in the latch
    region, and the loop exit test moves onto a derived register when
    the original counter has no other uses. *)

val reduce : Impact_ir.Prog.t -> Impact_ir.Prog.t

val eliminate : Impact_ir.Prog.t -> Impact_ir.Prog.t
