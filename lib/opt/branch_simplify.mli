(** Control-flow peepholes: inverted-branch canonicalization
    ([br c X; jmp L; X:] becomes [br !c L; X:]) and removal of
    unreferenced labels (latch labels are kept as structural anchors). *)

val run : Impact_ir.Prog.t -> Impact_ir.Prog.t
