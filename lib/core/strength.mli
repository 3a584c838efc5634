(** Strength reduction (paper Section 2): integer multiplies by
    compile-time constants become shift/add sequences when the
    sequence's critical path beats the multiply latency on a wide
    machine (powers of two, two-set-bit constants, 2^k - 1). Division
    and remainder by powers of two become shifts/masks when the dividend
    is provably non-negative (the paper's suggested extension for
    superscalar targets). *)

val run : Impact_ir.Prog.t -> Impact_ir.Prog.t
