(** Register renaming (paper Section 2, Figure 1d): within each loop
    body, every definition of a multiply-defined register except the
    last gets a fresh register and intervening uses are rewritten; the
    last definition keeps the original name so loop-carried values stay
    consistent. Definitions under internal guards are left alone. *)

val run : Impact_ir.Prog.t -> Impact_ir.Prog.t
