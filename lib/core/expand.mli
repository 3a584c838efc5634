(** Variable expansion, the paper's Lev4 (Section 2). Each pass gives
    every site of a qualifying register in an innermost loop body its
    own temporary register, initialized before the loop (ahead of its
    trip guard) and folded back into the register at the loop exit. *)

val accum : Impact_ir.Prog.t -> Impact_ir.Prog.t
(** Accumulator expansion (Figure 2): each of the k accumulations of a
    register only ever incremented and decremented gets its own
    temporary (the first initialized to the original, the rest to
    zero); the temporaries are summed back at loop exit. Removes all
    flow/anti/output dependences between the accumulations, at the cost
    of reordering the floating-point reduction. *)

val induction : Impact_ir.Prog.t -> Impact_ir.Prog.t
(** Induction expansion (Figure 4): k increments of an induction
    register give k+1 temporaries initialized to V + p*m; references
    are remapped by region, the original increments disappear, and all
    temporaries are bumped by k*m before each branch back to the loop
    start. *)

val search : Impact_ir.Prog.t -> Impact_ir.Prog.t
(** Search expansion: each guarded min/max-style update site gets its
    own temporary (initialized to the original); the temporaries are
    combined back at loop exit with the same guarded move, removing the
    chain of flow dependences between successive tests. *)
