(** Graph-coloring register allocation over scheduled code, used as a
    measurement of register pressure (paper Figures 11, 13, 15): the
    simulated processor has an unbounded register file, and "the register
    allocator attempts to utilize the least number of registers required
    for a given loop". *)

open Impact_ir

type usage = { int_used : int; float_used : int }

val total : usage -> int

val measure : Prog.t -> usage
(** Color both classes of a program and report the counts. The
    interference graph is a bit matrix over dense register indices,
    filled word by word in one forward pass; simplify pops the
    (degree, node order)-smallest node off per-degree bitset buckets. *)

val coloring_fast : Prog.t -> (Reg.t * int) list
(** Full assignment from the same allocation as [measure], for
    differential validation against the reference allocator in
    test/regalloc_ref.ml. *)
