(** Graph-coloring register allocation over scheduled code, used as a
    measurement of register pressure (paper Figures 11, 13, 15): the
    simulated processor has an unbounded register file, and "the register
    allocator attempts to utilize the least number of registers required
    for a given loop". *)

open Impact_ir

type usage = { int_used : int; float_used : int }

val total : usage -> int

val measure : Prog.t -> usage
(** Color both classes of a program and report the counts. Fast path:
    dense register indices, compact adjacency arrays built in one
    backward pass, and heap-based simplify. *)

val coloring_fast : Prog.t -> (Reg.t * int) list
(** Full assignment, for differential validation against the reference
    allocator in test/regalloc_ref.ml. *)
