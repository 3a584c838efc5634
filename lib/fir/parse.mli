(** Text front-end for the mini-Fortran language: one statement per
    line, case-insensitive keywords, case-sensitive names, '!' comments,
    .lt.-style or symbolic relational operators, DO/END loops, block and
    one-line IF, CYCLE, real and integer array declarations with
    [zero], [seed N], [pos N], [mask N] or [linear A B] initializers,
    and OUTPUT directives naming the observable scalars. [mask N] at
    linear index k depends only on [(k + N) mod 8]: the period-8
    pattern -1 6 5 4 3 2 1 0 from [(k + N) mod 8 = 0], so [mask N] and
    [mask (N + 8)] are the same array. See
    [lib/workloads/table2/] and [examples/kernels/] for complete
    programs. *)

exception Parse_error of string

val parse_program : string -> Ast.program
(** Parse from a string; raises {!Parse_error} with a line number. *)

val parse_file : string -> Ast.program
