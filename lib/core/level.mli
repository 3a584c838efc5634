(** The five cumulative transformation levels of the paper's evaluation
    (Section 3.2), as one table of named passes in pipeline order. A
    level runs every entry introduced at or below it:

    {v
      Conv  conv
      Lev1  unroll
      Lev4  accum_expand; ind_expand; search_expand
      Lev2  rename
      Lev3  combine; strength; tree_height
      Lev1  cleanup
    v}

    So Lev1 is [conv; unroll; cleanup]. *)

open Impact_ir

type t = Conv | Lev1 | Lev2 | Lev3 | Lev4

val all : t list

val to_string : t -> string

val of_string : string -> t option

type pass = string * (Prog.t -> Prog.t)
(** A named transformation; the name labels its telemetry
    (["pass.<name>.*"]) and its ablation row. *)

val pipeline : ?unroll_factor:int -> t -> pass list
(** The level's entries of the table above, in order. [unroll_factor]
    overrides the unroll pass's factor (default 8). *)

val run : pass list -> Prog.t -> Prog.t
(** The passes in order, each in a ["pass.<name>"] telemetry span that
    counts its runs and IR deltas (one atomic load when telemetry is off). *)

val apply : ?unroll_factor:int -> t -> Prog.t -> Prog.t
(** [run (pipeline ?unroll_factor level)]. *)
