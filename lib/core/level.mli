(** The five cumulative transformation levels of the paper's evaluation
    (Section 3.2): Conv, then + unrolling (Lev1), + renaming (Lev2),
    + combining/strength/tree-height (Lev3), + the expansions (Lev4). *)

open Impact_ir

type t = Conv | Lev1 | Lev2 | Lev3 | Lev4

val all : t list

val to_string : t -> string

val of_string : string -> t option

val apply_custom :
  ?unroll_factor:int ->
  unroll:bool ->
  accum:bool ->
  ind:bool ->
  search:bool ->
  rename:bool ->
  combine:bool ->
  strength:bool ->
  thr:bool ->
  Prog.t ->
  Prog.t
(** Pipeline with individual transformations switchable (used by the
    leave-one-out ablation benchmarks). *)

val apply : ?unroll_factor:int -> t -> Prog.t -> Prog.t
