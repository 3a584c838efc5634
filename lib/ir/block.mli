(** Structured code. Loop control flow is carried by explicit branch
    instructions targeting the loop's [head] and [exit_lbl] labels; the
    [Loop] structure only marks loop extents for the optimizer. *)

type loop_meta = {
  counter : Reg.t option;  (** loop counter register *)
  step : int option;  (** constant increment of the counter *)
  limit : Operand.t option;  (** loop-invariant bound tested by the back-branch *)
  trip : int option;  (** compile-time trip count, if known *)
  latch : string option;  (** label of the increment-and-test tail *)
  unrolled : int;  (** unroll factor already applied (1 = not unrolled) *)
}

type item = Ins of Insn.t | Lbl of string | Loop of loop

and t = item list

and loop = { lid : int; head : string; exit_lbl : string; meta : loop_meta; body : t }

val no_meta : loop_meta

val insns : t -> Insn.t list
(** All instructions in program order, descending into loops. *)

val loops : t -> loop list
(** All loops, outer before inner. *)

val is_innermost : loop -> bool

val body_insns : loop -> Insn.t list
(** Instructions of an innermost loop body (labels elided). *)

val map_innermost_with_preheader : (item list -> loop -> item list) -> t -> t
(** Rewrite every innermost loop together with the items preceding it in
    its own block (the preheader region, as already rewritten), left to
    right: [f pre l] returns the replacement items for both. The
    transformation passes walk the program with it, and so does the
    schedulers' one walk, [Impact_sched.List_sched.map_loops]. *)

val map_runs : (Insn.t list -> t) -> t -> t
(** [map_runs f block] replaces each maximal run of instructions by
    [f run], left to right; labels and loops stay in place, and loop
    bodies are not entered. *)

val iter_insns : (Insn.t -> unit) -> t -> unit

val concat_map_insns : (Insn.t -> Insn.t list) -> t -> t
