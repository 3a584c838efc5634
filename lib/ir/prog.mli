(** Whole programs. A program carries its own array contents so that it is
    a closed, simulatable object; [outputs] are the scalar observables used
    to check that transformations preserve semantics. *)

type ainit = IInit of int array | FInit of float array

type adecl = { aname : string; acls : Reg.cls; asize : int; ainit : ainit }

type ctx = {
  rgen : Reg.gen;
  mutable next_insn : int;
  mutable next_label : int;
  mutable next_loop : int;
}

type t = {
  arrays : adecl list;
  entry : Block.t;
  ctx : ctx;
  outputs : (string * Reg.t) list;
}

val make_ctx : unit -> ctx

val fresh_insn_id : ctx -> int

val fresh_label : ctx -> string -> string

val fresh_loop_id : ctx -> int

val with_entry : t -> Block.t -> t
