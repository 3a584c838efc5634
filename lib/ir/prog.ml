(* Whole programs: array declarations (with initial contents so that a
   program is a closed, simulatable object), an entry block, fresh-name
   generators, and named scalar outputs used to validate that
   transformations preserve semantics. *)

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

let make_ctx () =
  { rgen = Reg.make_gen (); next_insn = 1; next_label = 1; next_loop = 1 }

let fresh_insn_id ctx =
  let id = ctx.next_insn in
  ctx.next_insn <- ctx.next_insn + 1;
  id

let fresh_label ctx prefix =
  let n = ctx.next_label in
  ctx.next_label <- ctx.next_label + 1;
  Printf.sprintf "%s%d" prefix n

let fresh_loop_id ctx =
  let n = ctx.next_loop in
  ctx.next_loop <- ctx.next_loop + 1;
  n

let with_entry p entry = { p with entry }
