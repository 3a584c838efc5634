(** Static checks on mini-Fortran programs: declared names, subscript
    arity and integrality, and expression typing with the implicit
    int->real promotion rule. *)

exception Type_error of string

type tenv = {
  scalars : (string, Ast.ty) Hashtbl.t;
  arrays : (string, Ast.ty * int list) Hashtbl.t;
}

val expr_type : tenv -> Ast.expr -> Ast.ty

val check : Ast.program -> tenv
(** Full program check; raises {!Type_error} with a message. *)
