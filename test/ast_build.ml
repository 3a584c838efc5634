(* Combinators that build mini-Fortran ASTs, for tests that construct
   kernels directly rather than from source text, and the fixed data the
   random kernels of t_props use. [let open Ast_build in] also brings
   the AST's constructors into scope. *)

include Impact_fir.Ast

let i n = EInt n

let r x = EReal x

let v name = EVar name

let idx name es = EIdx (name, es)

let ( +: ) a b = EBin (BAdd, a, b)

let ( -: ) a b = EBin (BSub, a, b)

let ( *: ) a b = EBin (BMul, a, b)

let ( /: ) a b = EBin (BDiv, a, b)

let rem a b = EBin (BRem, a, b)

let neg a = ENeg a

let assign name e = SAssign (LVar name, e)

let astore name es e = SAssign (LIdx (name, es), e)

let if_ rel lhs rhs then_ else_ = SIf ({ rel; lhs; rhs }, then_, else_)

let do_ voname lo hi body = SDo { v = voname; lo; hi; step = EInt 1; body }

let do_step voname lo hi step body = SDo { v = voname; lo; hi; step; body }

let scalar ?(init = 0.0) name ty = DScalar (name, ty, init)

let array1 name ty n f = DArray (name, ty, [ n ], f)

let array2 name ty n m f = DArray (name, ty, [ n; m ], f)

let array3 name ty n m k f = DArray (name, ty, [ n; m; k ], f)

(* The contents of [real X(..) seed N], taken from the front end so the
   initializer family has one definition. *)
let seed_init seed =
  match (Impact_fir.Parse.parse_program (Printf.sprintf "real X(1) seed %d" seed)).decls with
  | [ DArray (_, _, _, f) ] -> f
  | _ -> assert false

(* Constants the random kernels cycle through. *)
let consts = [| 0.5; 1.25; 0.75; 2.0; 1.5; 0.25; 3.0; 0.125; 1.75; 0.625 |]

let const k = consts.(k mod Array.length consts)
