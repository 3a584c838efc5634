(* Abstract syntax for the mini-Fortran source language. [Parse] builds
   it from source text (the 40 Table 2 kernels and examples/kernels/);
   tests also build it directly. Arrays are column-major and
   1-indexed, DO loops have entry-evaluated bounds, and IF/CYCLE give the
   conditional constructs that appear in the paper's loops. *)

type ty = TInt | TReal

type binop = BAdd | BSub | BMul | BDiv | BRem

type cmp = CLt | CLe | CGt | CGe | CEq | CNe

type expr =
  | EInt of int
  | EReal of float
  | EVar of string
  | EIdx of string * expr list
  | EBin of binop * expr * expr
  | ENeg of expr
  | ECvt of ty * expr

type cond = { rel : cmp; lhs : expr; rhs : expr }

type stmt =
  | SAssign of lval * expr
  | SIf of cond * stmt list * stmt list
  | SDo of doloop
  | SCycle  (** skip to the next iteration of the innermost enclosing loop *)

and lval = LVar of string | LIdx of string * expr list

and doloop = { v : string; lo : expr; hi : expr; step : expr; body : stmt list }

type decl =
  | DScalar of string * ty * float  (** name, type, initial value *)
  | DArray of string * ty * int list * (int -> float)
      (** name, element type, dimensions, initializer by linear index *)

type program = {
  decls : decl list;
  stmts : stmt list;
  outs : string list;  (** scalar variables observed after execution *)
}

let rec stmt_count stmts =
  List.fold_left
    (fun acc s ->
      acc
      +
      match s with
      | SAssign _ | SCycle -> 1
      | SIf (_, a, b) -> 1 + stmt_count a + stmt_count b
      | SDo d -> 1 + stmt_count d.body)
    0 stmts

(* Nesting depth of the deepest DO loop. *)
let rec loop_depth stmts =
  List.fold_left
    (fun acc s ->
      max acc
        (match s with
        | SAssign _ | SCycle -> 0
        | SIf (_, a, b) -> max (loop_depth a) (loop_depth b)
        | SDo d -> 1 + loop_depth d.body))
    0 stmts

(* Whether any innermost loop body contains a conditional. *)
let rec has_conditional stmts =
  List.exists
    (function
      | SAssign _ | SCycle -> false
      | SIf _ -> true
      | SDo d -> has_conditional d.body)
    stmts
