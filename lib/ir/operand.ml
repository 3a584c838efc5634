(* Instruction operands: a register, an integer or floating immediate, or
   the base address of a named array (resolved at simulation time). *)

type t =
  | Reg of Reg.t
  | Int of int
  | Flt of float
  | Lab of string

let reg r = Reg r

let lab s = Lab s

let as_reg = function Reg r -> Some r | Int _ | Flt _ | Lab _ -> None

let is_const = function
  | Int _ | Flt _ -> true
  | Reg _ | Lab _ -> false

let equal a b =
  match a, b with
  | Reg r1, Reg r2 -> Reg.equal r1 r2
  | Int n1, Int n2 -> n1 = n2
  | Flt x1, Flt x2 -> Float.equal x1 x2
  | Lab s1, Lab s2 -> String.equal s1 s2
  | (Reg _ | Int _ | Flt _ | Lab _), _ -> false

let to_string = function
  | Reg r -> Reg.to_string r
  | Int n -> string_of_int n
  | Flt x -> Printf.sprintf "%g" x
  | Lab s -> s
