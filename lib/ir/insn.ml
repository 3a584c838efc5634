(* RISC-style instructions modeled on the paper's assembly notation
   (a MIPS R2000-like instruction set, Section 3.1). *)

type ibin = Add | Sub | Mul | Div | Rem | Shl | Shr | And | Or | Xor

type fbin = Fadd | Fsub | Fmul | Fdiv

type cmp = Lt | Le | Gt | Ge | Eq | Ne

type op =
  | IBin of ibin
  | FBin of fbin
  | IMov
  | FMov
  | ItoF
  | FtoI
  | Load of Reg.cls
  | Store of Reg.cls
  | Br of Reg.cls * cmp
  | Jmp

type t = {
  id : int;
  op : op;
  dst : Reg.t option;
  srcs : Operand.t array;
  target : string option;
}

let make ~id ~op ?dst ?(srcs = [||]) ?target () = { id; op; dst; srcs; target }

let defs i = match i.dst with Some r -> [ r ] | None -> []

let uses i =
  Array.to_list i.srcs
  |> List.filter_map (function
       | Operand.Reg r -> Some r
       | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> None)

let is_branch i = match i.op with Br _ | Jmp -> true | _ -> false

let is_cond_branch i = match i.op with Br _ -> true | _ -> false

let is_load i = match i.op with Load _ -> true | _ -> false

let is_store i = match i.op with Store _ -> true | _ -> false

let is_mem i = is_load i || is_store i

(* Memory address components of a load or store: (base, offset,
   immediate displacement). *)
let mem_addr i =
  match i.op with
  | Load _ | Store _ ->
    let disp = match i.srcs.(2) with Operand.Int d -> d | _ -> 0 in
    Some (i.srcs.(0), i.srcs.(1), disp)
  | IBin _ | FBin _ | IMov | FMov | ItoF | FtoI | Br _ | Jmp -> None

(* Instructions with no side effect other than writing their destination
   register; these may be executed speculatively (the paper assumes
   non-excepting loads and floating-point instructions). *)
let is_speculatable i =
  match i.op with
  | IBin _ | FBin _ | IMov | FMov | ItoF | FtoI | Load _ -> true
  | Store _ | Br _ | Jmp -> false

let result_cls i =
  match i.op with
  | IBin _ | IMov | FtoI | Load Reg.Int -> Some Reg.Int
  | FBin _ | FMov | ItoF | Load Reg.Float -> Some Reg.Float
  | Store _ | Br _ | Jmp -> None

(* Compile-time evaluation of the arithmetic, shared by the frontend's
   folding, the optimizer and the transformations. *)
let eval_ibin op a b =
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | Div -> if b = 0 then None else Some (a / b)
  | Rem -> if b = 0 then None else Some (a mod b)
  | Shl -> if b < 0 || b > 62 then None else Some (a lsl b)
  | Shr -> if b < 0 || b > 62 then None else Some (a asr b)
  | And -> Some (a land b)
  | Or -> Some (a lor b)
  | Xor -> Some (a lxor b)

let eval_fbin op a b =
  match op with Fadd -> a +. b | Fsub -> a -. b | Fmul -> a *. b | Fdiv -> a /. b

let negate_cmp = function
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Eq -> Ne
  | Ne -> Eq

let eval_icmp c (a : int) (b : int) =
  match c with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b

let eval_fcmp c (a : float) (b : float) =
  match c with
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Eq -> a = b
  | Ne -> a <> b

let ibin_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Shl -> "<<"
  | Shr -> ">>"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"

let fbin_to_string = function
  | Fadd -> "+"
  | Fsub -> "-"
  | Fmul -> "*"
  | Fdiv -> "/"

let cmp_to_string = function
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Eq -> "eq"
  | Ne -> "ne"

let dst_string i =
  match i.dst with Some r -> Reg.to_string r | None -> "_"

let to_string i =
  let s k = Operand.to_string i.srcs.(k) in
  match i.op with
  | IBin b -> Printf.sprintf "%s = %s %s %s" (dst_string i) (s 0) (ibin_to_string b) (s 1)
  | FBin b -> Printf.sprintf "%s = %s %s %s" (dst_string i) (s 0) (fbin_to_string b) (s 1)
  | IMov | FMov -> Printf.sprintf "%s = %s" (dst_string i) (s 0)
  | ItoF -> Printf.sprintf "%s = itof %s" (dst_string i) (s 0)
  | FtoI -> Printf.sprintf "%s = ftoi %s" (dst_string i) (s 0)
  | Load _ ->
    let d = match i.srcs.(2) with Operand.Int 0 -> "" | o -> "+" ^ Operand.to_string o in
    Printf.sprintf "%s = MEM(%s+%s%s)" (dst_string i) (s 0) (s 1) d
  | Store _ ->
    let d = match i.srcs.(2) with Operand.Int 0 -> "" | o -> "+" ^ Operand.to_string o in
    Printf.sprintf "MEM(%s+%s%s) = %s" (s 0) (s 1) d (s 3)
  | Br (_, c) ->
    Printf.sprintf "b%s (%s %s) %s" (cmp_to_string c) (s 0) (s 1)
      (Option.value ~default:"?" i.target)
  | Jmp -> Printf.sprintf "jmp %s" (Option.value ~default:"?" i.target)
