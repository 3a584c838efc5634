(* Structured code: a block is a sequence of instructions, local labels
   and (possibly nested) loops. Loop back-edges and exits are ordinary
   branch instructions targeting the loop's [head]/[exit_lbl] labels, so
   the instruction stream alone defines the semantics; the structure just
   tells the optimizer where the loops are. *)

type loop_meta = {
  counter : Reg.t option;  (* loop counter register *)
  step : int option;  (* constant increment of the counter *)
  limit : Operand.t option;  (* loop-invariant bound tested by the back-branch *)
  trip : int option;  (* compile-time trip count, if known *)
  latch : string option;  (* label of the increment-and-test tail *)
  unrolled : int;  (* unroll factor already applied (1 = not unrolled) *)
}

type item = Ins of Insn.t | Lbl of string | Loop of loop

and t = item list

and loop = { lid : int; head : string; exit_lbl : string; meta : loop_meta; body : t }

let no_meta =
  { counter = None; step = None; limit = None; trip = None; latch = None; unrolled = 1 }

let rec insns block =
  List.concat_map
    (function
      | Ins i -> [ i ]
      | Lbl _ -> []
      | Loop l -> insns l.body)
    block

let rec loops block =
  List.concat_map
    (function
      | Ins _ | Lbl _ -> []
      | Loop l -> l :: loops l.body)
    block

let is_innermost l =
  List.for_all (function Loop _ -> false | Ins _ | Lbl _ -> true) l.body

let body_insns l =
  List.filter_map (function Ins i -> Some i | Lbl _ | Loop _ -> None) l.body

(* The items before an innermost loop in its own block, already
   rewritten, are its preheader region: [f pre l] returns what replaces
   both, so a pass may move code into or out of the preheader. *)
let rec map_innermost_with_preheader f block =
  let rec go acc = function
    | [] -> List.rev acc
    | Loop l :: rest when is_innermost l -> go (List.rev (f (List.rev acc) l)) rest
    | Loop l :: rest ->
      go (Loop { l with body = map_innermost_with_preheader f l.body } :: acc) rest
    | ((Ins _ | Lbl _) as item) :: rest -> go (item :: acc) rest
  in
  go [] block

(* Runs are rewritten left to right, so [f] sees them in program order. *)
let map_runs f block =
  let flush acc run = if run = [] then acc else List.rev_append (f (List.rev run)) acc in
  let rec go acc run = function
    | Ins i :: rest -> go acc (i :: run) rest
    | item :: rest -> go (item :: flush acc run) [] rest
    | [] -> List.rev (flush acc run)
  in
  go [] [] block

let rec iter_insns f block =
  List.iter
    (function
      | Ins i -> f i
      | Lbl _ -> ()
      | Loop l -> iter_insns f l.body)
    block

let rec concat_map_insns f block =
  List.concat_map
    (function
      | Ins i -> List.map (fun j -> Ins j) (f i)
      | Lbl s -> [ Lbl s ]
      | Loop l -> [ Loop { l with body = concat_map_insns f l.body } ])
    block
