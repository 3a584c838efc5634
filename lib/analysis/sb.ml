(* Superblock view of an innermost loop body: an array of items
   (instructions and local labels) with resolved internal branch targets.
   All analyses and transformations on loop bodies work over this view. *)

open Impact_ir

type t = {
  items : Block.item array;
  label_pos : (string, int) Hashtbl.t;  (* label -> item index *)
  head : string;
  exit_lbl : string;
}

let make ~head ~exit_lbl (items : Block.item array) : t =
  let label_pos = Hashtbl.create 8 in
  Array.iteri
    (fun k item ->
      match item with
      | Block.Lbl s -> Hashtbl.replace label_pos s k
      | Block.Ins _ -> ()
      | Block.Loop _ -> invalid_arg "Sb.make: nested loop in superblock view")
    items;
  { items; label_pos; head; exit_lbl }

let of_loop (l : Block.loop) : t =
  make ~head:l.Block.head ~exit_lbl:l.Block.exit_lbl (Array.of_list l.Block.body)

let length t = Array.length t.items

let insn t k =
  match t.items.(k) with
  | Block.Ins i -> Some i
  | Block.Lbl _ | Block.Loop _ -> None

(* Position of an internal branch target; None for external targets
   (loop head, loop exit, or labels outside the body). *)
let internal_target t (i : Insn.t) : int option =
  match i.Insn.target with
  | None -> None
  | Some l -> Hashtbl.find_opt t.label_pos l

let is_back_branch t (i : Insn.t) =
  match i.Insn.target with Some l -> l = t.head | None -> false

(* Instruction positions in order. *)
let insn_positions t =
  let acc = ref [] in
  Array.iteri
    (fun k item -> match item with Block.Ins _ -> acc := k :: !acc | _ -> ())
    t.items;
  List.rev !acc

let iter_insns f t =
  Array.iteri
    (fun k item -> match item with Block.Ins i -> f k i | Block.Lbl _ | Block.Loop _ -> ())
    t.items

(* Successor positions within the body; positions past the end and
   external targets are dropped. [n] = length is used as a virtual "fell
   out of body" node by some analyses, so we return raw successors. *)
let succs t k =
  match t.items.(k) with
  | Block.Lbl _ -> [ k + 1 ]
  | Block.Loop _ -> [ k + 1 ]
  | Block.Ins i -> (
    match i.Insn.op with
    | Insn.Jmp -> (
      match internal_target t i with Some p -> [ p ] | None -> [])
    | Insn.Br _ -> (
      let fall = [ k + 1 ] in
      match internal_target t i with
      | Some p -> p :: fall
      | None -> fall (* side exit or back edge: within-body path is fall-through *))
    | _ -> [ k + 1 ])

(* Registers defined / used anywhere in the body. *)
let all_defs t =
  let s = ref Reg.Set.empty in
  iter_insns (fun _ i -> List.iter (fun r -> s := Reg.Set.add r !s) (Insn.defs i)) t;
  !s

(* Number of defs per register. *)
let def_counts t =
  let tbl = Hashtbl.create 16 in
  iter_insns
    (fun _ i ->
      List.iter
        (fun r ->
          let c = Option.value ~default:0 (Hashtbl.find_opt tbl r.Reg.id) in
          Hashtbl.replace tbl r.Reg.id (c + 1))
        (Insn.defs i))
    t;
  tbl
