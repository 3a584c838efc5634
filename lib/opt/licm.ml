(* Loop-invariant code motion for innermost loops. A speculatable
   instruction whose operands are invariant moves to the preheader
   (placed just before the loop, i.e. after the zero-trip guard).
   Loads additionally require that no store in the loop may touch the
   same array. *)

open Impact_ir
open Impact_analysis

let hoist_loop (pre : Block.item list) (l : Block.loop) : Block.item list =
  let sb = Sb.of_loop l in
  let carried =
    List.fold_left (fun s r -> Reg.Set.add r s) Reg.Set.empty (Classify.carried_scalars sb)
  in
  let def_counts = Sb.def_counts sb in
  let defined_in_body = ref (Sb.all_defs sb) in
  let store_labels = ref [] in
  let has_unknown_store = ref false in
  Sb.iter_insns
    (fun _ i ->
      if Insn.is_store i then
        match i.Insn.srcs.(0) with
        | Operand.Lab s -> store_labels := s :: !store_labels
        | _ -> has_unknown_store := true)
    sb;
  let body = ref (Array.to_list sb.Sb.items) in
  let hoisted = ref [] in
  let invariant_operand (o : Operand.t) =
    match o with
    | Operand.Reg r -> not (Reg.Set.mem r !defined_in_body)
    | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> true
  in
  let load_safe (i : Insn.t) =
    (not (Insn.is_load i))
    ||
    match i.Insn.srcs.(0) with
    | Operand.Lab s -> (not !has_unknown_store) && not (List.mem s !store_labels)
    | _ -> (not !has_unknown_store) && !store_labels = []
  in
  let hoistable (i : Insn.t) =
    Insn.is_speculatable i
    &&
    match i.Insn.dst with
    | None -> false
    | Some d ->
      Option.value ~default:0 (Hashtbl.find_opt def_counts d.Reg.id) = 1
      && (not (Reg.Set.mem d carried))
      && Array.for_all invariant_operand i.Insn.srcs
      && load_safe i
  in
  let changed = ref true in
  while !changed do
    changed := false;
    body :=
      List.filter
        (fun item ->
          match item with
          | Block.Ins i when hoistable i ->
            hoisted := Block.Ins i :: !hoisted;
            (match i.Insn.dst with
            | Some d -> defined_in_body := Reg.Set.remove d !defined_in_body
            | None -> ());
            changed := true;
            false
          | Block.Ins _ | Block.Lbl _ | Block.Loop _ -> true)
        !body
  done;
  pre @ List.rev !hoisted @ [ Block.Loop { l with Block.body = !body } ]

let run (p : Prog.t) : Prog.t =
  Impact_obs.Obs.span ~cat:"opt" "opt.licm" (fun () ->
    Prog.with_entry p
      (Block.map_innermost_with_preheader hoist_loop p.Prog.entry))
