(* Pretty-printing of structured programs in the paper's assembly style. *)

let rec pp_block indent ppf (block : Block.t) =
  let pad = String.make indent ' ' in
  List.iter
    (function
      | Block.Ins i -> Format.fprintf ppf "%s%s@." pad (Insn.to_string i)
      | Block.Lbl l -> Format.fprintf ppf "%s:@." l
      | Block.Loop l ->
        Format.fprintf ppf "%s:@." l.Block.head;
        pp_block (indent + 2) ppf l.Block.body;
        Format.fprintf ppf "%s:@." l.Block.exit_lbl)
    block

let pp_prog ppf (p : Prog.t) =
  List.iter
    (fun (a : Prog.adecl) ->
      Format.fprintf ppf ".array %s : %s[%d]@." a.Prog.aname
        (match a.Prog.acls with Reg.Int -> "int" | Reg.Float -> "real")
        a.Prog.asize)
    p.Prog.arrays;
  pp_block 0 ppf p.Prog.entry;
  List.iter
    (fun (name, r) -> Format.fprintf ppf ".output %s = %s@." name (Reg.to_string r))
    p.Prog.outputs

let prog_to_string p = Format.asprintf "%a" pp_prog p
