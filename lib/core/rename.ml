(* Register renaming (paper Section 2, Figure 1d): within a loop body,
   every definition of a multiply-defined register except the last gets a
   fresh register, and intervening uses are rewritten. The last definition
   keeps the original name so loop-carried values stay consistent without
   compensation copies, exactly as in the paper's example (r12i, r13i
   fresh; the final increment writes r11i back).

   Definitions under internal guards are left alone: renaming a
   conditional definition would break the merge at its join. *)

open Impact_ir
open Impact_analysis

let rename_loop ctx (l : Block.loop) : Block.loop =
  let sb = Sb.of_loop l in
  let uncond = Dom.unconditional sb in
  (* Count unconditional and conditional defs per register. *)
  let defs : (int * Reg.cls, int list) Hashtbl.t = Hashtbl.create 16 in
  let cond_def : (int * Reg.cls, unit) Hashtbl.t = Hashtbl.create 16 in
  Sb.iter_insns
    (fun p i ->
      List.iter
        (fun (r : Reg.t) ->
          let key = (r.Reg.id, r.Reg.cls) in
          if uncond.(p) then
            Hashtbl.replace defs key (p :: Option.value ~default:[] (Hashtbl.find_opt defs key))
          else Hashtbl.replace cond_def key ())
        (Insn.defs i))
    sb;
  (* Renameable: >= 2 unconditional defs, no conditional defs. *)
  let renameable : (int * Reg.cls, int) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key ps ->
      if List.length ps >= 2 && not (Hashtbl.mem cond_def key) then
        (* Record the last (maximal) def position, which keeps the name. *)
        Hashtbl.replace renameable key (List.fold_left max min_int ps))
    defs;
  if Hashtbl.length renameable = 0 then l
  else begin
    (* Current name per original register. *)
    let cur : (int * Reg.cls, Reg.t) Hashtbl.t = Hashtbl.create 16 in
    let rewrite_use (o : Operand.t) =
      match o with
      | Operand.Reg r -> (
        match Hashtbl.find_opt cur (r.Reg.id, r.Reg.cls) with
        | Some r' -> Operand.Reg r'
        | None -> o)
      | _ -> o
    in
    let body =
      List.mapi
        (fun p item ->
          match item with
          | Block.Lbl _ | Block.Loop _ -> item
          | Block.Ins i ->
            let srcs = Array.map rewrite_use i.Insn.srcs in
            let dst =
              match i.Insn.dst with
              | Some d -> (
                let key = (d.Reg.id, d.Reg.cls) in
                match Hashtbl.find_opt renameable key with
                | Some last when uncond.(p) ->
                  if p = last then begin
                    (* Final def: restore the original name. *)
                    Hashtbl.remove cur key;
                    Some d
                  end
                  else begin
                    let d' = Reg.fresh ctx.Prog.rgen d.Reg.cls in
                    Hashtbl.replace cur key d';
                    Impact_obs.Obs.count "pass.rename.renamed";
                    Some d'
                  end
                | _ -> i.Insn.dst)
              | None -> None
            in
            Block.Ins { i with Insn.srcs; dst })
        (Array.to_list sb.Sb.items)
    in
    { l with Block.body }
  end

let run (p : Prog.t) : Prog.t =
  Prog.with_entry p
    (Block.map_innermost_with_preheader
       (fun pre l -> pre @ [ Block.Loop (rename_loop p.Prog.ctx l) ]) p.Prog.entry)
