(* Loop unrolling with a preconditioning loop (paper Section 2).

   A loop unrolled N times gets N-1 copies of its body appended; the
   control transfers of the intermediate copies are removed. Because all
   the paper's loops have iteration counts known on loop entry, a
   preconditioning loop first executes [trip mod N] iterations so that the
   main unrolled loop's original exit test only needs checking once per N
   iterations.

   When the trip count is a compile-time constant the preconditioning
   bookkeeping folds away; otherwise it is computed at run time in the
   preheader (one divide and one remainder, amortized over the loop). *)

open Impact_ir
open Impact_analysis

(* The paper's maximum unroll factor. *)
let default_factor = 8

(* Unrolled bodies are capped, mirroring the paper's "maximum loop body
   size" limit. *)
let max_body_insns = 220

(* Copy the body once with fresh instruction ids, renaming local labels
   and retargeting internal branches; the back-branch is kept only when
   [keep_back] (the preconditioning loop supplies its own countdown
   branch). Returns the items and the label map. *)
let copy_body ctx ~keep_back (sb : Sb.t) : Block.item list * (string, string) Hashtbl.t =
  let lmap = Hashtbl.create 8 in
  let rename_label l =
    match Hashtbl.find_opt lmap l with
    | Some l' -> l'
    | None ->
      let l' = Prog.fresh_label ctx "U" in
      Hashtbl.replace lmap l l';
      l'
  in
  Array.iter
    (function Block.Lbl l -> ignore (rename_label l) | Block.Ins _ | Block.Loop _ -> ())
    sb.Sb.items;
  let items =
    Array.to_list sb.Sb.items
    |> List.filter_map (fun item ->
         match item with
         | Block.Lbl l -> Some (Block.Lbl (rename_label l))
         | Block.Loop _ -> invalid_arg "Unroll.copy_body: nested loop"
         | Block.Ins i when Sb.is_back_branch sb i && not keep_back -> None
         | Block.Ins i ->
           let target =
             match i.Insn.target with
             | Some t when Hashtbl.mem lmap t -> Some (Hashtbl.find lmap t)
             | other -> other
           in
           Some (Block.Ins { (Build.clone ctx i) with Insn.target }))
  in
  (items, lmap)

let unroll_loop ctx ~factor (pre : Block.item list) (l : Block.loop)
    : Block.item list =
  let keep () = pre @ [ Block.Loop l ] in
  let meta = l.Block.meta in
  match meta.Block.counter, meta.Block.step, meta.Block.latch with
  | Some counter, Some step, Some latch_lbl -> (
    let sb = Sb.of_loop l in
    let body_size = List.length (Sb.insn_positions sb) in
    let factor = min factor (max 1 (max_body_insns / max 1 body_size)) in
    let factor =
      match meta.Block.trip with Some t when t > 0 -> min factor t | _ -> factor
    in
    if factor < 2 then keep ()
    else
      match Dom.end_position sb with
      | None -> keep ()
      | Some bpos -> (
        match Sb.insn sb bpos with
        | Some bi when Sb.is_back_branch sb bi -> (
          match bi.Insn.op with
          | Insn.Br (Reg.Int, (Insn.Le | Insn.Ge as cmp)) -> (
            let limit = bi.Insn.srcs.(1) in
            (* Static trip-count split when known. *)
            let tpre_static, tmain_static =
              match meta.Block.trip with
              | Some t ->
                let tm = t - (t mod factor) in
                if tm < factor then (None, None)
                else (Some (t mod factor), Some tm)
              | None -> (None, None)
            in
            if meta.Block.trip <> None && tmain_static = None then keep ()
            else begin
              let items = ref [] in
              let emit_i i = items := Block.Ins i :: !items in
              (* --- Preconditioning loop --- *)
              let make_precond count =
                let loop =
                  Build.countdown_loop ctx ~suffix:"p" count (fun () ->
                    fst (copy_body ctx ~keep_back:false sb))
                in
                items := List.rev_append loop !items
              in
              (match tpre_static with
              | Some 0 -> ()
              | Some t -> make_precond (Operand.Int t)
              | None ->
                (* Runtime: trip = (limit - counter) / step + 1;
                   tpre = trip mod factor. *)
                let d = Reg.fresh ctx.Prog.rgen Reg.Int in
                let q = Reg.fresh ctx.Prog.rgen Reg.Int in
                let t = Reg.fresh ctx.Prog.rgen Reg.Int in
                let tp = Reg.fresh ctx.Prog.rgen Reg.Int in
                emit_i (Build.ib ctx Insn.Sub d limit (Operand.Reg counter));
                emit_i (Build.ib ctx Insn.Div q (Operand.Reg d) (Operand.Int step));
                emit_i (Build.ib ctx Insn.Add t (Operand.Reg q) (Operand.Int 1));
                emit_i (Build.ib ctx Insn.Rem tp (Operand.Reg t) (Operand.Int factor));
                make_precond (Operand.Reg tp));
              (* Guard before the main loop when the remaining trip count
                 could be zero. *)
              (match tmain_static with
              | Some _ -> ()
              | None ->
                let guard_cmp = match cmp with Insn.Le -> Insn.Gt | _ -> Insn.Lt in
                emit_i
                  (Build.br ctx Reg.Int guard_cmp (Operand.Reg counter) limit
                     l.Block.exit_lbl));
              (* --- Main unrolled loop: the last copy keeps the
                 back-branch and names the latch --- *)
              let copies =
                List.init factor (fun k -> copy_body ctx ~keep_back:(k = factor - 1) sb)
              in
              let last_lmap = snd (List.nth copies (factor - 1)) in
              let main_meta =
                {
                  meta with
                  Block.latch =
                    Some (Option.value ~default:latch_lbl (Hashtbl.find_opt last_lmap latch_lbl));
                  unrolled = factor;
                  trip = tmain_static;
                }
              in
              let body = List.concat_map fst copies in
              pre @ List.rev (Block.Loop { l with Block.meta = main_meta; body } :: !items)
            end)
          | _ -> keep ())
        | _ -> keep ()))
  | _ -> keep ()

let run ?(factor = default_factor) (p : Prog.t) : Prog.t =
  Prog.with_entry p
    (Block.map_innermost_with_preheader (unroll_loop p.Prog.ctx ~factor) p.Prog.entry)
