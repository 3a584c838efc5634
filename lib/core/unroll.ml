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
   and retargeting internal branches; the back-branch is dropped (the
   preconditioning loop supplies its own countdown branch). Returns the
   items and the label map. *)
let copy_body ctx (sb : Sb.t) : Block.item list * (string, string) Hashtbl.t =
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
         | Block.Ins i ->
           if Sb.is_back_branch sb i then None
           else
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
          | Insn.Br (Reg.Int, (Insn.Le | Insn.Ge)) -> (
            let limit = bi.Insn.srcs.(1) in
            let cmp = (match bi.Insn.op with Insn.Br (_, c) -> c | _ -> assert false) in
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
              let emit x = items := x :: !items in
              (* --- Preconditioning loop --- *)
              let make_precond (count_op : Operand.t) =
                let cnt = Reg.fresh ctx.Prog.rgen Reg.Int in
                emit_i (Build.imov ctx cnt count_op);
                let plid = Prog.fresh_loop_id ctx in
                let phead = Printf.sprintf "L%dp" plid in
                let pexit = Printf.sprintf "X%dp" plid in
                (* Guard: skip when no preconditioning iterations. *)
                (match count_op with
                | Operand.Int n when n > 0 -> ()
                | _ ->
                  emit_i (Build.br ctx Reg.Int Insn.Le (Operand.Reg cnt) (Operand.Int 0) pexit));
                let body_items, _ = copy_body ctx sb in
                let dec = Build.ib ctx Insn.Sub cnt (Operand.Reg cnt) (Operand.Int 1) in
                let bb =
                  Build.br ctx Reg.Int Insn.Gt (Operand.Reg cnt) (Operand.Int 0) phead
                in
                let pbody = body_items @ [ Block.Ins dec; Block.Ins bb ] in
                let pmeta =
                  {
                    Block.counter = Some cnt;
                    step = Some (-1);
                    limit = Some (Operand.Int 0);
                    trip = (match count_op with Operand.Int n -> Some n | _ -> None);
                    latch = None;
                    unrolled = 1;
                  }
                in
                emit
                  (Block.Loop
                     { Block.lid = plid; head = phead; exit_lbl = pexit; meta = pmeta;
                       body = pbody })
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
              (* --- Main unrolled loop --- *)
              let copies = ref [] in
              let last_latch = ref latch_lbl in
              for k = 0 to factor - 1 do
                let keep_back = k = factor - 1 in
                let lmap = Hashtbl.create 8 in
                let rename_label lab =
                  match Hashtbl.find_opt lmap lab with
                  | Some x -> x
                  | None ->
                    let x = Prog.fresh_label ctx "U" in
                    Hashtbl.replace lmap lab x;
                    x
                in
                Array.iter
                  (function
                    | Block.Lbl lab -> ignore (rename_label lab)
                    | Block.Ins _ | Block.Loop _ -> ())
                  sb.Sb.items;
                let copy =
                  Array.to_list sb.Sb.items
                  |> List.filter_map (fun item ->
                       match item with
                       | Block.Lbl lab -> Some (Block.Lbl (rename_label lab))
                       | Block.Loop _ -> None
                       | Block.Ins i ->
                         if Sb.is_back_branch sb i then
                           if keep_back then Some (Block.Ins (Build.clone ctx i))
                           else None
                         else
                           let target =
                             match i.Insn.target with
                             | Some tl when Hashtbl.mem lmap tl ->
                               Some (Hashtbl.find lmap tl)
                             | other -> other
                           in
                           Some (Block.Ins { (Build.clone ctx i) with Insn.target }))
                in
                if keep_back then
                  last_latch :=
                    Option.value ~default:!last_latch (Hashtbl.find_opt lmap latch_lbl);
                copies := !copies @ copy
              done;
              let main_meta =
                {
                  meta with
                  Block.latch = Some !last_latch;
                  unrolled = factor;
                  trip = tmain_static;
                }
              in
              emit (Block.Loop { l with Block.meta = main_meta; body = !copies });
              pre @ List.rev !items
            end)
          | _ -> keep ())
        | _ -> keep ()))
  | _ -> keep ()

let run ?(factor = default_factor) (p : Prog.t) : Prog.t =
  Prog.with_entry p
    (Block.map_innermost_with_preheader (unroll_loop p.Prog.ctx ~factor) p.Prog.entry)
