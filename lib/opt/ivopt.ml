(* Loop induction-variable strength reduction and elimination (both in
   the paper's list of conventional optimizations).

   Strength reduction: an integer computation in the body whose symbolic
   value is affine in the loop counter (plus loop invariants) is replaced
   by a derived induction register, initialized in the preheader and
   incremented in the latch region. This turns per-iteration subscript
   arithmetic into the pointer-increment form the paper's figures show
   (e.g. [r2f = MEM(A+r1i); ...; r1i = r1i + 4]).

   Elimination: when the original counter is used only by its own
   increment and the back-branch, the exit test is rewritten onto a
   derived induction variable, letting the counter die. *)

open Impact_ir
open Impact_analysis

(* Emit instructions computing the linear value [v] (in terms of the
   registers/labels its keys refer to) and return the operand holding it. *)
let materialize ctx (v : Linval.lin) : Insn.t list * Operand.t =
  let buf = ref [] in
  let emit i = buf := i :: !buf in
  let term (key, coeff) : Operand.t =
    let base_op =
      match key with
      | Linval.Key.KReg r -> Operand.Reg r
      | Linval.Key.KLab s -> Operand.Lab s
      | Linval.Key.KOpq _ | Linval.Key.KTrip _ ->
        invalid_arg "materialize: opaque key"
    in
    if coeff = 1 then base_op
    else begin
      let d = Reg.fresh ctx.Prog.rgen Reg.Int in
      emit (Build.ib ctx Insn.Mul d base_op (Operand.Int coeff));
      Operand.Reg d
    end
  in
  let acc =
    List.fold_left
      (fun acc t ->
        let o = term t in
        match acc with
        | None -> Some o
        | Some a ->
          let d = Reg.fresh ctx.Prog.rgen Reg.Int in
          emit (Build.ib ctx Insn.Add d a o);
          Some (Operand.Reg d))
      None (Linval.terms v)
  in
  let result =
    match acc with
    | None -> Operand.Int v.Linval.c
    | Some a ->
      if v.Linval.c = 0 then a
      else begin
        let d = Reg.fresh ctx.Prog.rgen Reg.Int in
        emit (Build.ib ctx Insn.Add d a (Operand.Int v.Linval.c));
        Operand.Reg d
      end
  in
  (List.rev !buf, result)

let counter_coeff (counter : Reg.t) (v : Linval.lin) =
  match Linval.KMap.find_opt (Linval.Key.KReg counter) v.Linval.coeffs with
  | Some k -> k
  | None -> 0

(* All keys other than the counter must be loop-invariant registers or
   labels. *)
let materializable (lv : Linval.t) (counter : Reg.t) (v : Linval.lin) =
  List.for_all
    (fun (key, _) ->
      match key with
      | Linval.Key.KReg r -> Reg.equal r counter || Linval.invariant lv r
      | Linval.Key.KLab _ -> true
      | Linval.Key.KOpq _ | Linval.Key.KTrip _ -> false)
    (Linval.terms v)

let find_latch_pos (sb : Sb.t) (latch : string) =
  Hashtbl.find_opt sb.Sb.label_pos latch

(* ---- Strength reduction ---- *)

let reduce_loop ctx (pre : Block.item list) (l : Block.loop) : Block.item list =
  let meta = l.Block.meta in
  match meta.Block.counter, meta.Block.step, meta.Block.latch with
  | Some counter, Some step, Some latch -> (
    let sb = Sb.of_loop l in
    match find_latch_pos sb latch with
    | None -> pre @ [ Block.Loop l ]
    | Some latch_pos ->
      let lv = Linval.analyze sb in
      let def_counts = Sb.def_counts sb in
      (* Candidate positions: pure integer computations, affine in the
         counter, singly-defined destination, not already a plain
         increment of the counter itself. *)
      let candidates = ref [] in
      Sb.iter_insns
        (fun p i ->
          match i.Insn.op, i.Insn.dst with
          | (Insn.IBin _ | Insn.IMov), Some d
            when p < latch_pos
                 && (not (Reg.equal d counter))
                 && Option.value ~default:0 (Hashtbl.find_opt def_counts d.Reg.id) = 1
            -> (
            match Linval.result lv p with
            | Some v
              when counter_coeff counter v <> 0 && materializable lv counter v ->
              candidates := (p, d, v) :: !candidates
            | _ -> ())
          | _ -> ())
        sb;
      let candidates = List.rev !candidates in
      if candidates = [] then pre @ [ Block.Loop l ]
      else begin
        (* One derived induction register per distinct linear value. *)
        let assoc : (Linval.lin * Reg.t) list ref = ref [] in
        let preheader_code = ref [] in
        let latch_incs = ref [] in
        let reg_for v =
          match List.find_opt (fun (v', _) -> Linval.equal v v') !assoc with
          | Some (_, w) -> w
          | None ->
            let w = Reg.fresh ctx.Prog.rgen Reg.Int in
            let code, o = materialize ctx v in
            let init = Build.imov ctx w o in
            preheader_code := !preheader_code @ code @ [ init ];
            let k = counter_coeff counter v in
            latch_incs :=
              !latch_incs
              @ [ Build.ib ctx Insn.Add w (Operand.Reg w) (Operand.Int (k * step)) ];
            assoc := (v, w) :: !assoc;
            w
        in
        let replacement = Hashtbl.create 8 in
        List.iter
          (fun (p, d, v) ->
            let w = reg_for v in
            Hashtbl.replace replacement p (Build.imov ctx d (Operand.Reg w)))
          candidates;
        let body =
          List.concat
            (List.mapi
               (fun p item ->
                 match item with
                 | Block.Ins _ when Hashtbl.mem replacement p ->
                   [ Block.Ins (Hashtbl.find replacement p) ]
                 | Block.Lbl s when s = latch && p = latch_pos ->
                   Block.Lbl s :: List.map (fun i -> Block.Ins i) !latch_incs
                 | _ -> [ item ])
               (Array.to_list sb.Sb.items))
        in
        pre
        @ List.map (fun i -> Block.Ins i) !preheader_code
        @ [ Block.Loop { l with Block.body } ]
      end)
  | _ -> pre @ [ Block.Loop l ]

(* ---- Elimination ---- *)

let eliminate_loop ctx (pre : Block.item list) (l : Block.loop) : Block.item list =
  let keep () = pre @ [ Block.Loop l ] in
  let meta = l.Block.meta in
  match meta.Block.counter, meta.Block.step, meta.Block.limit, meta.Block.latch with
  | Some counter, Some step, Some _limit, Some latch -> (
    let sb = Sb.of_loop l in
    let latch_pos = find_latch_pos sb latch in
    match latch_pos, Dom.end_position sb with
    | Some latch_pos, Some branch_pos -> (
      let branch =
        match Sb.insn sb branch_pos with Some i -> i | None -> assert false
      in
      if not (Sb.is_back_branch sb branch) then keep ()
      else begin
        (* Counter uses: exactly its own increment and the back-branch. *)
        let inc_pos = ref None in
        let other_use = ref false in
        Sb.iter_insns
          (fun p i ->
            let uses_c = List.exists (Reg.equal counter) (Insn.uses i) in
            let defs_c = List.exists (Reg.equal counter) (Insn.defs i) in
            if defs_c then begin
              match i.Insn.op, !inc_pos with
              | Insn.IBin Insn.Add, None
                when Operand.equal i.Insn.srcs.(0) (Operand.Reg counter)
                     && Operand.equal i.Insn.srcs.(1) (Operand.Int step) ->
                inc_pos := Some p
              | _ -> other_use := true
            end
            else if uses_c && p <> branch_pos then other_use := true)
          sb;
        let lv = Linval.analyze sb in
        (* A derived induction register updated in the latch region. *)
        let derived = ref None in
        Sb.iter_insns
          (fun p i ->
            if p > latch_pos && p < branch_pos then
              match i.Insn.op, i.Insn.dst with
              | Insn.IBin Insn.Add, Some w
                when (not (Reg.equal w counter))
                     && Operand.equal i.Insn.srcs.(0) (Operand.Reg w) -> (
                match i.Insn.srcs.(1) with
                | Operand.Int dw
                  when dw <> 0 && step <> 0 && dw mod step = 0
                       && Linval.iv_step lv w = Some dw
                       && !derived = None ->
                  (* w must be used outside the latch region, otherwise it
                     is itself dead weight. *)
                  let used_elsewhere = ref false in
                  Sb.iter_insns
                    (fun q j ->
                      if q <> p && List.exists (Reg.equal w) (Insn.uses j) then
                        used_elsewhere := true)
                    sb;
                  if !used_elsewhere then derived := Some (w, dw)
                | _ -> ())
              | _ -> ())
          sb;
        match !other_use, !inc_pos, !derived with
        | false, Some _, Some (w, dw) -> (
          let k = dw / step in
          let limit = branch.Insn.srcs.(1) in
          match branch.Insn.op with
          | Insn.Br (Reg.Int, cmp)
            when Operand.equal branch.Insn.srcs.(0) (Operand.Reg counter)
                 && (cmp = Insn.Le || cmp = Insn.Ge) ->
            (* wlim = w0 + k * (limit - c0), computed in the preheader. *)
            let t1 = Reg.fresh ctx.Prog.rgen Reg.Int in
            let t2 = Reg.fresh ctx.Prog.rgen Reg.Int in
            let wlim = Reg.fresh ctx.Prog.rgen Reg.Int in
            let pre_code =
              [
                Build.ib ctx Insn.Sub t1 limit (Operand.Reg counter);
                Build.ib ctx Insn.Mul t2 (Operand.Reg t1) (Operand.Int k);
                Build.ib ctx Insn.Add wlim (Operand.Reg w) (Operand.Reg t2);
              ]
            in
            let cmp' = if k > 0 then cmp else (match cmp with
              | Insn.Le -> Insn.Ge
              | Insn.Ge -> Insn.Le
              | c -> c)
            in
            let new_branch =
              Build.br ctx Reg.Int cmp' (Operand.Reg w) (Operand.Reg wlim) l.Block.head
            in
            let body =
              List.mapi
                (fun p item -> if p = branch_pos then Block.Ins new_branch else item)
                (Array.to_list sb.Sb.items)
            in
            let meta =
              {
                meta with
                Block.counter = Some w;
                step = Some dw;
                limit = Some (Operand.Reg wlim);
              }
            in
            pre
            @ List.map (fun i -> Block.Ins i) pre_code
            @ [ Block.Loop { l with Block.meta; body } ]
          | _ -> keep ())
        | _ -> keep ()
      end)
    | _ -> keep ())
  | _ -> keep ()

let reduce (p : Prog.t) : Prog.t =
  Impact_obs.Obs.span ~cat:"opt" "opt.ivopt.reduce" @@ fun () ->
  Walk.rewrite_innermost_with_preheader (reduce_loop p.Prog.ctx) p

let eliminate (p : Prog.t) : Prog.t =
  Impact_obs.Obs.span ~cat:"opt" "opt.ivopt.eliminate" @@ fun () ->
  Walk.rewrite_innermost_with_preheader (eliminate_loop p.Prog.ctx) p
