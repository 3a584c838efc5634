(* Accumulator variable expansion (paper Figure 2).

   An accumulator register is one that is only modified by
   increment/decrement instructions ([V = V + x] / [V = V - x]) and only
   referenced by those instructions. Each of the k accumulation
   instructions in the (unrolled) body gets its own temporary
   accumulator; the first is initialized to V, the rest to the identity;
   at loop exit the temporaries are summed back into V. This removes all
   flow, anti and output dependences between the accumulation
   instructions — the price is a reordered floating-point reduction.

   Accumulations may sit under guards (a conditionally accumulated sum is
   still a sum), so no unconditionality requirement is imposed. *)

open Impact_ir
open Impact_analysis

(* [V = V op x]: returns the other operand when [i] accumulates into V. *)
let accum_form (v : Reg.t) (i : Insn.t) : bool =
  match i.Insn.op, i.Insn.dst with
  | Insn.IBin Insn.Add, Some d when Reg.equal d v ->
    (* V must appear exactly once among the operands. *)
    let a = i.Insn.srcs.(0) and b = i.Insn.srcs.(1) in
    (match a, b with
    | Operand.Reg r, o when Reg.equal r v -> not (Operand.equal o (Operand.Reg v))
    | o, Operand.Reg r when Reg.equal r v -> not (Operand.equal o (Operand.Reg v))
    | _ -> false)
  | Insn.IBin Insn.Sub, Some d when Reg.equal d v -> (
    match i.Insn.srcs.(0), i.Insn.srcs.(1) with
    | Operand.Reg r, o -> Reg.equal r v && not (Operand.equal o (Operand.Reg v))
    | _ -> false)
  | Insn.FBin Insn.Fadd, Some d when Reg.equal d v -> (
    let a = i.Insn.srcs.(0) and b = i.Insn.srcs.(1) in
    match a, b with
    | Operand.Reg r, o when Reg.equal r v -> not (Operand.equal o (Operand.Reg v))
    | o, Operand.Reg r when Reg.equal r v -> not (Operand.equal o (Operand.Reg v))
    | _ -> false)
  | Insn.FBin Insn.Fsub, Some d when Reg.equal d v -> (
    match i.Insn.srcs.(0), i.Insn.srcs.(1) with
    | Operand.Reg r, o -> Reg.equal r v && not (Operand.equal o (Operand.Reg v))
    | _ -> false)
  | _ -> false

(* Find accumulator registers of a body: every def is an accumulation,
   every use is inside those same accumulations, and there are >= 2. *)
let accumulators (sb : Sb.t) : (Reg.t * int list) list =
  let candidates : (int * Reg.cls, Reg.t * int list * bool) Hashtbl.t = Hashtbl.create 8 in
  Sb.iter_insns
    (fun p i ->
      let touch (r : Reg.t) ~ok =
        let key = (r.Reg.id, r.Reg.cls) in
        let reg, ps, valid =
          Option.value ~default:(r, [], true) (Hashtbl.find_opt candidates key)
        in
        let ps = if ok then p :: ps else ps in
        Hashtbl.replace candidates key (reg, ps, valid && ok)
      in
      let regs_of i =
        List.sort_uniq Reg.compare (Insn.defs i @ Insn.uses i)
      in
      List.iter
        (fun r ->
          if accum_form r i then touch r ~ok:true else touch r ~ok:false)
        (regs_of i))
    sb;
  Hashtbl.fold
    (fun _ (r, ps, valid) acc ->
      if valid && List.length ps >= 2 then (r, List.rev ps) :: acc else acc)
    candidates []
  |> List.sort (fun (a, _) (b, _) -> Reg.compare a b)

let expand_loop ctx (pre : Block.item list) (l : Block.loop) : Block.item list =
  let sb = Sb.of_loop l in
  let accs = accumulators sb in
  if accs = [] then pre @ [ Block.Loop l ]
  else begin
    let pre_code = ref [] in
    let post_code = ref [] in
    (* position -> replacement instruction *)
    let replace : (int, Insn.t) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun ((v : Reg.t), positions) ->
        let k = List.length positions in
        let temps = List.init k (fun _ -> Reg.fresh ctx.Prog.rgen v.Reg.cls) in
        Impact_obs.Obs.count "pass.accum_expand.expanded";
        (* Initialize: first temp to V, the rest to the additive identity. *)
        List.iteri
          (fun j t ->
            let init =
              if j = 0 then
                if v.Reg.cls = Reg.Int then Build.imov ctx t (Operand.Reg v)
                else Build.fmov ctx t (Operand.Reg v)
              else if v.Reg.cls = Reg.Int then Build.imov ctx t (Operand.Int 0)
              else Build.fmov ctx t (Operand.Flt 0.0)
            in
            pre_code := init :: !pre_code)
          temps;
        (* Rewrite each accumulation onto its own temporary. *)
        List.iteri
          (fun j p ->
            let t = List.nth temps j in
            match Sb.insn sb p with
            | None -> assert false
            | Some i ->
              let subst (o : Operand.t) =
                match o with
                | Operand.Reg r when Reg.equal r v -> Operand.Reg t
                | _ -> o
              in
              let srcs = Array.map subst i.Insn.srcs in
              Hashtbl.replace replace p { i with Insn.srcs; dst = Some t })
          positions;
        (* Sum the temporaries back into V at the loop exit. *)
        (match temps with
        | [] -> ()
        | t0 :: rest ->
          let op r a b =
            if v.Reg.cls = Reg.Int then Build.ib ctx Insn.Add r a b
            else Build.fb ctx Insn.Fadd r a b
          in
          match rest with
          | [] -> ()
          | t1 :: more ->
            post_code := !post_code @ [ op v (Operand.Reg t0) (Operand.Reg t1) ];
            List.iter
              (fun t ->
                post_code := !post_code @ [ op v (Operand.Reg v) (Operand.Reg t) ])
              more))
      accs;
    let body =
      List.mapi
        (fun p item ->
          match Hashtbl.find_opt replace p with
          | Some i -> Block.Ins i
          | None -> item)
        (Array.to_list sb.Sb.items)
    in
    Expand_util.insert_before_guard pre ~exit_lbl:l.Block.exit_lbl
      (List.rev !pre_code)
    @ [ Block.Loop { l with Block.body } ]
    @ List.map (fun i -> Block.Ins i) !post_code
  end

let run (p : Prog.t) : Prog.t =
  Prog.with_entry p
    (Block.map_innermost_with_preheader (expand_loop p.Prog.ctx) p.Prog.entry)
