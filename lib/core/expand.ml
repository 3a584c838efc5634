(* Variable expansion, the paper's Lev4 (Section 2): accumulator
   (Figure 2), induction (Figure 4) and search variable expansion.

   The three share one skeleton. A detector finds the registers of an
   innermost loop body whose every occurrence fits its pattern, at
   least twice, and plans each one: the initialization of its
   temporaries, a rewrite of each body instruction, and the code that
   restores the register at the loop exit. The driver applies the plans
   loop by loop.

   The initializations go before a zero-remaining-trip guard that skips
   the loop: the exit code sits at the guard's target, and with the
   temporaries initialized it is an identity when the body never runs. *)

open Impact_ir
open Impact_analysis

type plan = {
  init : Insn.t list;  (* preheader code, before the trip guard *)
  rewrite : int -> Insn.t -> Block.item list;  (* a body instruction, by position *)
  exit : Block.item list;  (* after the loop *)
}

(* The registers of [regs i] whose every occurrence fits: [fit r p i]
   gives the site [r] forms at position [p], or [None], which drops [r].
   Registers with at least two sites, in register order, each with its
   sites in body order. *)
let candidates (sb : Sb.t) ~regs ~fit =
  let sites : (Reg.t, _ list option) Hashtbl.t = Hashtbl.create 8 in
  Sb.iter_insns
    (fun p i ->
      List.iter
        (fun r ->
          let ss =
            match Hashtbl.find_opt sites r with
            | Some None -> None
            | Some (Some ss) -> Option.map (fun s -> s :: ss) (fit r p i)
            | None -> Option.map (fun s -> [ s ]) (fit r p i)
          in
          Hashtbl.replace sites r ss)
        (regs i))
    sb;
  Hashtbl.fold
    (fun r ss acc ->
      match ss with Some (_ :: _ :: _ as ss) -> (r, List.rev ss) :: acc | _ -> acc)
    sites []
  |> List.sort (fun (a, _) (b, _) -> Reg.compare a b)

let ins code = List.map (fun i -> Block.Ins i) code

(* Accumulator expansion. An accumulator is only modified by
   [V = V + x] / [V = V - x] and only referenced there. Each of the k
   accumulations gets its own temporary, the first initialized to V and
   the rest to zero; at loop exit they are summed back into V. This
   removes every flow, anti and output dependence between the
   accumulations, at the price of a reordered floating-point reduction.
   Accumulations may sit under guards: a conditional sum is still a
   sum. *)

(* [V = V + x], [x + V] or [V - x], with V not in x. *)
let accum_form (v : Reg.t) (i : Insn.t) =
  let is_v o = Operand.equal o (Operand.Reg v) in
  match i.Insn.op, i.Insn.dst with
  | (Insn.IBin Insn.Add | Insn.FBin Insn.Fadd), Some d when Reg.equal d v ->
    is_v i.Insn.srcs.(0) <> is_v i.Insn.srcs.(1)
  | (Insn.IBin Insn.Sub | Insn.FBin Insn.Fsub), Some d when Reg.equal d v ->
    is_v i.Insn.srcs.(0) && not (is_v i.Insn.srcs.(1))
  | _ -> false

let accum_plans ctx sb =
  candidates sb
    ~regs:(fun i -> List.sort_uniq Reg.compare (Insn.defs i @ Insn.uses i))
    ~fit:(fun v p i -> if accum_form v i then Some p else None)
  |> List.map (fun ((v : Reg.t), positions) ->
         let temps = List.map (fun _ -> Reg.fresh ctx.Prog.rgen v.Reg.cls) positions in
         Impact_obs.Obs.count "pass.accum_expand.expanded";
         let zero = if v.Reg.cls = Reg.Int then Operand.Int 0 else Operand.Flt 0.0 in
         let init =
           List.mapi (fun j t -> Build.mov ctx t (if j = 0 then Operand.Reg v else zero)) temps
         in
         let slots = List.combine positions temps in
         let rewrite p (i : Insn.t) =
           match List.assoc_opt p slots with
           | None -> [ Block.Ins i ]
           | Some t ->
             let subst o = if Operand.equal o (Operand.Reg v) then Operand.Reg t else o in
             [ Block.Ins { i with Insn.srcs = Array.map subst i.Insn.srcs; dst = Some t } ]
         in
         let add a b =
           if v.Reg.cls = Reg.Int then Build.ib ctx Insn.Add v a b
           else Build.fb ctx Insn.Fadd v a b
         in
         let exit =
           match temps with
           | t0 :: t1 :: more ->
             let first = add (Operand.Reg t0) (Operand.Reg t1) in
             first :: List.map (fun t -> add (Operand.Reg v) (Operand.Reg t)) more
           | _ -> []
         in
         { init; rewrite; exit = ins exit })

(* Induction expansion. An induction register is only modified by
   unconditional increments by one constant m, at least twice. k
   increments give k+1 temporaries, temp p initialized to V + p*m; a
   reference between the p-th and (p+1)-th increment reads temp p. The
   increments go, and every temporary is bumped by k*m just before each
   branch back to the loop start; the back-branch itself, after the
   bumps, reads temp 0, which then equals V at the end of the iteration
   and is V at loop exit. *)

(* [V = V + c], [c + V] or [V - c]: the signed step. *)
let inc_form (v : Reg.t) (i : Insn.t) =
  let is_v o = Operand.equal o (Operand.Reg v) in
  match i.Insn.op, i.Insn.dst, i.Insn.srcs with
  | Insn.IBin Insn.Add, Some d, [| a; Operand.Int c |] when Reg.equal d v && is_v a -> Some c
  | Insn.IBin Insn.Add, Some d, [| Operand.Int c; b |] when Reg.equal d v && is_v b -> Some c
  | Insn.IBin Insn.Sub, Some d, [| a; Operand.Int c |] when Reg.equal d v && is_v a ->
    Some (-c)
  | _ -> None

let induction_plans ctx sb =
  let uncond = Dom.unconditional sb in
  candidates sb ~regs:Insn.defs ~fit:(fun v p i ->
      if uncond.(p) then Option.map (fun c -> (p, c)) (inc_form v i) else None)
  |> List.filter_map (fun (v, sites) ->
         match sites with
         | (_, m) :: rest when List.for_all (fun (_, c) -> c = m) rest ->
           Some (v, List.map fst sites, m)
         | _ -> None)
  |> List.map (fun ((v : Reg.t), positions, m) ->
         let k = List.length positions in
         let temps = Array.init (k + 1) (fun _ -> Reg.fresh ctx.Prog.rgen Reg.Int) in
         Impact_obs.Obs.count "pass.ind_expand.expanded";
         let init =
           List.init (k + 1) (fun p ->
               if p = 0 then Build.imov ctx temps.(0) (Operand.Reg v)
               else Build.ib ctx Insn.Add temps.(p) (Operand.Reg v) (Operand.Int (p * m)))
         in
         let bumps =
           List.map
             (fun t -> Build.ib ctx Insn.Add t (Operand.Reg t) (Operand.Int (k * m)))
             (Array.to_list temps)
         in
         let rewrite p (i : Insn.t) =
           if List.mem p positions then []
           else
             let at_back = Sb.is_back_branch sb i in
             let t =
               if at_back then temps.(0)
               else temps.(List.length (List.filter (fun q -> q < p) positions))
             in
             let subst o = if Operand.equal o (Operand.Reg v) then Operand.Reg t else o in
             let i = { i with Insn.srcs = Array.map subst i.Insn.srcs } in
             ins (if at_back then bumps @ [ i ] else [ i ])
         in
         let exit = [ Block.Ins (Build.imov ctx v (Operand.Reg temps.(0))) ] in
         { init; rewrite; exit })

(* Search expansion. A search register holds a running maximum or
   minimum, updated by guarded moves of the canonical lowered form

       br cmp (x, V) SKIP      ; guard: keep the current value
       V = mov x
     SKIP:

   Each of the k update sites gets its own temporary, initialized to V
   (an identity for the combine), so the chain of flow dependences
   between successive tests disappears. At loop exit the temporaries
   are combined back into V with the same guarded move. *)

(* A guard at [pos] and its move at [pos + 1]; [v_first]: V is the
   guard's operand 0. *)
type site = { pos : int; cls : Reg.cls; cmp : Insn.cmp; v_first : bool }

let site_at (sb : Sb.t) (v : Reg.t) p : site option =
  if p < 0 || p + 2 >= Sb.length sb then None
  else
    match Sb.insn sb p, Sb.insn sb (p + 1), sb.Sb.items.(p + 2) with
    | ( Some ({ Insn.op = Insn.Br (cls, cmp); _ } as b),
        Some ({ Insn.op = (Insn.IMov | Insn.FMov); dst = Some d; _ } as m),
        Block.Lbl lbl )
      when Reg.equal d v && b.Insn.target = Some lbl ->
      let is_v o = Operand.equal o (Operand.Reg v) in
      let x = m.Insn.srcs.(0) and s0 = b.Insn.srcs.(0) and s1 = b.Insn.srcs.(1) in
      if is_v x then None
      else if is_v s0 && Operand.equal s1 x then Some { pos = p; cls; cmp; v_first = true }
      else if is_v s1 && Operand.equal s0 x then Some { pos = p; cls; cmp; v_first = false }
      else None
    | _ -> None

let search_plans ctx sb =
  (* Every def of V is the move of a site, and every use one of their
     guards. *)
  candidates sb ~regs:Insn.defs ~fit:(fun v p _ -> site_at sb v (p - 1))
  |> List.filter (fun (v, sites) ->
         let ok = ref true in
         Sb.iter_insns
           (fun p i ->
             if List.exists (Reg.equal v) (Insn.uses i)
                && not (List.exists (fun s -> s.pos = p) sites)
             then ok := false)
           sb;
         !ok)
  |> List.map (fun ((v : Reg.t), sites) ->
         let temps = List.map (fun _ -> Reg.fresh ctx.Prog.rgen v.Reg.cls) sites in
         Impact_obs.Obs.count "pass.search_expand.expanded";
         let init = List.map (fun t -> Build.mov ctx t (Operand.Reg v)) temps in
         let slots = List.combine sites temps in
         let rewrite p (i : Insn.t) =
           match List.find_opt (fun (s, _) -> p = s.pos || p = s.pos + 1) slots with
           | None -> [ Block.Ins i ]
           | Some (s, t) when p = s.pos ->
             let srcs = Array.copy i.Insn.srcs in
             srcs.(if s.v_first then 0 else 1) <- Operand.Reg t;
             [ Block.Ins { i with Insn.srcs } ]
           | Some (_, t) -> [ Block.Ins { i with Insn.dst = Some t } ]
         in
         let exit =
           List.concat_map
             (fun (s, t) ->
               let skip = Prog.fresh_label ctx "SE" in
               let a, b =
                 if s.v_first then (Operand.Reg v, Operand.Reg t)
                 else (Operand.Reg t, Operand.Reg v)
               in
               let guard = Build.br ctx s.cls s.cmp a b skip in
               let mv = Build.mov ctx v (Operand.Reg t) in
               [ Block.Ins guard; Block.Ins mv; Block.Lbl skip ])
             slots
         in
         { init; rewrite; exit })

(* One loop: every plan rewrites each body instruction in turn (the
   registers of two plans never share a position), the inits go before
   a trailing guard branch to the loop exit, and the exit code after the
   loop. *)
let expand_loop detect ctx (pre : Block.item list) (l : Block.loop) : Block.item list =
  match detect ctx (Sb.of_loop l) with
  | [] -> pre @ [ Block.Loop l ]
  | plans ->
    let rewrite p item =
      List.fold_left
        (fun items plan ->
          List.concat_map (function Block.Ins i -> plan.rewrite p i | it -> [ it ]) items)
        [ item ] plans
    in
    let body = List.concat (List.mapi rewrite l.Block.body) in
    let init = ins (List.concat_map (fun plan -> plan.init) plans) in
    let pre =
      match List.rev pre with
      | Block.Ins g :: rest
        when Insn.is_cond_branch g && g.Insn.target = Some l.Block.exit_lbl ->
        List.rev_append rest (init @ [ Block.Ins g ])
      | _ -> pre @ init
    in
    pre @ [ Block.Loop { l with Block.body } ] @ List.concat_map (fun plan -> plan.exit) plans

let run detect (p : Prog.t) : Prog.t =
  Prog.with_entry p
    (Block.map_innermost_with_preheader (expand_loop detect p.Prog.ctx) p.Prog.entry)

let accum = run accum_plans
let induction = run induction_plans
let search = run search_plans
