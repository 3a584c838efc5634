(* Search variable expansion (paper Section 2).

   A search register V holds a running maximum/minimum updated by guarded
   moves of the canonical lowered form

       br cmp (x, V) SKIP      ; guard: keep current value
       V = mov x
     SKIP:

   Each of the k update sites in the (unrolled) body gets its own
   temporary search register (initialized to V, an identity for the
   combine); the chain of flow dependences between successive tests
   disappears. At loop exit the temporaries are combined back into V with
   the same guarded-move pattern. *)

open Impact_ir
open Impact_analysis

type site = {
  branch_pos : int;
  mov_pos : int;
  cmp_cls : Reg.cls;
  cmp : Insn.cmp;
  x : Operand.t;  (* the candidate value; also the branch's other operand *)
  v_is_src0 : bool;  (* whether V is operand 0 of the guard comparison *)
}

(* Detect the pattern at position p: branch at p, mov at p+1, label at
   p+2 matching the branch target. *)
let site_at (sb : Sb.t) (v : Reg.t) p : site option =
  if p < 0 || p + 2 >= Sb.length sb then None
  else
  match Sb.insn sb p, Sb.insn sb (p + 1) with
  | Some b, Some m -> (
    match b.Insn.op, m.Insn.op, m.Insn.dst with
    | Insn.Br (cls, cmp), (Insn.IMov | Insn.FMov), Some d
      when Reg.equal d v && b.Insn.target <> None -> (
      match sb.Sb.items.(p + 2) with
      | Block.Lbl lbl when Some lbl = b.Insn.target -> (
        let x = m.Insn.srcs.(0) in
        let s0 = b.Insn.srcs.(0) and s1 = b.Insn.srcs.(1) in
        if Operand.equal s0 (Operand.Reg v) && Operand.equal s1 x && not (Operand.equal x (Operand.Reg v))
        then Some { branch_pos = p; mov_pos = p + 1; cmp_cls = cls; cmp; x; v_is_src0 = true }
        else if Operand.equal s1 (Operand.Reg v) && Operand.equal s0 x && not (Operand.equal x (Operand.Reg v))
        then Some { branch_pos = p; mov_pos = p + 1; cmp_cls = cls; cmp; x; v_is_src0 = false }
        else None)
      | exception Invalid_argument _ -> None
      | _ -> None)
    | _ -> None)
  | _ -> None

(* Search registers: defined only by pattern movs, used only inside the
   corresponding guards, with >= 2 sites. *)
let searches (sb : Sb.t) : (Reg.t * site list) list =
  let defs = Sb.all_defs sb in
  Reg.Set.fold
    (fun v acc ->
      let sites = ref [] in
      let ok = ref true in
      (* Every def of v must be the mov of a site whose guard immediately
         precedes it. *)
      Sb.iter_insns
        (fun p i ->
          if List.exists (Reg.equal v) (Insn.defs i) then
            match site_at sb v (p - 1) with
            | Some s when s.mov_pos = p -> sites := s :: !sites
            | _ -> ok := false)
        sb;
      let sites = List.rev !sites in
      (* Every use of v must be inside one of the site guards. *)
      let allowed_use_positions =
        List.concat_map (fun s -> [ s.branch_pos ]) sites
      in
      Sb.iter_insns
        (fun p i ->
          if List.exists (Reg.equal v) (Insn.uses i) && not (List.mem p allowed_use_positions)
          then ok := false)
        sb;
      if !ok && List.length sites >= 2 then (v, sites) :: acc else acc)
    defs []
  |> List.sort (fun (a, _) (b, _) -> Reg.compare a b)

let expand_loop ctx (pre : Block.item list) (l : Block.loop) : Block.item list =
  let sb = Sb.of_loop l in
  let found = searches sb in
  if found = [] then pre @ [ Block.Loop l ]
  else begin
    let pre_code = ref [] in
    let post_items = ref [] in
    let replace : (int, Insn.t) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun ((v : Reg.t), sites) ->
        let temps = List.map (fun _ -> Reg.fresh ctx.Prog.rgen v.Reg.cls) sites in
        Impact_obs.Obs.count "pass.search_expand.expanded";
        List.iter
          (fun t ->
            let init =
              if v.Reg.cls = Reg.Int then Build.imov ctx t (Operand.Reg v)
              else Build.fmov ctx t (Operand.Reg v)
            in
            pre_code := init :: !pre_code)
          temps;
        List.iter2
          (fun s t ->
            (* Rewrite the guard's V operand and the mov's destination. *)
            (match Sb.insn sb s.branch_pos with
            | Some b ->
              let srcs = Array.copy b.Insn.srcs in
              if s.v_is_src0 then srcs.(0) <- Operand.Reg t else srcs.(1) <- Operand.Reg t;
              Hashtbl.replace replace s.branch_pos { b with Insn.srcs }
            | None -> assert false);
            match Sb.insn sb s.mov_pos with
            | Some m -> Hashtbl.replace replace s.mov_pos { m with Insn.dst = Some t }
            | None -> assert false)
          sites temps;
        (* Combine at exit with the same guarded pattern. *)
        List.iteri
          (fun j t ->
            let s = List.nth sites j in
            let skip = Prog.fresh_label ctx "SE" in
            let a, b =
              if s.v_is_src0 then (Operand.Reg v, Operand.Reg t)
              else (Operand.Reg t, Operand.Reg v)
            in
            let guard = Build.br ctx s.cmp_cls s.cmp a b skip in
            let mv =
              if v.Reg.cls = Reg.Int then Build.imov ctx v (Operand.Reg t)
              else Build.fmov ctx v (Operand.Reg t)
            in
            post_items := !post_items @ [ Block.Ins guard; Block.Ins mv; Block.Lbl skip ])
          temps)
      found;
    let body =
      List.mapi
        (fun p item ->
          match Hashtbl.find_opt replace p with
          | Some i -> Block.Ins i
          | None -> item)
        (Array.to_list sb.Sb.items)
    in
    Expand_util.insert_before_guard pre ~exit_lbl:l.Block.exit_lbl (List.rev !pre_code)
    @ [ Block.Loop { l with Block.body } ]
    @ !post_items
  end

let run (p : Prog.t) : Prog.t =
  Prog.with_entry p
    (Block.map_innermost_with_preheader (expand_loop p.Prog.ctx) p.Prog.entry)
