(* Induction variable expansion (paper Figure 4).

   An induction register is only modified by increment/decrement
   instructions with the same loop-invariant amount, at least twice in
   the (unrolled) body, each increment executing exactly once per
   iteration. k increments give k+1 temporary induction registers
   p = 0..k, initialized in the preheader to V + p*m; references between
   the p-th and (p+1)-th increment use register p; the increments
   themselves are removed and all k+1 temporaries are bumped by z = k*m
   just before each branch back to the loop start. References after that
   bump (the back-branch's own exit test) read register 0, whose
   post-bump value equals the original V at iteration end. *)

open Impact_ir
open Impact_analysis

(* [V = V + c] or [V = V - c] with constant c: returns c (signed). *)
let inc_form (v : Reg.t) (i : Insn.t) : int option =
  match i.Insn.op, i.Insn.dst with
  | Insn.IBin Insn.Add, Some d
    when Reg.equal d v && Operand.equal i.Insn.srcs.(0) (Operand.Reg v) -> (
    match i.Insn.srcs.(1) with Operand.Int c -> Some c | _ -> None)
  | Insn.IBin Insn.Add, Some d
    when Reg.equal d v && Operand.equal i.Insn.srcs.(1) (Operand.Reg v) -> (
    match i.Insn.srcs.(0) with Operand.Int c -> Some c | _ -> None)
  | Insn.IBin Insn.Sub, Some d
    when Reg.equal d v && Operand.equal i.Insn.srcs.(0) (Operand.Reg v) -> (
    match i.Insn.srcs.(1) with Operand.Int c -> Some (-c) | _ -> None)
  | _ -> None

(* Induction registers: every def is an inc by the same constant, all
   unconditional, k >= 2. Returns (V, inc positions, m). *)
let inductions (sb : Sb.t) : (Reg.t * int list * int) list =
  let uncond = Dom.unconditional sb in
  let info : (int, Reg.t * int list * int option * bool) Hashtbl.t = Hashtbl.create 8 in
  Sb.iter_insns
    (fun p i ->
      List.iter
        (fun (r : Reg.t) ->
          if r.Reg.cls = Reg.Int then begin
            let reg, ps, m, valid =
              Option.value ~default:(r, [], None, true) (Hashtbl.find_opt info r.Reg.id)
            in
            let entry =
              match inc_form r i with
              | Some c when uncond.(p) -> (
                match m with
                | None -> (reg, p :: ps, Some c, valid)
                | Some m0 when m0 = c -> (reg, p :: ps, m, valid)
                | Some _ -> (reg, ps, m, false))
              | _ -> (reg, ps, m, false)
            in
            Hashtbl.replace info r.Reg.id entry
          end)
        (Insn.defs i))
    sb;
  Hashtbl.fold
    (fun _ (r, ps, m, valid) acc ->
      match m with
      | Some m when valid && List.length ps >= 2 -> (r, List.rev ps, m) :: acc
      | _ -> acc)
    info []
  |> List.sort (fun (a, _, _) (b, _, _) -> Reg.compare a b)

let expand_loop ctx (pre : Block.item list) (l : Block.loop) : Block.item list =
  let sb = Sb.of_loop l in
  let ivs = inductions sb in
  if ivs = [] then pre @ [ Block.Loop l ]
  else begin
    let n = Sb.length sb in
    let pre_code = ref [] in
    let post_code = ref [] in
    (* Per item position: what to emit instead (deleted incs, rewrites). *)
    let delete : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    (* Per-register region naming: list of (start_pos_exclusive, temp). *)
    let region_temps : (int, (int list * Reg.t array)) Hashtbl.t = Hashtbl.create 8 in
    let bump_code = ref [] in
    List.iter
      (fun ((v : Reg.t), positions, m) ->
        let k = List.length positions in
        let temps = Array.init (k + 1) (fun _ -> Reg.fresh ctx.Prog.rgen Reg.Int) in
        Impact_obs.Obs.count "pass.ind_expand.expanded";
        (* Initialization: temp_p = V + p*m. *)
        Array.iteri
          (fun p t ->
            let init =
              if p = 0 then Build.imov ctx t (Operand.Reg v)
              else Build.ib ctx Insn.Add t (Operand.Reg v) (Operand.Int (p * m))
            in
            pre_code := init :: !pre_code)
          temps;
        List.iter (fun p -> Hashtbl.replace delete p ()) positions;
        Hashtbl.replace region_temps v.Reg.id (positions, temps);
        (* Bump all temporaries by z = k*m before each back-branch. *)
        Array.iter
          (fun t ->
            bump_code :=
              Build.ib ctx Insn.Add t (Operand.Reg t) (Operand.Int (k * m))
              :: !bump_code)
          temps;
        (* Restore V's exit value. *)
        post_code := Build.imov ctx v (Operand.Reg temps.(0)) :: !post_code)
      ivs;
    let bump_code = List.rev !bump_code in
    (* Temp index for a reference to V at position p: the number of
       (deleted) increments before p. After the bumps (i.e. at the
       back-branch itself) references read temp_0. *)
    let temp_for positions (temps : Reg.t array) p ~at_back =
      if at_back then temps.(0)
      else begin
        let idx = List.length (List.filter (fun q -> q < p) positions) in
        temps.(min idx (Array.length temps - 1))
      end
    in
    let body =
      List.concat
        (List.mapi
           (fun p item ->
             match item with
             | Block.Lbl _ | Block.Loop _ -> [ item ]
             | Block.Ins i ->
               if Hashtbl.mem delete p then []
               else begin
                 let at_back = Sb.is_back_branch sb i in
                 let subst (o : Operand.t) =
                   match o with
                   | Operand.Reg r when r.Reg.cls = Reg.Int -> (
                     match Hashtbl.find_opt region_temps r.Reg.id with
                     | Some (positions, temps) ->
                       Operand.Reg (temp_for positions temps p ~at_back)
                     | None -> o)
                   | _ -> o
                 in
                 let i = { i with Insn.srcs = Array.map subst i.Insn.srcs } in
                 if at_back then
                   List.map (fun b -> Block.Ins b) bump_code @ [ Block.Ins i ]
                 else [ Block.Ins i ]
               end)
           (Array.to_list sb.Sb.items));
    in
    ignore n;
    Expand_util.insert_before_guard pre ~exit_lbl:l.Block.exit_lbl (List.rev !pre_code)
    @ [ Block.Loop { l with Block.body } ]
    @ List.map (fun b -> Block.Ins b) (List.rev !post_code)
  end

let run (p : Prog.t) : Prog.t =
  Prog.with_entry p
    (Block.map_innermost_with_preheader (expand_loop p.Prog.ctx) p.Prog.entry)
