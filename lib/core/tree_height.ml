(* Tree height reduction (paper Section 2, Figure 7), after Baer-Bovet,
   applied to intermediate code: maximal single-use chains of
   associative/commutative arithmetic are flattened into leaf lists and
   rebuilt as balanced trees. Only associativity and commutativity are
   used (no distribution). Subtraction contributes negated leaves
   (rebuilt as positive-tree minus negative-tree); division contributes
   inverted leaves (denominator product divided into one numerator early,
   so the long-latency divide overlaps the multiply tree, as in the
   paper's 22 -> 13 cycle example).

   A chain is only rebuilt when the rebuilt critical path is strictly
   shorter. The displaced interior instructions become dead and are
   removed by DCE. *)

open Impact_ir

type group = GIAdd | GFAdd | GIMul | GFMul

let group_of (i : Insn.t) : group option =
  match i.Insn.op with
  | Insn.IBin (Insn.Add | Insn.Sub) -> Some GIAdd
  | Insn.IBin Insn.Mul -> Some GIMul
  | Insn.FBin (Insn.Fadd | Insn.Fsub) -> Some GFAdd
  | Insn.FBin (Insn.Fmul | Insn.Fdiv) -> Some GFMul
  | _ -> None

(* Is the second source slot "inverting" (subtrahend / divisor)? *)
let second_slot_inverts (i : Insn.t) =
  match i.Insn.op with
  | Insn.IBin Insn.Sub | Insn.FBin Insn.Fsub | Insn.FBin Insn.Fdiv -> true
  | _ -> false

let group_combine_lat = function
  | GIAdd -> Machine.latency (Insn.IBin Insn.Add)
  | GIMul -> Machine.latency (Insn.IBin Insn.Mul)
  | GFAdd -> Machine.latency (Insn.FBin Insn.Fadd)
  | GFMul -> Machine.latency (Insn.FBin Insn.Fmul)

(* A leaf with its polarity (negated / inverted). *)
type leaf = { op : Operand.t; inv : bool }

let run (p : Prog.t) : Prog.t =
  let ctx = p.Prog.ctx in
  let process (block : Block.t) : Block.t =
    (* Block-wide def and use counts. *)
    let def_count = Hashtbl.create 32 in
    let use_count = Hashtbl.create 32 in
    let bump tbl (r : Reg.t) =
      Hashtbl.replace tbl r.Reg.id
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r.Reg.id))
    in
    List.iter
      (function
        | Block.Ins i ->
          List.iter (bump def_count) (Insn.defs i);
          List.iter (bump use_count) (Insn.uses i)
        | Block.Lbl _ | Block.Loop _ -> ())
      block;
    let single_def_use (r : Reg.t) =
      Hashtbl.find_opt def_count r.Reg.id = Some 1
      && Hashtbl.find_opt use_count r.Reg.id = Some 1
    in
    (* Process one maximal instruction run. *)
    let process_run (run : Insn.t array) : Insn.t list =
      let n = Array.length run in
      let idx_of_def = Hashtbl.create 16 in
      Array.iteri
        (fun j i ->
          List.iter (fun (r : Reg.t) -> Hashtbl.replace idx_of_def r.Reg.id j) (Insn.defs i))
        run;
      (* Child chain link: operand o of parent (group g) links to insn j
         when o's defining insn is in this run, same group, single
         def/use. *)
      let chain_child g (o : Operand.t) : int option =
        match o with
        | Operand.Reg r when single_def_use r -> (
          match Hashtbl.find_opt idx_of_def r.Reg.id with
          | Some j when group_of run.(j) = Some g -> Some j
          | _ -> None)
        | _ -> None
      in
      let interior = Array.make n false in
      Array.iteri
        (fun _ i ->
          match group_of i with
          | Some g ->
            Array.iter
              (fun o -> match chain_child g o with Some j -> interior.(j) <- true | None -> ())
              i.Insn.srcs
          | None -> ())
        run;
      (* Collect leaves of the chain rooted at index j. *)
      let rec leaves g j ~inv acc_members acc_leaves =
        let i = run.(j) in
        let members = j :: acc_members in
        let slot k slot_inv (members, ls) =
          let o = i.Insn.srcs.(k) in
          let inv' = if slot_inv then not inv else inv in
          match chain_child g o with
          | Some c -> leaves g c ~inv:inv' members ls
          | None -> (members, { op = o; inv = inv' } :: ls)
        in
        (members, acc_leaves) |> slot 0 false |> slot 1 (second_slot_inverts i)
      in
      (* Longest-latency path through the chain, using each instruction's
         actual latency (a divide in a multiply chain costs 10). *)
      let rec old_height g j =
        let i = run.(j) in
        let lat = Machine.latency i.Insn.op in
        let child k =
          match chain_child g i.Insn.srcs.(k) with
          | Some c -> old_height g c
          | None -> 0
        in
        lat + max (child 0) (child 1)
      in
      (* Balanced reduce: repeatedly combine the two earliest-ready
         operands. Returns (code, operand, ready). *)
      let reduce_balanced ~mk ~lat (items : (Operand.t * int) list) =
        let code = ref [] in
        let rec go items =
          match List.sort (fun (_, a) (_, b) -> compare a b) items with
          | [] -> invalid_arg "reduce_balanced: empty"
          | [ (o, r) ] -> (o, r)
          | (o1, r1) :: (o2, r2) :: rest ->
            let d = Reg.fresh ctx.Prog.rgen (match o1, o2 with
              | Operand.Flt _, _ | _, Operand.Flt _ -> Reg.Float
              | Operand.Reg rr, _ -> rr.Reg.cls
              | _, Operand.Reg rr -> rr.Reg.cls
              | _ -> Reg.Int)
            in
            code := !code @ [ mk d o1 o2 ];
            go ((Operand.Reg d, max r1 r2 + lat) :: rest)
        in
        let o, r = go items in
        (!code, o, r)
      in
      (* Rebuild a chain; returns replacement code for the root or None. *)
      let rebuild g (root : Insn.t) (ls : leaf list) : (Insn.t list * int) option =
        let dst = Option.get root.Insn.dst in
        let fls = List.filter (fun l -> not l.inv) ls in
        let ils = List.filter (fun l -> l.inv) ls in
        let lat = group_combine_lat g in
        let items l = List.map (fun lf -> (lf.op, 0)) l in
        match g with
        | GIAdd | GFAdd ->
          let mk d a b =
            if g = GIAdd then Build.ib ctx Insn.Add d a b else Build.fb ctx Insn.Fadd d a b
          in
          let mk_sub d a b =
            if g = GIAdd then Build.ib ctx Insn.Sub d a b else Build.fb ctx Insn.Fsub d a b
          in
          let zero = if g = GIAdd then Operand.Int 0 else Operand.Flt 0.0 in
          if ils = [] then begin
            let code, o, r = reduce_balanced ~mk ~lat (items fls) in
            (* Rewrite the final combine onto the root destination. *)
            match List.rev code with
            | last :: prefix ->
              Some (List.rev prefix @ [ { last with Insn.dst = Some dst } ], r)
            | [] -> (
              match o with
              | _ -> None (* single leaf: nothing to balance *))
          end
          else begin
            let pcode, pop, pr =
              if fls = [] then ([], zero, 0) else reduce_balanced ~mk ~lat (items fls)
            in
            let ncode, nop, nr = reduce_balanced ~mk ~lat (items ils) in
            let final = mk_sub dst pop nop in
            Some (pcode @ ncode @ [ final ], max pr nr + lat)
          end
        | GIMul ->
          (* Integer chains contain only multiplies (no division). *)
          let mk d a b = Build.ib ctx Insn.Mul d a b in
          if ils <> [] then None
          else begin
            let code, _, r = reduce_balanced ~mk ~lat (items fls) in
            match List.rev code with
            | last :: prefix -> Some (List.rev prefix @ [ { last with Insn.dst = Some dst } ], r)
            | [] -> None
          end
        | GFMul ->
          let mk d a b = Build.fb ctx Insn.Fmul d a b in
          let div_lat = Machine.latency (Insn.FBin Insn.Fdiv) in
          if ils = [] then begin
            let code, _, r = reduce_balanced ~mk ~lat (items fls) in
            match List.rev code with
            | last :: prefix -> Some (List.rev prefix @ [ { last with Insn.dst = Some dst } ], r)
            | [] -> None
          end
          else begin
            (* Divide the denominator product into one numerator early so
               the divide overlaps the multiply tree. *)
            let dcode, dop, dr = reduce_balanced ~mk ~lat (items ils) in
            match fls with
            | [] ->
              let final = Build.fb ctx Insn.Fdiv dst (Operand.Flt 1.0) dop in
              Some (dcode @ [ final ], dr + div_lat)
            | n0 :: rest_nums ->
              let q = Reg.fresh ctx.Prog.rgen Reg.Float in
              let qi = Build.fb ctx Insn.Fdiv q n0.op dop in
              let qready = dr + div_lat in
              if rest_nums = [] then
                Some (dcode @ [ { qi with Insn.dst = Some dst } ], qready)
              else begin
                let itemsq =
                  (Operand.Reg q, qready) :: List.map (fun lf -> (lf.op, 0)) rest_nums
                in
                let code, _, r = reduce_balanced ~mk ~lat itemsq in
                match List.rev code with
                | last :: prefix ->
                  Some (dcode @ [ qi ] @ List.rev prefix @ [ { last with Insn.dst = Some dst } ], r)
                | [] -> None
              end
          end
      in
      (* Walk roots and build the replacement map. *)
      let replace : (int, Insn.t list) Hashtbl.t = Hashtbl.create 4 in
      Array.iteri
        (fun j i ->
          match group_of i with
          | Some g when not interior.(j) -> (
            let members, ls = leaves g j ~inv:false [] [] in
            if List.length ls >= 3 then begin
              (* Leaf registers must not be redefined between the first
                 chain member and the root. *)
              let first = List.fold_left min j members in
              let safe =
                List.for_all
                  (fun lf ->
                    match lf.op with
                    | Operand.Reg r ->
                      let clobbered = ref false in
                      for k = first + 1 to j - 1 do
                        if List.exists (Reg.equal r) (Insn.defs run.(k)) then
                          clobbered := true
                      done;
                      not !clobbered
                    | _ -> true)
                  ls
              in
              if safe then
                match rebuild g i ls with
                | Some (code, new_h) when new_h < old_height g j ->
                  Impact_obs.Obs.count "pass.tree_height.reduced";
                  Hashtbl.replace replace j code
                | _ -> ()
            end)
          | _ -> ())
        run;
      List.concat
        (List.mapi
           (fun j i ->
             match Hashtbl.find_opt replace j with Some code -> code | None -> [ i ])
           (Array.to_list run))
    in
    Block.map_runs
      (fun run -> List.map (fun i -> Block.Ins i) (process_run (Array.of_list run)))
      block
  in
  Impact_opt.Walk.rewrite_blocks process p
