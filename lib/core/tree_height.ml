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

(* Balanced reduce: repeatedly combine the two earliest-ready items (a
   stable sort, so ties keep their order). Each ready time depends on
   the ready times alone, so [height] gives the rebuilt critical path
   without building anything. *)
let rec balance ~lat combine items =
  match List.sort (fun (_, a) (_, b) -> compare a b) items with
  | [] -> invalid_arg "Tree_height.balance: empty"
  | [ x ] -> x
  | (o1, r1) :: (o2, r2) :: rest ->
    balance ~lat combine ((combine o1 o2, max r1 r2 + lat) :: rest)

let height ~lat readies =
  snd (balance ~lat (fun () () -> ()) (List.map (fun r -> ((), r)) readies))

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
        let combine o1 o2 =
          let d = Reg.fresh ctx.Prog.rgen (match o1, o2 with
            | Operand.Flt _, _ | _, Operand.Flt _ -> Reg.Float
            | Operand.Reg rr, _ -> rr.Reg.cls
            | _, Operand.Reg rr -> rr.Reg.cls
            | _ -> Reg.Int)
          in
          code := !code @ [ mk d o1 o2 ];
          Operand.Reg d
        in
        let o, r = balance ~lat combine items in
        (!code, o, r)
      in
      (* A chain's rebuilt height, computed from its leaves alone, and a
         thunk that builds the replacement code for the root; None when
         the group cannot rebuild these leaves. Nothing is built (no
         fresh register or instruction id is taken) until the thunk is
         called. Chains have at least three leaves. *)
      let rebuild g (root : Insn.t) (ls : leaf list) : (int * (unit -> Insn.t list)) option =
        let dst = Option.get root.Insn.dst in
        let fls = List.filter_map (fun l -> if l.inv then None else Some l.op) ls in
        let ils = List.filter_map (fun l -> if l.inv then Some l.op else None) ls in
        let lat = group_combine_lat g in
        let leaf_height ops = height ~lat (List.map (fun _ -> 0) ops) in
        let reduce mk ops = reduce_balanced ~mk ~lat (List.map (fun o -> (o, 0)) ops) in
        (* The final combine writes the root's destination. *)
        let onto_dst code =
          match List.rev code with
          | last :: prefix -> List.rev ({ last with Insn.dst = Some dst } :: prefix)
          | [] -> invalid_arg "Tree_height.rebuild: no combine"
        in
        let tree mk ops () =
          let code, _, _ = reduce mk ops in
          onto_dst code
        in
        match g with
        | GIAdd | GFAdd ->
          let mk d a b =
            if g = GIAdd then Build.ib ctx Insn.Add d a b else Build.fb ctx Insn.Fadd d a b
          in
          let mk_sub d a b =
            if g = GIAdd then Build.ib ctx Insn.Sub d a b else Build.fb ctx Insn.Fsub d a b
          in
          let zero = if g = GIAdd then Operand.Int 0 else Operand.Flt 0.0 in
          if ils = [] then Some (leaf_height fls, tree mk fls)
          else
            let pr = if fls = [] then 0 else leaf_height fls in
            Some
              ( max pr (leaf_height ils) + lat,
                fun () ->
                  let pcode, pop, _ = if fls = [] then ([], zero, 0) else reduce mk fls in
                  let ncode, nop, _ = reduce mk ils in
                  pcode @ ncode @ [ mk_sub dst pop nop ] )
        | GIMul ->
          (* Integer chains contain only multiplies (no division). *)
          if ils <> [] then None else Some (leaf_height fls, tree (Build.ib ctx Insn.Mul) fls)
        | GFMul -> (
          let mk = Build.fb ctx Insn.Fmul in
          let div_lat = Machine.latency (Insn.FBin Insn.Fdiv) in
          if ils = [] then Some (leaf_height fls, tree mk fls)
          else
            (* Divide the denominator product into one numerator early so
               the divide overlaps the multiply tree. *)
            let qready = leaf_height ils + div_lat in
            match fls with
            | [] ->
              Some
                ( qready,
                  fun () ->
                    let dcode, dop, _ = reduce mk ils in
                    dcode @ [ Build.fb ctx Insn.Fdiv dst (Operand.Flt 1.0) dop ] )
            | n0 :: rest_nums ->
              let new_h =
                if rest_nums = [] then qready
                else height ~lat (qready :: List.map (fun _ -> 0) rest_nums)
              in
              Some
                ( new_h,
                  fun () ->
                    let dcode, dop, _ = reduce mk ils in
                    let q = Reg.fresh ctx.Prog.rgen Reg.Float in
                    let qi = Build.fb ctx Insn.Fdiv q n0 dop in
                    if rest_nums = [] then dcode @ [ { qi with Insn.dst = Some dst } ]
                    else
                      let code, _, _ =
                        reduce_balanced ~mk ~lat
                          ((Operand.Reg q, qready) :: List.map (fun o -> (o, 0)) rest_nums)
                      in
                      dcode @ [ qi ] @ onto_dst code ))
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
                | Some (new_h, build) when new_h < old_height g j ->
                  Impact_obs.Obs.count "pass.tree_height.reduced";
                  Hashtbl.replace replace j (build ())
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
