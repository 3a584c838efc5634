(* Operation combining (paper Section 2, after Nakatani & Ebcioglu): a
   flow dependence between two instructions that each carry a
   compile-time-constant operand is eliminated by substituting the
   producer's non-constant operand into the consumer and folding the
   constants:

       I1: r1 = r2 op1 C1
       I2: r3 = r1 op2 C2   ==>   r3 = r2 op2' (C1 op3 C2)

   Combinable pairs follow the paper's table: integer add/sub feed
   add/sub/compare/branch/load/store; integer multiplies feed multiplies;
   FP add/sub feed add/sub/compare/branch; FP mul/div feed mul/div.
   Memory consumers absorb the constant into their displacement operand.

   When I1's destination equals its source (e.g. [r1 = r1 + 4] feeding a
   later load), the two instructions exchange positions, which is only
   done for adjacent pairs. *)

open Impact_ir
open Impact_analysis

type producer =
  | PIntAdd of Operand.t * int  (* r1 = src + c *)
  | PIntMul of Operand.t * int
  | PFltAdd of Operand.t * float
  | PFltMul of Operand.t * float
  | PFltDivNum of float * Operand.t  (* r1 = c / src *)
  | PFltDivDen of Operand.t * float  (* r1 = src / c *)

(* Exactly one of the operands is the given kind of constant. *)
let split_int a b =
  match a, b with
  | Operand.Int c, o when not (Operand.is_const o) -> Some (o, c)
  | o, Operand.Int c when not (Operand.is_const o) -> Some (o, c)
  | _ -> None

let split_flt a b =
  match a, b with
  | Operand.Flt c, o when not (Operand.is_const o) -> Some (o, c)
  | o, Operand.Flt c when not (Operand.is_const o) -> Some (o, c)
  | _ -> None

let producer_of (i : Insn.t) : (Reg.t * producer) option =
  match i.Insn.op, i.Insn.dst with
  | Insn.IBin Insn.Add, Some d -> (
    match split_int i.Insn.srcs.(0) i.Insn.srcs.(1) with
    | Some (o, c) -> Some (d, PIntAdd (o, c))
    | None -> None)
  | Insn.IBin Insn.Sub, Some d -> (
    match i.Insn.srcs.(0), i.Insn.srcs.(1) with
    | o, Operand.Int c when not (Operand.is_const o) -> Some (d, PIntAdd (o, -c))
    | _ -> None)
  | Insn.IBin Insn.Mul, Some d -> (
    match split_int i.Insn.srcs.(0) i.Insn.srcs.(1) with
    | Some (o, c) -> Some (d, PIntMul (o, c))
    | None -> None)
  | Insn.FBin Insn.Fadd, Some d -> (
    match split_flt i.Insn.srcs.(0) i.Insn.srcs.(1) with
    | Some (o, c) -> Some (d, PFltAdd (o, c))
    | None -> None)
  | Insn.FBin Insn.Fsub, Some d -> (
    match i.Insn.srcs.(0), i.Insn.srcs.(1) with
    | o, Operand.Flt c when not (Operand.is_const o) -> Some (d, PFltAdd (o, -.c))
    | _ -> None)
  | Insn.FBin Insn.Fmul, Some d -> (
    match split_flt i.Insn.srcs.(0) i.Insn.srcs.(1) with
    | Some (o, c) -> Some (d, PFltMul (o, c))
    | None -> None)
  | Insn.FBin Insn.Fdiv, Some d -> (
    match i.Insn.srcs.(0), i.Insn.srcs.(1) with
    | Operand.Flt c, o when not (Operand.is_const o) -> Some (d, PFltDivNum (c, o))
    | o, Operand.Flt c when not (Operand.is_const o) -> Some (d, PFltDivDen (o, c))
    | _ -> None)
  | _ -> None

let uses_reg (o : Operand.t) r = match o with Operand.Reg x -> Reg.equal x r | _ -> false

(* Rewrite consumer [i] assuming register [r1] holds [producer]; returns
   the combined instruction, or None when the pair is not combinable. *)
let combine_consumer ctx (r1 : Reg.t) (p : producer) (i : Insn.t) : Insn.t option =
  let s0 () = i.Insn.srcs.(0) and s1 () = i.Insn.srcs.(1) in
  match p with
  | PIntAdd (src, c1) -> (
    match i.Insn.op with
    | Insn.IBin Insn.Add -> (
      match s0 (), s1 () with
      | o, Operand.Int c2 when uses_reg o r1 ->
        Some (Build.ib ctx Insn.Add (Option.get i.Insn.dst) src (Operand.Int (c1 + c2)))
      | Operand.Int c2, o when uses_reg o r1 ->
        Some (Build.ib ctx Insn.Add (Option.get i.Insn.dst) src (Operand.Int (c1 + c2)))
      | _ -> None)
    | Insn.IBin Insn.Sub -> (
      match s0 (), s1 () with
      | o, Operand.Int c2 when uses_reg o r1 ->
        Some (Build.ib ctx Insn.Add (Option.get i.Insn.dst) src (Operand.Int (c1 - c2)))
      | Operand.Int c2, o when uses_reg o r1 ->
        Some (Build.ib ctx Insn.Sub (Option.get i.Insn.dst) (Operand.Int (c2 - c1)) src)
      | _ -> None)
    | Insn.Br (Reg.Int, cmp) -> (
      match s0 (), s1 () with
      | o, Operand.Int c2 when uses_reg o r1 ->
        Some (Build.br ctx Reg.Int cmp src (Operand.Int (c2 - c1)) (Option.get i.Insn.target))
      | Operand.Int c2, o when uses_reg o r1 ->
        Some (Build.br ctx Reg.Int cmp (Operand.Int (c2 - c1)) src (Option.get i.Insn.target))
      | _ -> None)
    | Insn.Load cls -> (
      let base = i.Insn.srcs.(0) and off = i.Insn.srcs.(1) in
      let disp = match i.Insn.srcs.(2) with Operand.Int d -> d | _ -> 0 in
      match uses_reg base r1, uses_reg off r1 with
      | true, false ->
        Some (Build.load ctx cls (Option.get i.Insn.dst) ~disp:(disp + c1) src off)
      | false, true ->
        Some (Build.load ctx cls (Option.get i.Insn.dst) ~disp:(disp + c1) base src)
      | _ -> None)
    | Insn.Store cls -> (
      let base = i.Insn.srcs.(0) and off = i.Insn.srcs.(1) in
      let disp = match i.Insn.srcs.(2) with Operand.Int d -> d | _ -> 0 in
      let v = i.Insn.srcs.(3) in
      if uses_reg v r1 then None
      else
        match uses_reg base r1, uses_reg off r1 with
        | true, false -> Some (Build.store ctx cls ~disp:(disp + c1) src off v)
        | false, true -> Some (Build.store ctx cls ~disp:(disp + c1) base src v)
        | _ -> None)
    | _ -> None)
  | PIntMul (src, c1) -> (
    match i.Insn.op with
    | Insn.IBin Insn.Mul -> (
      match s0 (), s1 () with
      | o, Operand.Int c2 when uses_reg o r1 ->
        Some (Build.ib ctx Insn.Mul (Option.get i.Insn.dst) src (Operand.Int (c1 * c2)))
      | Operand.Int c2, o when uses_reg o r1 ->
        Some (Build.ib ctx Insn.Mul (Option.get i.Insn.dst) src (Operand.Int (c1 * c2)))
      | _ -> None)
    | _ -> None)
  | PFltAdd (src, c1) -> (
    match i.Insn.op with
    | Insn.FBin Insn.Fadd -> (
      match s0 (), s1 () with
      | o, Operand.Flt c2 when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fadd (Option.get i.Insn.dst) src (Operand.Flt (c1 +. c2)))
      | Operand.Flt c2, o when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fadd (Option.get i.Insn.dst) src (Operand.Flt (c1 +. c2)))
      | _ -> None)
    | Insn.FBin Insn.Fsub -> (
      match s0 (), s1 () with
      | o, Operand.Flt c2 when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fadd (Option.get i.Insn.dst) src (Operand.Flt (c1 -. c2)))
      | Operand.Flt c2, o when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fsub (Option.get i.Insn.dst) (Operand.Flt (c2 -. c1)) src)
      | _ -> None)
    | Insn.Br (Reg.Float, cmp) -> (
      match s0 (), s1 () with
      | o, Operand.Flt c2 when uses_reg o r1 ->
        Some
          (Build.br ctx Reg.Float cmp src (Operand.Flt (c2 -. c1))
             (Option.get i.Insn.target))
      | Operand.Flt c2, o when uses_reg o r1 ->
        Some
          (Build.br ctx Reg.Float cmp (Operand.Flt (c2 -. c1)) src
             (Option.get i.Insn.target))
      | _ -> None)
    | _ -> None)
  | PFltMul (src, c1) -> (
    match i.Insn.op with
    | Insn.FBin Insn.Fmul -> (
      match s0 (), s1 () with
      | o, Operand.Flt c2 when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fmul (Option.get i.Insn.dst) src (Operand.Flt (c1 *. c2)))
      | Operand.Flt c2, o when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fmul (Option.get i.Insn.dst) src (Operand.Flt (c1 *. c2)))
      | _ -> None)
    | Insn.FBin Insn.Fdiv -> (
      match s0 (), s1 () with
      | o, Operand.Flt c2 when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fmul (Option.get i.Insn.dst) src (Operand.Flt (c1 /. c2)))
      | Operand.Flt c2, o when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fdiv (Option.get i.Insn.dst) (Operand.Flt (c2 /. c1)) src)
      | _ -> None)
    | _ -> None)
  | PFltDivDen (src, c1) -> (
    (* r1 = src / c1 *)
    match i.Insn.op with
    | Insn.FBin Insn.Fmul -> (
      match s0 (), s1 () with
      | o, Operand.Flt c2 when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fmul (Option.get i.Insn.dst) src (Operand.Flt (c2 /. c1)))
      | Operand.Flt c2, o when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fmul (Option.get i.Insn.dst) src (Operand.Flt (c2 /. c1)))
      | _ -> None)
    | Insn.FBin Insn.Fdiv -> (
      match s0 (), s1 () with
      | o, Operand.Flt c2 when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fdiv (Option.get i.Insn.dst) src (Operand.Flt (c1 *. c2)))
      | _ -> None)
    | _ -> None)
  | PFltDivNum (c1, src) -> (
    (* r1 = c1 / src *)
    match i.Insn.op with
    | Insn.FBin Insn.Fmul -> (
      match s0 (), s1 () with
      | o, Operand.Flt c2 when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fdiv (Option.get i.Insn.dst) (Operand.Flt (c1 *. c2)) src)
      | Operand.Flt c2, o when uses_reg o r1 ->
        Some (Build.fb ctx Insn.Fdiv (Option.get i.Insn.dst) (Operand.Flt (c1 *. c2)) src)
      | _ -> None)
    | _ -> None)

let src_reg_of_producer = function
  | PIntAdd (o, _) | PIntMul (o, _) | PFltAdd (o, _) | PFltMul (o, _)
  | PFltDivDen (o, _) | PFltDivNum (_, o) ->
    Operand.as_reg o

(* One combining round over a body; returns the new loop and whether
   anything changed. [uncond] marks the positions that execute on every
   iteration ({!Dom.unconditional}). *)
let round ctx uncond (l : Block.loop) : Block.loop * bool =
  let sb = Sb.of_loop l in
  let n = Sb.length sb in
  (* Every def position of each register id, latest first: the last
     def, the def count and the interference check all read it. *)
  let def_pos : (int, int list) Hashtbl.t = Hashtbl.create 32 in
  Sb.iter_insns
    (fun p i ->
      List.iter
        (fun (r : Reg.t) ->
          Hashtbl.replace def_pos r.Reg.id
            (p :: Option.value ~default:[] (Hashtbl.find_opt def_pos r.Reg.id)))
        (Insn.defs i))
    sb;
  let defs_of (r : Reg.t) = Option.value ~default:[] (Hashtbl.find_opt def_pos r.Reg.id) in
  let defs_between r p1 p2 =
    List.exists
      (fun p ->
        p > p1 && p < p2 && List.exists (Reg.equal r) (Insn.defs (Option.get (Sb.insn sb p))))
      (defs_of r)
  in
  (* Producers by position: unconditional, and the only def of their
     destination. *)
  let producers = Array.make n None in
  Sb.iter_insns
    (fun p i ->
      if uncond.(p) then
        match producer_of i with
        | Some (d, _) as prod when List.length (defs_of d) = 1 -> producers.(p) <- prod
        | _ -> ())
    sb;
  let replace = Array.make n None in
  let swap = Array.make n false in
  let changed = ref false in
  Sb.iter_insns
    (fun p2 i2 ->
      (* The registers [i2] reads from an earlier producer, in
         [Reg.compare] order; the first that combines wins. *)
      let fed =
        List.filter_map
          (fun (r : Reg.t) ->
            match defs_of r with
            | p1 :: _ when p1 < p2 && Option.is_some producers.(p1) -> Some (r, p1)
            | _ -> None)
          (Insn.uses i2)
      in
      if fed <> [] then
        List.iter
          (fun ((r : Reg.t), p1) ->
            if Option.is_none replace.(p2) then
              let d, prod = Option.get producers.(p1) in
              if Reg.equal d r then
                let self_feeding =
                  match src_reg_of_producer prod with
                  | Some s -> Reg.equal s d
                  | None -> false
                in
                (* The producer's source must be unchanged in between. *)
                let src_ok =
                  match src_reg_of_producer prod with
                  | Some s ->
                    if self_feeding then
                      (* Adjacent exchange only, and never past a branch:
                         the producer must still execute on the taken
                         path. *)
                      p2 = p1 + 1 && not (Insn.is_branch i2)
                    else not (defs_between s p1 p2)
                  | None -> true
                in
                if src_ok then
                  match combine_consumer ctx r prod i2 with
                  | Some _ as i2' ->
                    replace.(p2) <- i2';
                    swap.(p2) <- self_feeding;
                    Impact_obs.Obs.count "pass.combine.combined";
                    changed := true
                  | None -> ())
          (List.sort_uniq (fun (a, _) (b, _) -> Reg.compare a b) fed))
    sb;
  if not !changed then (l, false)
  else begin
    (* Apply replacements; swapped consumers move before their producer. *)
    let rec apply p = function
      | [] -> []
      | (Block.Ins _ as i1item) :: (Block.Ins _ :: _ as rest) when swap.(p + 1) ->
        Block.Ins (Option.get replace.(p + 1)) :: i1item :: apply (p + 2) (List.tl rest)
      | (Block.Ins _ as item) :: rest when Option.is_some replace.(p) ->
        if swap.(p) then item :: apply (p + 1) rest
        else Block.Ins (Option.get replace.(p)) :: apply (p + 1) rest
      | item :: rest -> item :: apply (p + 1) rest
    in
    ({ l with Block.body = apply 0 (Array.to_list sb.Sb.items) }, true)
  end

let run (p : Prog.t) : Prog.t =
  let ctx = p.Prog.ctx in
  let transform (l : Block.loop) : Block.loop =
    (* A round keeps every position's control flow: a replaced branch
       keeps its target, and a swap exchanges two non-branch
       instructions. So the unconditional positions of the first round
       hold for every round. *)
    let uncond = Dom.unconditional (Sb.of_loop l) in
    let rec go n l =
      if n = 0 then l
      else
        let l', changed = round ctx uncond l in
        if changed then go (n - 1) l' else l'
    in
    go 24 l
  in
  Prog.with_entry p
    (Block.map_innermost_with_preheader
       (fun pre l -> pre @ [ Block.Loop (transform l) ]) p.Prog.entry)
