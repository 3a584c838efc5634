(* Reference dependence edges for the differential tests: the
   construction [Ddg.build] and [Ddg.modulo_edges] replaced.

   [build] is the former [Ddg.build] up to its raw edge list, tagged by
   kind: per-register [Hashtbl]s, [Insn.uses] lists, and a [may_alias]
   that subtracts addresses with [Linval.sub]. [carried] is the former
   [Ddg.carried], with its per-register position lists and its own
   [Linval.analyze]. [pipe_edges] is the former [Pipe.build_edges]: the
   Flow/Mem edges of [build] reduced to the max latency per pair through
   a polymorphic table, plus [carried] with latencies clamped to 1, in a
   polymorphic sort. *)

open Impact_ir
open Impact_analysis
module Pipe = Impact_pipe.Pipe

type kind = Flow | Anti | Output | Mem | Ctrl

type edge = { esrc : int; edst : int; kind : kind; lat : int }

type t = { sb : Sb.t; edges : edge list }

(* Conservative default: every destination is considered live at every
   branch target, i.e. no speculation. *)
let no_speculation : Insn.t -> Reg.Set.t option = fun _ -> None

let build ?(live_at_target = no_speculation) ?(pre_env = Reg.Map.empty) (sb : Sb.t) : t =
  let n = Sb.length sb in
  let edges = ref [] in
  let add esrc edst kind lat =
    if esrc <> edst then edges := { esrc; edst; kind; lat } :: !edges
  in
  let lv = Linval.analyze sb in
  let last_def : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let uses_since : (int, int list) Hashtbl.t = Hashtbl.create 32 in
  (* (position, instruction, live set at its target or None) *)
  let branches : (int * Insn.t * Reg.Set.t option) list ref = ref [] in
  let stores_since_branch : int list ref = ref [] in
  (* (position, destination) of earlier register-writing instructions:
     a later branch pins every one whose destination is live at its
     target (on the taken path the write must already have happened). *)
  let defs_so_far : (int * Reg.t) list ref = ref [] in
  (* (position, is store, address, base operand, single array label) *)
  let mem_ops : (int * bool * Linval.lin option * Operand.t * string option) list ref =
    ref []
  in
  let insn_positions = Sb.insn_positions sb in
  let last_insn_pos = match List.rev insn_positions with [] -> -1 | p :: _ -> p in
  let syntactic_disjoint b1 b2 =
    match b1, b2 with
    | Operand.Lab a, Operand.Lab b -> a <> b
    | _ -> false
  in
  (* Fall back to preheader facts when body-local symbolic values cannot
     relate two addresses: if their difference is invariant across
     iterations and the preheader makes it a constant, that constant
     decides aliasing for every iteration. *)
  let preheader_distance a1 a2 =
    match a1, a2 with
    | Some x, Some y ->
      let d = Linval.sub x y in
      if Linval.lin_step lv d <> Some 0 then None
      else
        let d' = Linval.subst pre_env d in
        if Linval.is_const d' then Some d'.Linval.c else None
    | _ -> None
  in
  let may_alias (a1 : Linval.lin option) (b1 : Operand.t) a2 b2 =
    match Linval.relation a1 a2 with
    | Linval.Disjoint -> false
    | Linval.Same -> true
    | Linval.May -> (
      match preheader_distance a1 a2 with
      | Some 0 -> true
      | Some _ -> false
      | None -> not (syntactic_disjoint b1 b2))
  in
  Array.iteri
    (fun p item ->
      match item with
      | Block.Loop _ -> invalid_arg "Ddg.build: nested loop"
      | Block.Lbl _ -> ()
      | Block.Ins i ->
        let lat_of = Machine.latency in
        (* Register flow dependences: uses before defs. *)
        List.iter
          (fun (r : Reg.t) ->
            (match Hashtbl.find_opt last_def r.Reg.id with
            | Some d -> (
              match Sb.insn sb d with
              | Some di -> add d p Flow (lat_of di.Insn.op)
              | None -> ())
            | None -> ());
            let us = Option.value ~default:[] (Hashtbl.find_opt uses_since r.Reg.id) in
            Hashtbl.replace uses_since r.Reg.id (p :: us))
          (Insn.uses i);
        List.iter
          (fun (r : Reg.t) ->
            List.iter
              (fun u -> add u p Anti 0)
              (Option.value ~default:[] (Hashtbl.find_opt uses_since r.Reg.id));
            (match Hashtbl.find_opt last_def r.Reg.id with
            | Some d -> add d p Output 0
            | None -> ());
            Hashtbl.replace last_def r.Reg.id p;
            Hashtbl.replace uses_since r.Reg.id [])
          (Insn.defs i);
        (* Memory dependences. *)
        if Insn.is_mem i then begin
          let addr = Linval.address lv p in
          let base = i.Insn.srcs.(0) in
          let st = Insn.is_store i in
          let lab = Option.bind addr Linval.label_of_addr in
          (* Addresses on two different single array labels never alias:
             each side has its label at coefficient 1, so their
             difference is never constant and [Linval.relation] answers
             [Disjoint]. Skip [may_alias] for such pairs. *)
          let other_array qlab =
            match lab, qlab with Some a, Some b -> a <> b | _ -> false
          in
          List.iter
            (fun (q, qst, qaddr, qbase, qlab) ->
              if (st || qst) && (not (other_array qlab)) && may_alias qaddr qbase addr base
              then add q p Mem (if qst then 1 else 0))
            !mem_ops;
          mem_ops := (p, st, addr, base, lab) :: !mem_ops
        end;
        (* Control dependences. *)
        if Insn.is_branch i then begin
          (match !branches with (b, _, _) :: _ -> add b p Ctrl 0 | [] -> ());
          List.iter (fun s -> add s p Ctrl 0) !stores_since_branch;
          stores_since_branch := [];
          let live = live_at_target i in
          (* Writes whose results the taken path needs may not sink below
             this branch. *)
          List.iter
            (fun (q, d) ->
              match live with
              | None -> add q p Ctrl 0
              | Some set -> if Reg.Set.mem d set then add q p Ctrl 0)
            !defs_so_far;
          branches := (p, i, live) :: !branches
        end
        else if Insn.is_store i then begin
          (match !branches with (b, _, _) :: _ -> add b p Ctrl 0 | [] -> ());
          stores_since_branch := p :: !stores_since_branch
        end
        else begin
          (* Speculatable instruction: may not hoist above a branch whose
             off-path target needs its destination. *)
          match i.Insn.dst with
          | None -> ()
          | Some d ->
            List.iter
              (fun (b, _, live) ->
                match live with
                | None -> add b p Ctrl 0
                | Some set -> if Reg.Set.mem d set then add b p Ctrl 0)
              !branches;
            defs_so_far := (p, d) :: !defs_so_far
        end)
    sb.Sb.items;
  (* Nothing may sink past a final control transfer. *)
  (match Sb.insn sb last_insn_pos with
  | Some i when Insn.is_branch i ->
    List.iter (fun p -> if p <> last_insn_pos then add p last_insn_pos Ctrl 0) insn_positions
  | Some _ | None -> ());
  (* Leftover internal labels are full barriers. *)
  Array.iteri
    (fun p item ->
      match item with
      | Block.Lbl _ ->
        let rep =
          let rec next k = if k >= n then None
            else match Sb.insn sb k with Some _ -> Some k | None -> next (k + 1)
          in
          next (p + 1)
        in
        (match rep with
        | None -> ()
        | Some r ->
          List.iter
            (fun q -> if q < p then add q r Ctrl 0 else if q > r then add r q Ctrl 0)
            insn_positions)
      | Block.Ins _ | Block.Loop _ -> ())
    sb.Sb.items;
  { sb; edges = !edges }

type cedge = { cesrc : int; cedst : int; clat : int; cdist : int }

let carried ?(pre_env = Reg.Map.empty) (t : t) : cedge list =
  let sb = t.sb in
  let lv = Linval.analyze sb in
  let out = ref [] in
  let add cesrc cedst clat cdist = out := { cesrc; cedst; clat; cdist } :: !out in
  (* Per-register definition and use positions, in program order. *)
  let defs : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let uses : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let push tbl (r : Reg.t) p =
    Hashtbl.replace tbl r.Reg.id (p :: Option.value ~default:[] (Hashtbl.find_opt tbl r.Reg.id))
  in
  Sb.iter_insns
    (fun p i ->
      List.iter (fun r -> push uses r p) (Insn.uses i);
      List.iter (fun r -> push defs r p) (Insn.defs i))
    sb;
  Hashtbl.iter
    (fun rid def_ps ->
      let def_ps = List.rev def_ps in
      let first_def = List.hd def_ps in
      let last_def = List.hd (List.rev def_ps) in
      let lat =
        match Sb.insn sb last_def with
        | Some i -> Machine.latency i.Insn.op
        | None -> 1
      in
      let use_ps = List.rev (Option.value ~default:[] (Hashtbl.find_opt uses rid)) in
      (* A use with no earlier definition reads the value carried from
         the previous iteration's last definition. *)
      List.iter (fun u -> if u <= first_def then add last_def u lat 1) use_ps)
    defs;
  (* Memory: relate every (store, mem) pair across iterations. *)
  let mems = ref [] in
  Sb.iter_insns
    (fun p i -> if Insn.is_mem i then mems := (p, Insn.is_store i, Linval.address lv p) :: !mems)
    sb;
  let mems = List.rev !mems in
  let mem_lat src_is_store = if src_is_store then 1 else 0 in
  let conservative p pst q qst =
    add p q (mem_lat pst) 1;
    if p <> q then add q p (mem_lat qst) 1
  in
  let relate (p, pst, pa) (q, qst, qa) =
    if pst || qst then
      match pa, qa with
      | Some x, Some y -> (
        (* Disjoint array bases never alias at any distance. *)
        let distinct_bases =
          match Linval.label_of_addr x, Linval.label_of_addr y with
          | Some la, Some lb -> la <> lb
          | _ -> false
        in
        if distinct_bases then ()
        else
          match Linval.lin_step lv x, Linval.lin_step lv y with
          | Some sx, Some sy when sx = sy -> (
            let d = Linval.subst pre_env (Linval.sub x y) in
            if not (Linval.is_const d) then conservative p pst q qst
            else
              let dc = d.Linval.c in
              let s = sx in
              if s = 0 then begin
                (* Addresses invariant: alias every iteration iff equal. *)
                if dc = 0 then conservative p pst q qst
              end
              else if dc <> 0 && dc mod s = 0 then begin
                (* x(j) = y(j + dc/s): a dependence at that distance. *)
                let dd = dc / s in
                if dd >= 1 then add p q (mem_lat pst) dd
                else add q p (mem_lat qst) (-dd)
              end
              (* dc = 0: same iteration only (intra-iteration edge);
                 non-divisible dc: never equal at any distance. *))
          | _ -> conservative p pst q qst)
      | _ -> conservative p pst q qst
  in
  let rec pairs = function
    | [] -> ()
    | m :: rest ->
      relate m m;
      List.iter (fun m' -> relate m m') rest;
      pairs rest
  in
  pairs mems;
  List.rev !out

let pipe_edges ~pre_env (insns : Insn.t array) : Pipe.edge list =
  let items = Array.map (fun i -> Block.Ins i) insns in
  let sb = Sb.make ~head:"\000mhead" ~exit_lbl:"\000mexit" items in
  let dg = build ~pre_env sb in
  let best : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e.kind with
      | Flow | Mem -> (
        let k = (e.esrc, e.edst) in
        match Hashtbl.find_opt best k with
        | Some l when l >= e.lat -> ()
        | _ -> Hashtbl.replace best k e.lat)
      | Anti | Output | Ctrl -> ())
    dg.edges;
  let within =
    Hashtbl.fold
      (fun (s, d) lat acc -> { Pipe.src = s; dst = d; lat; dist = 0 } :: acc)
      best []
  in
  let carried =
    List.map
      (fun c -> { Pipe.src = c.cesrc; dst = c.cedst; lat = max 1 c.clat; dist = c.cdist })
      (carried ~pre_env dg)
  in
  List.sort compare (within @ carried)
