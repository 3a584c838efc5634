(* Reference register allocator for the differential tests: the
   original [Reg.Set]-per-node interference graph and Chaitin-style
   simplify/select with an O(V^2) min-degree scan that [Regalloc.measure]
   replaced. Both share ordering semantics, so the colorings agree
   register for register. *)

open Impact_ir
module Regalloc = Impact_regalloc.Regalloc

(* Interference graph per register class. *)
let interference (p : Prog.t) : (Reg.t, Reg.Set.t) Hashtbl.t =
  let live = Liveness_ref.of_prog p in
  let flat = live.Liveness_ref.flat in
  let graph : (Reg.t, Reg.Set.t) Hashtbl.t = Hashtbl.create 64 in
  let node r = if not (Hashtbl.mem graph r) then Hashtbl.replace graph r Reg.Set.empty in
  let nbrs r = Option.value ~default:Reg.Set.empty (Hashtbl.find_opt graph r) in
  let add_edge a b =
    if not (Reg.equal a b) && a.Reg.cls = b.Reg.cls then begin
      node a;
      node b;
      Hashtbl.replace graph a (Reg.Set.add b (nbrs a));
      Hashtbl.replace graph b (Reg.Set.add a (nbrs b))
    end
  in
  Array.iteri
    (fun k (i : Insn.t) ->
      List.iter
        (fun (d : Reg.t) ->
          node d;
          (* A definition interferes with everything live across it. For
             a move, the source is exempt (coalescable). *)
          let exempt =
            match i.Insn.op, i.Insn.srcs with
            | (Insn.IMov | Insn.FMov), [| Operand.Reg s |] -> Some s
            | _ -> None
          in
          Reg.Set.iter
            (fun r ->
              match exempt with
              | Some s when Reg.equal s r -> ()
              | _ -> add_edge d r)
            live.Liveness_ref.live_out.(k))
        (Insn.defs i);
      List.iter (fun r -> node r) (Insn.uses i))
    flat.Flatten.code;
  graph

(* Greedy coloring in smallest-degree-last order; ties go to the node
   seen first in the table's fold order, and the fast path replays the
   same insertion sequence to reproduce that order exactly. Returns the
   assignment for the given class. A register that was never entered in
   the graph contributes no neighbors and no node. *)
let class_coloring (graph : (Reg.t, Reg.Set.t) Hashtbl.t) (cls : Reg.cls) :
    (Reg.t * int) list =
  let nodes =
    Hashtbl.fold (fun r _ acc -> if r.Reg.cls = cls then r :: acc else acc) graph []
  in
  if nodes = [] then []
  else begin
    let nbrs r = Option.value ~default:Reg.Set.empty (Hashtbl.find_opt graph r) in
    let degree = Hashtbl.create 64 in
    let deg_of r = Option.value ~default:0 (Hashtbl.find_opt degree r) in
    List.iter
      (fun r ->
        let n = Reg.Set.filter (fun x -> x.Reg.cls = cls) (nbrs r) in
        Hashtbl.replace degree r (Reg.Set.cardinal n))
      nodes;
    let removed = Hashtbl.create 64 in
    let stack = ref [] in
    let remaining = ref (List.length nodes) in
    while !remaining > 0 do
      (* Smallest remaining degree; the first listed wins ties. *)
      let best = ref None in
      List.iter
        (fun r ->
          if not (Hashtbl.mem removed r) then
            match !best with
            | None -> best := Some r
            | Some b -> if deg_of r < deg_of b then best := Some r)
        nodes;
      match !best with
      | None -> remaining := 0
      | Some r ->
        Hashtbl.replace removed r ();
        stack := r :: !stack;
        decr remaining;
        Reg.Set.iter
          (fun x ->
            if x.Reg.cls = cls && not (Hashtbl.mem removed x) then
              Hashtbl.replace degree x (deg_of x - 1))
          (nbrs r)
    done;
    (* Select: color in reverse removal order with the lowest free color. *)
    let color = Hashtbl.create 64 in
    List.iter
      (fun r ->
        let used =
          Reg.Set.fold
            (fun x acc ->
              match Hashtbl.find_opt color x with Some c -> c :: acc | None -> acc)
            (nbrs r) []
        in
        let rec first c = if List.mem c used then first (c + 1) else c in
        Hashtbl.replace color r (first 0))
      !stack;
    Hashtbl.fold (fun r c acc -> (r, c) :: acc) color []
  end

(* Full coloring of a program, for validation: interfering registers of
   the same class never share a color. *)
let coloring (p : Prog.t) : (Reg.t * int) list * (Reg.t, Reg.Set.t) Hashtbl.t =
  let graph = interference p in
  (class_coloring graph Reg.Int @ class_coloring graph Reg.Float, graph)

(* Color counts per class of an assignment. *)
let usage_of (assignment : (Reg.t * int) list) : Regalloc.usage =
  let used cls =
    List.fold_left
      (fun acc ((r : Reg.t), c) -> if r.Reg.cls = cls then max acc (c + 1) else acc)
      0 assignment
  in
  { Regalloc.int_used = used Reg.Int; float_used = used Reg.Float }

(* Reference end-to-end measurement: [Reg.Set] interference + O(V^2)
   simplify. Exercised by the differential tests in t_regalloc. *)
let color_ref (p : Prog.t) : Regalloc.usage = usage_of (fst (coloring p))
