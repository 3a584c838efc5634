(* Graph-coloring register allocation over the scheduled code, used as a
   measurement: the simulated processor has an unbounded register file
   (paper Section 3.1), and "the register allocator attempts to utilize
   the least number of registers required for a given loop, so registers
   are reused as soon as they become available". We build the
   interference graph from liveness over the final schedule and color it
   with a Chaitin-style simplify/select pass (smallest-degree-last
   ordering); the color counts per class are the reported register
   usage.

   The allocator works on dense register indices from [Liveness.Dense]:
   the graph is one backward sweep appending to compact adjacency arrays
   (a bitset adjacency matrix dedups edges), and simplify pops a lazy
   integer min-heap keyed on degree * nregs + index instead of
   rescanning all nodes per removal. Simplify removes the (degree,
   node-order)-lexicographically smallest node and select assigns the
   lowest free color in reverse removal order, exactly as the original
   [Reg.Set]-per-node construction with an O(V^2) min-degree scan did;
   that formulation is kept in test/regalloc_ref.ml as the
   differential-testing oracle. *)

open Impact_ir
open Impact_analysis

type usage = { int_used : int; float_used : int }

let total u = u.int_used + u.float_used

(* ---- Fast path: dense indices, adjacency arrays, heap simplify ---- *)

(* Lazy binary min-heap over plain ints. *)
module Iheap = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max cap 16) 0; n = 0 }

  let push h x =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- x;
    while !i > 0 && h.a.((!i - 1) / 2) > h.a.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.n && h.a.(l) < h.a.(!s) then s := l;
      if r < h.n && h.a.(r) < h.a.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        let tmp = h.a.(!s) in
        h.a.(!s) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !s
      end
    done;
    top
end

(* Compact interference graph over dense register indices. *)
type dgraph = {
  nr : int;
  present : bool array;  (* occurs in code or has an edge (old [node] set) *)
  cls_of : Reg.cls array;
  adj : int array array;  (* per-node neighbor lists *)
  deg : int array;
  dregs : Reg.t array;  (* dense index -> register *)
  node_order : int list;
      (* dense indices in the reference implementation's node order: a
         unit-valued hash table is populated with the same key-insertion
         sequence as the reference graph (test/regalloc_ref.ml), so its fold order — which
         depends only on the key set, hashes and insertion history —
         matches the reference fold exactly *)
  edges : int;
}

let build_dense (p : Prog.t) : dgraph =
  let live = Liveness.Dense.of_prog p in
  let nr = Liveness.Dense.nregs live in
  let code = live.Liveness.Dense.flat.Flatten.code in
  let base = live.Liveness.Dense.base and index = live.Liveness.Dense.index in
  let present = Array.make nr false in
  let dregs = live.Liveness.Dense.regs in
  let cls_of = Array.map (fun (r : Reg.t) -> r.Reg.cls) dregs in
  (* [present.(i)] holds exactly when [dregs.(i)] is a key of
     [order_tbl], so each node is inserted once, at its first sighting:
     the same insertion sequence as the reference graph. *)
  let order_tbl : (Reg.t, int) Hashtbl.t = Hashtbl.create 64 in
  let node_seen i =
    if not present.(i) then begin
      present.(i) <- true;
      Hashtbl.replace order_tbl dregs.(i) i
    end
  in
  (* Bitset adjacency matrix dedups edge insertions. *)
  let mat = Bits.create (nr * nr) in
  let deg = Array.make nr 0 in
  let ebuf = ref (Array.make 256 0) in
  let ecount = ref 0 in
  let push_edge a b =
    if !ecount + 2 > Array.length !ebuf then begin
      let a' = Array.make (2 * Array.length !ebuf) 0 in
      Array.blit !ebuf 0 a' 0 !ecount;
      ebuf := a'
    end;
    !ebuf.(!ecount) <- a;
    !ebuf.(!ecount + 1) <- b;
    ecount := !ecount + 2
  in
  (* [a] is always a definition, seen just before its edges. *)
  let add_edge a b =
    if a <> b && cls_of.(a) = cls_of.(b) then begin
      node_seen b;
      let key = (a * nr) + b in
      if not (Bits.mem mat key) then begin
        Bits.add mat key;
        Bits.add mat ((b * nr) + a);
        push_edge a b;
        deg.(a) <- deg.(a) + 1;
        deg.(b) <- deg.(b) + 1
      end
    end
  in
  for k = 0 to Array.length code - 1 do
    let i = code.(k) in
    let di = live.Liveness.Dense.def.(k) in
    if di >= 0 then begin
      node_seen di;
      (* A definition interferes with everything live across it; a
         move's source is exempt (coalescable). *)
      let exempt =
        match i.Insn.op, i.Insn.srcs with
        | (Insn.IMov | Insn.FMov), [| Operand.Reg s |] -> index.(Reg.hash s - base)
        | _ -> -1
      in
      Bits.iter
        (fun r -> if r <> exempt then add_edge di r)
        live.Liveness.Dense.live_out.(k)
    end;
    let srcs = i.Insn.srcs in
    for j = 0 to Array.length srcs - 1 do
      match srcs.(j) with
      | Operand.Reg u -> node_seen index.(Reg.hash u - base)
      | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ()
    done
  done;
  let adj = Array.init nr (fun i -> Array.make deg.(i) 0) in
  let fill = Array.make nr 0 in
  let eb = !ebuf in
  let m = !ecount in
  let e = ref 0 in
  while !e < m do
    let a = eb.(!e) and b = eb.(!e + 1) in
    adj.(a).(fill.(a)) <- b;
    fill.(a) <- fill.(a) + 1;
    adj.(b).(fill.(b)) <- a;
    fill.(b) <- fill.(b) + 1;
    e := !e + 2
  done;
  let node_order = Hashtbl.fold (fun _ i acc -> i :: acc) order_tbl [] in
  { nr; present; cls_of; adj; deg; dregs; node_order; edges = m / 2 }

(* Color one class: simplify by popping the (degree, node-order
   position)-smallest node off a lazy heap (stale keys are skipped),
   then select lowest free colors in reverse removal order. Identical
   ordering semantics to the reference coloring, whose min-degree scan keeps
   the first listed node among equal degrees. Returns (colors per dense
   index, color count, heap pops). *)
let color_class_dense (g : dgraph) (cls : Reg.cls) : int array * int * int =
  let color = Array.make g.nr (-1) in
  let cur = Array.copy g.deg in
  let removed = Array.make g.nr false in
  (* Position of each class node in the reference node order; heap keys
     are degree * m + position, so ties break exactly as the reference
     scan does. *)
  let pos = Array.make g.nr (-1) in
  let m = ref 0 in
  List.iter
    (fun i ->
      if g.cls_of.(i) = cls then begin
        pos.(i) <- !m;
        incr m
      end)
    g.node_order;
  let mm = !m in
  let heap = Iheap.create 64 in
  for i = 0 to g.nr - 1 do
    if pos.(i) >= 0 then Iheap.push heap ((cur.(i) * mm) + pos.(i))
  done;
  let by_pos = Array.make mm 0 in
  for i = 0 to g.nr - 1 do
    if pos.(i) >= 0 then by_pos.(pos.(i)) <- i
  done;
  let order = Array.make mm 0 in
  let taken = ref 0 in
  let pops = ref 0 in
  while !taken < mm do
    let key = Iheap.pop heap in
    incr pops;
    let i = by_pos.(key mod mm) in
    let d = key / mm in
    if (not removed.(i)) && d = cur.(i) then begin
      removed.(i) <- true;
      order.(!taken) <- i;
      incr taken;
      Array.iter
        (fun x ->
          if not removed.(x) then begin
            cur.(x) <- cur.(x) - 1;
            Iheap.push heap ((cur.(x) * mm) + pos.(x))
          end)
        g.adj.(i)
    end
  done;
  (* Select, last-removed first. The scratch array marks neighbor
     colors with a stamp so it never needs clearing. *)
  let mark = Array.make (!m + 1) (-1) in
  let count = ref 0 in
  for t = !m - 1 downto 0 do
    let i = order.(t) in
    Array.iter
      (fun x ->
        let c = color.(x) in
        if c >= 0 && c <= !m then mark.(c) <- t)
      g.adj.(i);
    let c = ref 0 in
    while mark.(!c) = t do
      incr c
    done;
    color.(i) <- !c;
    if !c + 1 > !count then count := !c + 1
  done;
  (color, !count, !pops)

(* Full fast assignment for validation in tests. *)
let coloring_fast (p : Prog.t) : (Reg.t * int) list =
  let g = build_dense p in
  let ci, _, _ = color_class_dense g Reg.Int in
  let cf, _, _ = color_class_dense g Reg.Float in
  let acc = ref [] in
  for i = g.nr - 1 downto 0 do
    if g.present.(i) then
      let c = match g.cls_of.(i) with Reg.Int -> ci.(i) | Reg.Float -> cf.(i) in
      acc := (g.dregs.(i), c) :: !acc
  done;
  !acc

let measure (p : Prog.t) : usage =
  let g = build_dense p in
  let _, ints, pops_i = color_class_dense g Reg.Int in
  let _, floats, pops_f = color_class_dense g Reg.Float in
  if Impact_obs.Obs.collecting () then begin
    let nodes = Array.fold_left (fun a b -> if b then a + 1 else a) 0 g.present in
    Impact_obs.Obs.count ~n:nodes "regalloc.nodes";
    Impact_obs.Obs.count ~n:g.edges "regalloc.edges";
    Impact_obs.Obs.count ~n:(pops_i + pops_f) "regalloc.simplify_steps"
  end;
  { int_used = ints; float_used = floats }
