(* Graph-coloring register allocation over the scheduled code, used as a
   measurement: the simulated processor has an unbounded register file
   (paper Section 3.1), and "the register allocator attempts to utilize
   the least number of registers required for a given loop, so registers
   are reused as soon as they become available". We build the
   interference graph from liveness over the final schedule and color it
   with a Chaitin-style simplify/select pass (smallest-degree-last
   ordering); the color counts per class are the reported register
   usage.

   The graph is an nr x nr bit matrix over the dense register indices
   of [Liveness.Dense], one [Bits.t] row per register. One forward sweep
   inserts edges word by word: a definition's new neighbours are its
   live-out set, masked to its class and minus the neighbours its row
   already holds. Simplify keeps one bitset per degree over the class's
   node-order positions, so the lowest non-empty bucket's first bit is
   the (degree, node-order)-smallest node, and select reads colors off
   the matrix rows. That is exactly the removal and color order of the
   original [Reg.Set]-per-node construction with an O(V^2) min-degree
   scan, kept in test/regalloc_ref.ml as the differential-testing
   oracle. *)

open Impact_ir
open Impact_analysis

type usage = { int_used : int; float_used : int }

let total u = u.int_used + u.float_used

(* Interference graph over dense register indices. *)
type dgraph = {
  nr : int;
  present : bool array;  (* occurs in code or has an edge (old [node] set) *)
  cls_of : Reg.cls array;
  rows : Bits.t array;  (* the bit matrix: b is in rows.(a) iff a and b interfere *)
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
  let rows = Array.init nr (fun _ -> Bits.create nr) in
  let ints = Bits.create nr and floats = Bits.create nr in
  Array.iteri (fun i c -> Bits.add (if c = Reg.Int then ints else floats) i) cls_of;
  let deg = Array.make nr 0 in
  let edges = ref 0 in
  for k = 0 to Array.length code - 1 do
    let i = code.(k) in
    let d = live.Liveness.Dense.def.(k) in
    if d >= 0 then begin
      node_seen d;
      (* A definition interferes with everything live across it; a
         move's source is exempt (coalescable). *)
      let exempt =
        match i.Insn.op, i.Insn.srcs with
        | (Insn.IMov | Insn.FMov), [| Operand.Reg s |] -> index.(Reg.hash s - base)
        | _ -> -1
      in
      let row = rows.(d) and out = live.Liveness.Dense.live_out.(k) in
      let mask = if cls_of.(d) = Reg.Int then ints else floats in
      (* Only registers not yet adjacent to [d] are visited, in
         ascending order. An adjacent one was seen when its edge went
         in, so [node_seen] still sees the reference sequence. *)
      let add b =
        if b <> d && b <> exempt then begin
          node_seen b;
          Bits.add row b;
          Bits.add rows.(b) d;
          deg.(b) <- deg.(b) + 1;
          deg.(d) <- deg.(d) + 1;
          incr edges
        end
      in
      for w = 0 to Bits.words row - 1 do
        Bits.iter_word add w
          (Bits.word out w land Bits.word mask w land lnot (Bits.word row w))
      done
    end;
    let srcs = i.Insn.srcs in
    for j = 0 to Array.length srcs - 1 do
      match srcs.(j) with
      | Operand.Reg u -> node_seen index.(Reg.hash u - base)
      | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ()
    done
  done;
  let node_order = Hashtbl.fold (fun _ i acc -> i :: acc) order_tbl [] in
  { nr; present; cls_of; rows; deg; dregs; node_order; edges = !edges }

(* [f] on every neighbour of [a] that is in [among], ascending. *)
let iter_adjacent f (g : dgraph) a among =
  let row = g.rows.(a) in
  for w = 0 to Bits.words row - 1 do
    Bits.iter_word f w (Bits.word row w land Bits.word among w)
  done

(* Color one class into [color] and return its color count. Simplify
   removes the node of least (degree, node-order position): bucket d is
   the set of positions of remaining nodes of degree d, so the first
   bit of the lowest non-empty bucket is that node, exactly the one the
   reference scan keeps among equal degrees. Select then assigns lowest
   free colors in reverse removal order. *)
let color_class (g : dgraph) (color : int array) (cls : Reg.cls) : int =
  let pos = Array.make g.nr (-1) in
  let m = ref 0 in
  List.iter
    (fun i ->
      if g.cls_of.(i) = cls then begin
        pos.(i) <- !m;
        incr m
      end)
    g.node_order;
  let m = !m in
  let by_pos = Array.make m 0 in
  let alive = Bits.create g.nr in
  let maxd = ref 0 in
  for i = 0 to g.nr - 1 do
    if pos.(i) >= 0 then begin
      by_pos.(pos.(i)) <- i;
      Bits.add alive i;
      maxd := max !maxd g.deg.(i)
    end
  done;
  let cur = Array.copy g.deg in
  let bucket = Array.init (!maxd + 1) (fun _ -> Bits.create m) in
  let size = Array.make (!maxd + 1) 0 in
  let put x d =
    Bits.add bucket.(d) pos.(x);
    size.(d) <- size.(d) + 1
  in
  let take x d =
    Bits.remove bucket.(d) pos.(x);
    size.(d) <- size.(d) - 1
  in
  Array.iter (fun i -> put i cur.(i)) by_pos;
  let lo = ref 0 in
  (* A remaining neighbour of a removed node drops one bucket. *)
  let drop x =
    let d = cur.(x) in
    take x d;
    put x (d - 1);
    cur.(x) <- d - 1;
    if d - 1 < !lo then lo := d - 1
  in
  let order = Array.make m 0 in
  for t = 0 to m - 1 do
    while size.(!lo) = 0 do
      incr lo
    done;
    let i = by_pos.(Bits.first bucket.(!lo)) in
    take i !lo;
    Bits.remove alive i;
    order.(t) <- i;
    iter_adjacent drop g i alive
  done;
  (* Select, last-removed first, reading only the neighbours already
     colored. The scratch array marks their colors with a stamp so it
     never needs clearing. *)
  let colored = Bits.create g.nr in
  let mark = Array.make (m + 1) (-1) in
  let stamp = ref 0 in
  let mark_color x = mark.(color.(x)) <- !stamp in
  let count = ref 0 in
  for t = m - 1 downto 0 do
    let i = order.(t) in
    stamp := t;
    iter_adjacent mark_color g i colored;
    Bits.add colored i;
    let c = ref 0 in
    while mark.(!c) = t do
      incr c
    done;
    color.(i) <- !c;
    if !c + 1 > !count then count := !c + 1
  done;
  !count

(* The one allocation path: [measure] reports its counts, the tests
   validate its per-register colors through [coloring_fast]. *)
let allocate (p : Prog.t) : dgraph * int array * usage =
  let g = build_dense p in
  let color = Array.make g.nr (-1) in
  let int_used = color_class g color Reg.Int in
  let float_used = color_class g color Reg.Float in
  (g, color, { int_used; float_used })

let coloring_fast (p : Prog.t) : (Reg.t * int) list =
  let g, color, _ = allocate p in
  let acc = ref [] in
  for i = g.nr - 1 downto 0 do
    if g.present.(i) then acc := (g.dregs.(i), color.(i)) :: !acc
  done;
  !acc

let measure (p : Prog.t) : usage =
  let g, _, u = allocate p in
  if Impact_obs.Obs.collecting () then begin
    let nodes = Array.fold_left (fun a b -> if b then a + 1 else a) 0 g.present in
    Impact_obs.Obs.count ~n:nodes "regalloc.nodes";
    Impact_obs.Obs.count ~n:g.edges "regalloc.edges"
  end;
  u
