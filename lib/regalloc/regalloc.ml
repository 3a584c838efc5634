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
   of [Liveness.Dense], one [Bits.t] row per register. Each basic block
   is walked backwards once from its live-out to record every
   definition's live-out, then replayed forwards, inserting edges word
   by word: a definition's new neighbours are its live-out set, masked
   to its class and minus the neighbours its row already holds.
   Simplify keeps one bitset per degree over the class's node-order
   positions, so the lowest non-empty bucket's first bit is
   the (degree, node-order)-smallest node, and select reads colors off
   the matrix rows. That is exactly the removal and color order of the
   original [Reg.Set]-per-node construction with an O(V^2) min-degree
   scan, kept in test/regalloc_ref.ml as the differential-testing
   oracle. *)

open Impact_ir
open Impact_analysis

type usage = { int_used : int; float_used : int }

(* [Bits.add], [Bits.remove] and [Bits.mem], local so the per-edge
   loops below inline them: the default (dev) build compiles every
   module opaquely, so a call into [Bits] is never inlined. The loops
   walk a word's bits with [Bits.lowest] instead of a closure per bit. *)
let bpw = Sys.int_size

let[@inline] set (t : Bits.t) i = t.(i / bpw) <- t.(i / bpw) lor (1 lsl (i mod bpw))

let[@inline] unset (t : Bits.t) i = t.(i / bpw) <- t.(i / bpw) land lnot (1 lsl (i mod bpw))

let[@inline] mem (t : Bits.t) i = t.(i / bpw) land (1 lsl (i mod bpw)) <> 0

(* Interference graph over dense register indices. *)
type dgraph = {
  nr : int;
  present : Bits.t;  (* occurs in code or has an edge (old [node] set) *)
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
  let present = Bits.create nr in
  let dregs = live.Liveness.Dense.regs in
  let cls_of = Array.map (fun (r : Reg.t) -> r.Reg.cls) dregs in
  (* [i] is in [present] exactly when [dregs.(i)] is a key of
     [order_tbl], so each node is inserted once, at its first sighting:
     the same insertion sequence as the reference graph. *)
  let order_tbl : (Reg.t, int) Hashtbl.t = Hashtbl.create 64 in
  let node_seen i =
    if not (mem present i) then begin
      set present i;
      Hashtbl.replace order_tbl dregs.(i) i
    end
  in
  let rows = Array.init nr (fun _ -> Bits.create nr) in
  let ints = Bits.create nr and floats = Bits.create nr in
  Array.iteri (fun i c -> Bits.add (if c = Reg.Int then ints else floats) i) cls_of;
  let deg = Array.make nr 0 in
  let edges = ref 0 in
  let def = live.Liveness.Dense.def and start = live.Liveness.Dense.start in
  let use_start = live.Liveness.Dense.use_start and uses = live.Liveness.Dense.uses in
  (* [outs.(j)] holds the live-out of the block's [j]-th definition:
     one backward walk per block fills them, then the block is replayed
     forwards, so edges go in and nodes are seen in program order. *)
  let outs = ref [||] in
  let scratch = Bits.create nr in
  for b = 0 to Liveness.Dense.nblocks live - 1 do
    let ndefs = ref 0 in
    for k = start.(b) to start.(b + 1) - 1 do
      if def.(k) >= 0 then incr ndefs
    done;
    if !ndefs > Array.length !outs then
      outs := Array.init (max !ndefs (2 * Array.length !outs)) (fun _ -> Bits.create nr);
    let outs = !outs in
    let slot = ref !ndefs in
    Liveness.Dense.walk live b scratch (fun k ->
      if def.(k) >= 0 then begin
        decr slot;
        Bits.copy_into ~into:outs.(!slot) scratch
      end);
    for k = start.(b) to start.(b + 1) - 1 do
      let i = code.(k) in
      let d = def.(k) in
      if d >= 0 then begin
        node_seen d;
        (* A definition interferes with everything live across it; a
           move's source is exempt (coalescable). *)
        let exempt =
          match i.Insn.op, i.Insn.srcs with
          | (Insn.IMov | Insn.FMov), [| Operand.Reg _ |] -> uses.(use_start.(k))
          | _ -> -1
        in
        let row = rows.(d) and out = outs.(!slot) in
        incr slot;
        let mask = if cls_of.(d) = Reg.Int then ints else floats in
        let dw = d / bpw and dbit = 1 lsl (d mod bpw) in
        (* The new neighbours of [d], word by word in ascending order:
           live out, in [d]'s class, not yet adjacent, neither [d] nor
           the exempt source. The ones not seen before are seen first,
           in ascending order; an adjacent one was seen when its edge
           went in, so [node_seen] still sees the reference sequence.
           Each then gets its mirror bit and both degrees grow. *)
        for w = 0 to Array.length row - 1 do
          let v = out.(w) land mask.(w) land lnot row.(w) in
          let v = if w = dw then v land lnot dbit else v in
          let v =
            if exempt >= 0 && w = exempt / bpw then v land lnot (1 lsl (exempt mod bpw)) else v
          in
          if v <> 0 then begin
            row.(w) <- row.(w) lor v;
            let u = ref (v land lnot present.(w)) in
            while !u <> 0 do
              node_seen ((w * bpw) + Bits.lowest !u);
              u := !u land (!u - 1)
            done;
            let v = ref v in
            while !v <> 0 do
              let b = (w * bpw) + Bits.lowest !v in
              let rb = rows.(b) in
              rb.(dw) <- rb.(dw) lor dbit;
              deg.(b) <- deg.(b) + 1;
              deg.(d) <- deg.(d) + 1;
              incr edges;
              v := !v land (!v - 1)
            done
          end
        done
      end;
      for j = use_start.(k) to use_start.(k + 1) - 1 do
        node_seen uses.(j)
      done
    done
  done;
  let node_order = Hashtbl.fold (fun _ i acc -> i :: acc) order_tbl [] in
  { nr; present; cls_of; rows; deg; dregs; node_order; edges = !edges }

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
      set alive i;
      maxd := Int.max !maxd g.deg.(i)
    end
  done;
  let cur = Array.copy g.deg in
  let bucket = Array.init (!maxd + 1) (fun _ -> Bits.create m) in
  let size = Array.make (!maxd + 1) 0 in
  Array.iter
    (fun i ->
      set bucket.(cur.(i)) pos.(i);
      size.(cur.(i)) <- size.(cur.(i)) + 1)
    by_pos;
  let lo = ref 0 in
  let order = Array.make m 0 in
  for t = 0 to m - 1 do
    while size.(!lo) = 0 do
      incr lo
    done;
    let i = by_pos.(Bits.first bucket.(!lo)) in
    unset bucket.(!lo) pos.(i);
    size.(!lo) <- size.(!lo) - 1;
    unset alive i;
    order.(t) <- i;
    (* Each remaining neighbour drops one bucket. *)
    let row = g.rows.(i) in
    for w = 0 to Array.length row - 1 do
      let v = ref (row.(w) land alive.(w)) in
      while !v <> 0 do
        let x = (w * bpw) + Bits.lowest !v in
        let d = cur.(x) in
        unset bucket.(d) pos.(x);
        size.(d) <- size.(d) - 1;
        set bucket.(d - 1) pos.(x);
        size.(d - 1) <- size.(d - 1) + 1;
        cur.(x) <- d - 1;
        if d - 1 < !lo then lo := d - 1;
        v := !v land (!v - 1)
      done
    done
  done;
  (* Select, last-removed first, reading only the neighbours already
     colored. The scratch array marks their colors with a stamp so it
     never needs clearing. *)
  let colored = Bits.create g.nr in
  let mark = Array.make (m + 1) (-1) in
  let count = ref 0 in
  for t = m - 1 downto 0 do
    let i = order.(t) in
    let row = g.rows.(i) in
    for w = 0 to Array.length row - 1 do
      let v = ref (row.(w) land colored.(w)) in
      while !v <> 0 do
        mark.(color.((w * bpw) + Bits.lowest !v)) <- t;
        v := !v land (!v - 1)
      done
    done;
    set colored i;
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
    if mem g.present i then acc := (g.dregs.(i), color.(i)) :: !acc
  done;
  !acc

let measure (p : Prog.t) : usage =
  let g, _, u = allocate p in
  if Impact_obs.Obs.collecting () then begin
    let nodes = ref 0 in
    Bits.iter (fun _ -> incr nodes) g.present;
    let nodes = !nodes in
    Impact_obs.Obs.count ~n:nodes "regalloc.nodes";
    Impact_obs.Obs.count ~n:g.edges "regalloc.edges"
  end;
  u
