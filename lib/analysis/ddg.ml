(* Data-dependence graph of a label-free instruction segment: a
   superblock's straight-line code, whose only breaks are side exits.
   Nodes are positions in the instruction array.

   Edges, deduplicated to the max latency per (src, dst) pair:
   - flow: def -> use, with the producer's latency;
   - register reuse (anti, output): latency 0, since the in-order
     machine applies same-cycle effects in program order;
   - memory: load/store ordering from memory disambiguation, latency 1
     after a store and 0 after a load;
   - control: branch ordering, store/branch ordering, and speculation
     constraints (an instruction may move above a branch only if it is
     speculatable and its destination is dead at the branch target).

   Every edge ends at the later of its two positions, so the builder
   walks the segment once, collects each position's incoming edges in
   an [inbox] and fills the deduplicated successor lists from it.
   Register state is kept in arrays over the segment's register-id
   range. *)

open Impact_ir

type t = {
  insns : Insn.t array;
  succs : (int * int) list array;  (* position -> (succ position, latency) *)
}

(* Linear values of a segment; no branch in it targets these labels. *)
let linval (insns : Insn.t array) : Linval.t =
  Linval.analyze
    (Sb.make ~head:"\000head" ~exit_lbl:"\000exit" (Array.map (fun i -> Block.Ins i) insns))

(* Smallest register id a segment mentions and the width of the id
   range (0 when it mentions none). *)
let reg_range (insns : Insn.t array) : int * int =
  let lo = ref max_int and hi = ref min_int in
  let see (r : Reg.t) =
    if r.Reg.id < !lo then lo := r.Reg.id;
    if r.Reg.id > !hi then hi := r.Reg.id
  in
  Array.iter
    (fun (i : Insn.t) ->
      (match i.Insn.dst with Some r -> see r | None -> ());
      Array.iter (function Operand.Reg r -> see r | _ -> ()) i.Insn.srcs)
    insns;
  if !hi < !lo then (0, 0) else (!lo, !hi - !lo + 1)

let latencies (insns : Insn.t array) : int array =
  Array.map (fun (i : Insn.t) -> Machine.latency i.Insn.op) insns

(* A memory operation, with its address and single array label worked
   out once. *)
type mem = {
  mpos : int;
  mst : bool;
  maddr : Linval.lin option;
  mbase : Operand.t;
  mlab : string option;
}

let mem_of lv p (i : Insn.t) =
  let maddr = Linval.address lv p in
  {
    mpos = p;
    mst = Insn.is_store i;
    maddr;
    mbase = i.Insn.srcs.(0);
    mlab = Option.bind maddr Linval.label_of_addr;
  }

(* Memory edge latency after [m]: a store's write completes first. *)
let mem_lat m = if m.mst then 1 else 0

(* Two single array labels that differ: the addresses never alias, in
   any iteration ([Linval.relation] answers [Disjoint] within one). *)
let other_arrays a b =
  match a.mlab, b.mlab with Some x, Some y -> not (String.equal x y) | _ -> false

(* Within-iteration aliasing of two memory operations. When body-local
   symbolic values cannot relate the addresses, fall back to preheader
   facts: if their difference is invariant across iterations and the
   preheader makes it a constant, that constant decides aliasing for
   every iteration. Otherwise two different label bases never alias. *)
let may_alias lv pre_env rel a b =
  match (rel : Linval.relation) with
  | Linval.Disjoint -> false
  | Linval.Same -> true
  | Linval.May -> (
    let distance =
      match a.maddr, b.maddr with
      | Some x, Some y ->
        let d = Linval.sub x y in
        if Linval.lin_step lv d <> Some 0 then None
        else
          let d = Linval.subst pre_env d in
          if Linval.is_const d then Some d.Linval.c else None
      | _ -> None
    in
    match distance, a.mbase, b.mbase with
    | Some c, _, _ -> c = 0
    | None, Operand.Lab x, Operand.Lab y -> String.equal x y
    | None, _, _ -> true)

(* The edges into one position, deduplicated as they arrive: the max
   latency per source, and the sources in the order first seen. *)
type inbox = { best : int array; srcs : int array; mutable nsrcs : int }

let inbox n = { best = Array.make n min_int; srcs = Array.make n 0; nsrcs = 0 }

let offer b s l =
  let old = b.best.(s) in
  if old = min_int then begin
    b.srcs.(b.nsrcs) <- s;
    b.nsrcs <- b.nsrcs + 1
  end;
  if l > old then b.best.(s) <- l

(* Hand over every collected (source, latency) and empty the inbox. *)
let drain b f =
  for k = 0 to b.nsrcs - 1 do
    let s = b.srcs.(k) in
    f s b.best.(s);
    b.best.(s) <- min_int
  done;
  b.nsrcs <- 0

let build ~live_at_target ~pre_env (insns : Insn.t array) : t =
  let n = Array.length insns in
  let lv = linval insns in
  let lat = latencies insns in
  let lo, nr = reg_range insns in
  let last_def = Array.make nr (-1) in
  let uses_since = Array.make nr [] in
  let box = inbox n in
  let add s p l = if s <> p then offer box s l in
  let succs = Array.make n [] in
  let mems = Array.make n None in
  let nmems = ref 0 in
  (* (position, live set at its target), latest first. *)
  let branches = ref [] in
  let stores_since_branch = ref [] in
  (* (position, destination) of earlier register-writing instructions:
     a later branch pins every one whose destination is live at its
     target (on the taken path the write must already have happened). *)
  let defs_so_far = ref [] in
  for p = 0 to n - 1 do
    let i = insns.(p) in
    (* Register flow, anti and output dependences. *)
    Array.iter
      (function
        | Operand.Reg r ->
          let k = r.Reg.id - lo in
          let d = last_def.(k) in
          if d >= 0 then add d p lat.(d);
          uses_since.(k) <- p :: uses_since.(k)
        | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ())
      i.Insn.srcs;
    (match i.Insn.dst with
    | Some r ->
      let k = r.Reg.id - lo in
      List.iter (fun u -> add u p 0) uses_since.(k);
      if last_def.(k) >= 0 then add last_def.(k) p 0;
      last_def.(k) <- p;
      uses_since.(k) <- []
    | None -> ());
    (* Memory dependences. *)
    if Insn.is_mem i then begin
      let m = mem_of lv p i in
      for k = 0 to !nmems - 1 do
        let q = Option.get mems.(k) in
        if
          (m.mst || q.mst)
          && (not (other_arrays q m))
          && may_alias lv pre_env (Linval.relation q.maddr m.maddr) q m
        then add q.mpos p (mem_lat q)
      done;
      mems.(!nmems) <- Some m;
      incr nmems
    end;
    (* Control dependences. *)
    if Insn.is_branch i then begin
      (match !branches with (b, _) :: _ -> add b p 0 | [] -> ());
      List.iter (fun s -> add s p 0) !stores_since_branch;
      stores_since_branch := [];
      let live = live_at_target i in
      (* Writes whose results the taken path needs may not sink below
         this branch. *)
      List.iter (fun (q, d) -> if Reg.Set.mem d live then add q p 0) !defs_so_far;
      branches := (p, live) :: !branches;
      (* Nothing may sink past a final control transfer. *)
      if p = n - 1 then for q = 0 to p - 1 do add q p 0 done
    end
    else if Insn.is_store i then begin
      (match !branches with (b, _) :: _ -> add b p 0 | [] -> ());
      stores_since_branch := p :: !stores_since_branch
    end
    else begin
      (* Speculatable instruction: may not hoist above a branch whose
         off-path target needs its destination. *)
      match i.Insn.dst with
      | None -> ()
      | Some d ->
        List.iter (fun (b, live) -> if Reg.Set.mem d live then add b p 0) !branches;
        defs_so_far := (p, d) :: !defs_so_far
    end;
    drain box (fun s l -> succs.(s) <- (p, l) :: succs.(s))
  done;
  { insns; succs }

(* Longest-path height of each node to the end of the segment, counting
   the node's own latency; the classic list-scheduling priority. *)
let heights (t : t) : int array =
  let h = Array.make (Array.length t.insns) 0 in
  for p = Array.length t.insns - 1 downto 0 do
    let succ_max =
      List.fold_left (fun acc (d, lat) -> Int.max acc (h.(d) + lat)) 0 t.succs.(p)
    in
    h.(p) <- Int.max (Machine.latency t.insns.(p).Insn.op) succ_max
  done;
  h

(* ---- Dependence edges of the modulo scheduler ----

   The constraint system of a branch-free loop body: within-iteration
   flow and memory edges (distance 0, max latency per pair) and loop-
   carried ones (distance >= 1). Register anti and output dependences
   are not built: the modulo scheduler removes them by register
   versioning. A carried register flow edge runs from the last
   definition to every use at or before the first definition, at
   distance 1. A carried memory pair gets an exact distance from the
   linear address analysis when both addresses advance by the same per-
   iteration step, and a conservative distance-1 pair of edges
   otherwise. Carried latencies are clamped to 1, so equal-time
   placements never reorder an earlier-iteration access behind a later-
   iteration one in the emitted sequential code. *)

type edge = { src : int; dst : int; lat : int; dist : int }

(* Lexicographic on (src, dst, lat, dist): the order of [Stdlib.compare]
   on the record. *)
let compare_edge a b =
  if a.src <> b.src then Int.compare a.src b.src
  else if a.dst <> b.dst then Int.compare a.dst b.dst
  else if a.lat <> b.lat then Int.compare a.lat b.lat
  else Int.compare a.dist b.dist

let modulo_edges ~pre_env (insns : Insn.t array) : edge list =
  let n = Array.length insns in
  let lv = linval insns in
  let lat = latencies insns in
  let lo, nr = reg_range insns in
  let first_def = Array.make nr (-1) in
  let last_def = Array.make nr (-1) in
  let out = ref [] in
  let carry src dst l dist = out := { src; dst; lat = max 1 l; dist } :: !out in
  (* Within-iteration edges into the current position. *)
  let box = inbox n in
  let mems = Array.make n None in
  let steps = Array.make n None in
  let nmems = ref 0 in
  let conservative a b =
    carry a.mpos b.mpos (mem_lat a) 1;
    if a.mpos <> b.mpos then carry b.mpos a.mpos (mem_lat b) 1
  in
  (* Carried dependence between [a] and the same or a later [b] whose
     addresses differ by the constant [dc] in every iteration and share
     the per-iteration step [s]. *)
  let at_distance a b s dc =
    match s with
    | None -> conservative a b
    | Some 0 ->
      (* Invariant addresses: the same location in every iteration, or
         never. *)
      if dc = 0 then conservative a b
    | Some s ->
      (* x(j) = y(j + dc/s): a dependence at that distance; dc = 0 is
         the same iteration only, a non-multiple never meets. *)
      if dc <> 0 && dc mod s = 0 then begin
        let dd = dc / s in
        if dd >= 1 then carry a.mpos b.mpos (mem_lat a) dd
        else carry b.mpos a.mpos (mem_lat b) (-dd)
      end
  in
  let relate ka kb =
    let a = Option.get mems.(ka) and b = Option.get mems.(kb) in
    match a.maddr, b.maddr with
    | Some x, Some y -> (
      match Linval.diff x y, steps.(ka), steps.(kb) with
      | Some dc, _, _ ->
        (* Equal coefficient maps: equal steps, constant difference. *)
        at_distance a b steps.(ka) dc
      | None, Some sx, Some sy when sx = sy ->
        let d = Linval.subst pre_env (Linval.sub x y) in
        if Linval.is_const d then at_distance a b (Some sx) d.Linval.c
        else conservative a b
      | None, _, _ -> conservative a b)
    | _ -> conservative a b
  in
  for p = 0 to n - 1 do
    let i = insns.(p) in
    Array.iter
      (function
        | Operand.Reg r ->
          let d = last_def.(r.Reg.id - lo) in
          if d >= 0 then offer box d lat.(d)
        | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ())
      i.Insn.srcs;
    (match i.Insn.dst with
    | Some r ->
      let k = r.Reg.id - lo in
      if first_def.(k) < 0 then first_def.(k) <- p;
      last_def.(k) <- p
    | None -> ());
    if Insn.is_mem i then begin
      let m = mem_of lv p i in
      let km = !nmems in
      mems.(km) <- Some m;
      steps.(km) <- Option.bind m.maddr (Linval.lin_step lv);
      incr nmems;
      if m.mst then relate km km;
      for kq = 0 to km - 1 do
        let q = Option.get mems.(kq) in
        if (m.mst || q.mst) && not (other_arrays q m) then begin
          if may_alias lv pre_env (Linval.relation q.maddr m.maddr) q m then
            offer box q.mpos (mem_lat q);
          relate kq km
        end
      done
    end;
    drain box (fun s l -> out := { src = s; dst = p; lat = l; dist = 0 } :: !out)
  done;
  (* A use at or before a register's first definition reads the value
     the previous iteration's last definition left. *)
  Array.iteri
    (fun u (i : Insn.t) ->
      Array.iter
        (function
          | Operand.Reg r ->
            let k = r.Reg.id - lo in
            let f = first_def.(k) in
            if f >= 0 && u <= f then carry last_def.(k) u lat.(last_def.(k)) 1
          | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ())
        i.Insn.srcs)
    insns;
  List.sort compare_edge !out
