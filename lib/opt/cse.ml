(* The cleanup's forward sweep: copy and constant propagation, folding,
   local common-subexpression elimination, redundant-load elimination
   and store-to-load forwarding, combined on one walk per block (after
   Click and Cooper, "Combining Analyses, Combining Optimizations").
   Each instruction is propagated, folded and value-numbered before the
   walk moves on, so a CSE copy reaches the next use in the same sweep
   and one sweep does what the separate passes did over several rounds.
   An instruction the sweep deletes kills nothing. Every table resets
   at labels and nested loops. Memory knowledge is syntactic: a store
   invalidates loads unless the base labels prove disjointness
   (distinct arrays never overlap in this memory model). Loads and
   stored values are indexed by their base's array label, so a store
   to an array visits only that array's entries and those whose base
   is not a label.

   Available expressions are value-numbered on a hashed canonical key
   (commutative operands normalized). Every entry, stored value and
   copy is indexed by the registers it mentions, so a redefinition
   kills only its dependents. The tables are monomorphic
   ([Hashtbl.Make] over hand-written [equal]/[hash] that agree with
   [Stdlib.compare = 0]), created once per run and reset per block. *)

open Impact_ir

let mentions_reg (o : Operand.t) (d : Reg.t) =
  match o with Operand.Reg r -> Reg.equal r d | _ -> false

(* Operand hash agreeing with [Operand.equal]: [Hashtbl.hash] maps
   every NaN to one value and -0.0 to 0.0, as [Float.equal] equates
   them. *)
let operand_hash (o : Operand.t) =
  match o with
  | Operand.Reg r -> Reg.hash r
  | Operand.Int n -> (n * 3) + 1
  | Operand.Flt x -> Hashtbl.hash x
  | Operand.Lab s -> Hashtbl.hash s

let mix h x = (h * 31) + x

(* Canonical key of a pure computation. Commutative operations sort
   their two operands under the polymorphic order; any total order
   yields the same equivalence classes. *)
module Vkey = struct
  type t =
    | KI of Insn.ibin * Operand.t * Operand.t
    | KF of Insn.fbin * Operand.t * Operand.t
    | KItoF of Operand.t
    | KFtoI of Operand.t
    | KLoad of Reg.cls * Operand.t * Operand.t * Operand.t

  (* The operators and classes are immediates, so [=] on them is an
     integer comparison. *)
  let equal a b =
    match a, b with
    | KI (o1, x1, y1), KI (o2, x2, y2) ->
      o1 = o2 && Operand.equal x1 x2 && Operand.equal y1 y2
    | KF (o1, x1, y1), KF (o2, x2, y2) ->
      o1 = o2 && Operand.equal x1 x2 && Operand.equal y1 y2
    | KItoF x1, KItoF x2 | KFtoI x1, KFtoI x2 -> Operand.equal x1 x2
    | KLoad (c1, x1, y1, z1), KLoad (c2, x2, y2, z2) ->
      c1 = c2 && Operand.equal x1 x2 && Operand.equal y1 y2 && Operand.equal z1 z2
    | (KI _ | KF _ | KItoF _ | KFtoI _ | KLoad _), _ -> false

  (* Hashes the constructor and the operands; keys that differ only in
     the operator or class share a bucket and [equal] tells them apart. *)
  let hash k =
    let h =
      match k with
      | KI (_, x, y) -> mix (mix 1 (operand_hash x)) (operand_hash y)
      | KF (_, x, y) -> mix (mix 2 (operand_hash x)) (operand_hash y)
      | KItoF x -> mix 3 (operand_hash x)
      | KFtoI x -> mix 4 (operand_hash x)
      | KLoad (_, x, y, z) ->
        mix (mix (mix 5 (operand_hash x)) (operand_hash y)) (operand_hash z)
    in
    h land max_int
end

(* (base, off, disp) of a memory access. *)
module Mkey = struct
  type t = Operand.t * Operand.t * Operand.t

  let equal (b1, o1, d1) (b2, o2, d2) =
    Operand.equal b1 b2 && Operand.equal o1 o2 && Operand.equal d1 d2

  let hash (b, o, d) =
    mix (mix (operand_hash b) (operand_hash o)) (operand_hash d) land max_int
end

module Vtbl = Hashtbl.Make (Vkey)
module Mtbl = Hashtbl.Make (Mkey)
module Stbl = Hashtbl.Make (String)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = x land max_int
end)

let norm2 a b = if Stdlib.compare a b <= 0 then (a, b) else (b, a)

let key_of (i : Insn.t) : Vkey.t option =
  let s k = i.Insn.srcs.(k) in
  match i.Insn.op with
  | Insn.IBin op ->
    let a, b =
      match op with
      | Insn.Add | Insn.Mul | Insn.And | Insn.Or | Insn.Xor -> norm2 (s 0) (s 1)
      | _ -> (s 0, s 1)
    in
    Some (KI (op, a, b))
  | Insn.FBin op ->
    let a, b =
      match op with
      | Insn.Fadd | Insn.Fmul -> norm2 (s 0) (s 1)
      | _ -> (s 0, s 1)
    in
    Some (KF (op, a, b))
  | Insn.ItoF -> Some (KItoF (s 0))
  | Insn.FtoI -> Some (KFtoI (s 0))
  | Insn.Load cls -> Some (KLoad (cls, s 0, s 1, s 2))
  | Insn.IMov | Insn.FMov | Insn.Store _ | Insn.Br _ | Insn.Jmp -> None

type entry = { result : Reg.t; srcs : Operand.t array }

(* The load keys and stored-value keys whose base is one declared array,
   or any other base. Entries may be stale (killed since); draining a
   bucket removes whatever of them the tables still hold. *)
type bucket = { mutable loads : Vkey.t list; mutable mems : Mkey.t list }

(* Per-pass counter accumulators, flushed to Obs once per run so the
   hot loop never takes the telemetry mutex. *)
type stats = {
  mutable vn_hits : int;
  mutable pushes : int;
  mutable kills : int;
  mutable store_scans : int;
}

let run (p : Prog.t) : Prog.t =
  Impact_obs.Obs.span ~cat:"opt" "opt.cse" @@ fun () ->
  let ctx = p.Prog.ctx in
  let st = { vn_hits = 0; pushes = 0; kills = 0; store_scans = 0 } in
  (* Copy/constant environment: register hash -> the operand it holds. *)
  let env : Operand.t Itbl.t = Itbl.create 32 in
  (* Register hash -> hashes of the registers bound to a copy of it;
     validated against [env] on kill, so stale ones are harmless. *)
  let copies : int list ref Itbl.t = Itbl.create 32 in
  let avail : entry Vtbl.t = Vtbl.create 32 in
  (* (base, off, disp) -> last stored value *)
  let memtbl : Operand.t Mtbl.t = Mtbl.create 16 in
  (* Reverse dependency index: register hash -> keys whose entry may
     mention it (result or source). Entries are validated on kill, so
     stale keys are harmless. *)
  let dep : Vkey.t list ref Itbl.t = Itbl.create 32 in
  let mdep : Mkey.t list ref Itbl.t = Itbl.create 16 in
  (* Store invalidation index: one bucket per array, plus one for every
     other base (an undeclared label included, conservatively). The
     buckets outlive [reset]. *)
  let by_lab : bucket Stbl.t = Stbl.create 8 in
  List.iter
    (fun (a : Prog.adecl) -> Stbl.replace by_lab a.Prog.aname { loads = []; mems = [] })
    p.Prog.arrays;
  let unlabelled = { loads = []; mems = [] } in
  let empty_bucket b =
    b.loads <- [];
    b.mems <- []
  in
  let reset () =
    Itbl.reset env;
    Itbl.reset copies;
    Vtbl.reset avail;
    Mtbl.reset memtbl;
    Itbl.reset dep;
    Itbl.reset mdep;
    Stbl.iter (fun _ b -> empty_bucket b) by_lab;
    empty_bucket unlabelled
  in
  let bucket_of (base : Operand.t) =
    match base with
    | Operand.Lab a -> Option.value ~default:unlabelled (Stbl.find_opt by_lab a)
    | Operand.Reg _ | Operand.Int _ | Operand.Flt _ -> unlabelled
  in
  let push tbl h k =
    match Itbl.find_opt tbl h with
    | Some l -> l := k :: !l
    | None -> Itbl.replace tbl h (ref [ k ])
  in
  let dep_operand tbl k (o : Operand.t) =
    match o with
    | Operand.Reg r ->
      st.pushes <- st.pushes + 1;
      push tbl (Reg.hash r) k
    | _ -> ()
  in
  (* Visit, then forget, the index entries under register hash [h]. *)
  let drain idx h f =
    match Itbl.find_opt idx h with
    | None -> ()
    | Some l ->
      List.iter f !l;
      Itbl.remove idx h
  in
  (* [d] is redefined: forget every binding, expression and stored value
     that mentions it. *)
  let kill_reg (d : Reg.t) =
    let h = Reg.hash d in
    Itbl.remove env h;
    drain copies h (fun h' ->
      match Itbl.find_opt env h' with
      | Some o when mentions_reg o d -> Itbl.remove env h'
      | Some _ | None -> ());
    drain dep h (fun k ->
      match Vtbl.find_opt avail k with
      | Some e when Reg.equal e.result d || Array.exists (fun o -> mentions_reg o d) e.srcs ->
        st.kills <- st.kills + 1;
        Vtbl.remove avail k
      | Some _ | None -> ());
    drain mdep h (fun ((b, o, _dp) as mk) ->
      match Mtbl.find_opt memtbl mk with
      | Some v when mentions_reg b d || mentions_reg o d || mentions_reg v d ->
        st.kills <- st.kills + 1;
        Mtbl.remove memtbl mk
      | Some _ | None -> ())
  in
  (* [d] now holds [o]: later uses of [d] read [o] instead. *)
  let bind (d : Reg.t) (o : Operand.t) =
    if not (mentions_reg o d) then begin
      Itbl.replace env (Reg.hash d) o;
      match o with Operand.Reg s -> push copies (Reg.hash s) (Reg.hash d) | _ -> ()
    end
  in
  let subst (o : Operand.t) =
    match o with
    | Operand.Reg r -> Option.value ~default:o (Itbl.find_opt env (Reg.hash r))
    | _ -> o
  in
  let bound (o : Operand.t) =
    match o with Operand.Reg r -> Itbl.mem env (Reg.hash r) | _ -> false
  in
  let propagate (i : Insn.t) =
    if Itbl.length env > 0 && Array.exists bound i.Insn.srcs then
      { i with Insn.srcs = Array.map subst i.Insn.srcs }
    else i
  in
  (* A folded instruction is folded once more, so [r = r + 0] ends as
     the self-move's deletion in this sweep. *)
  let fold (i : Insn.t) =
    match Fold.simplify_insn ctx i with
    | [ j ] when j == i -> [ i ]
    | [ j ] -> Fold.simplify_insn ctx j
    | js -> js
  in
  let add_avail k (e : entry) =
    Vtbl.replace avail k e;
    st.pushes <- st.pushes + 1;
    push dep (Reg.hash e.result) k;
    Array.iter (dep_operand dep k) e.srcs;
    match k with
    | KLoad (_, base, _, _) ->
      let b = bucket_of base in
      b.loads <- k :: b.loads
    | KI _ | KF _ | KItoF _ | KFtoI _ -> ()
  in
  let add_mem ((b, o, _dp) as mk : Mkey.t) (v : Operand.t) =
    Mtbl.replace memtbl mk v;
    dep_operand mdep mk b;
    dep_operand mdep mk o;
    dep_operand mdep mk v;
    let bk = bucket_of b in
    bk.mems <- mk :: bk.mems
  in
  let drain_bucket b =
    st.store_scans <- st.store_scans + List.length b.loads + List.length b.mems;
    List.iter (Vtbl.remove avail) b.loads;
    List.iter (Mtbl.remove memtbl) b.mems;
    empty_bucket b
  in
  (* A store forgets every load and stored value it may touch: those of
     its own array and those with a non-label base, or all of them when
     its base is not a label. Its own address then holds [v]. *)
  let apply_store (base : Operand.t) (off : Operand.t) (disp : Operand.t) (v : Operand.t)
      =
    (match base with
    | Operand.Lab a -> Option.iter drain_bucket (Stbl.find_opt by_lab a)
    | Operand.Reg _ | Operand.Int _ | Operand.Flt _ -> Stbl.iter (fun _ b -> drain_bucket b) by_lab);
    drain_bucket unlabelled;
    add_mem (base, off, disp) v
  in
  (* Value-number one propagated, folded instruction onto [acc]. *)
  let number acc (i : Insn.t) : Block.t =
    let s k = i.Insn.srcs.(k) in
    match i.Insn.op, i.Insn.dst with
    | Insn.Store _, _ ->
      apply_store (s 0) (s 1) (s 2) (s 3);
      Block.Ins i :: acc
    | _, None -> Block.Ins i :: acc
    | _, Some d -> (
      (* [d] now holds [o]; emit [i']. *)
      let define o i' =
        kill_reg d;
        bind d o;
        Block.Ins i' :: acc
      in
      let stored =
        match i.Insn.op with Insn.Load _ -> Mtbl.find_opt memtbl (s 0, s 1, s 2) | _ -> None
      in
      match stored, key_of i with
      (* Store-to-load forwarding; reloading [d]'s own value is dropped
         like the self-move it would become. *)
      | Some v, _ when mentions_reg v d -> acc
      | Some v, _ -> define v (Build.mov ctx d v)
      | None, None -> define (s 0) i (* a move *)
      | None, Some k -> (
        match Vtbl.find_opt avail k with
        | Some e when not (Reg.equal e.result d) ->
          st.vn_hits <- st.vn_hits + 1;
          define (Operand.Reg e.result) (Build.mov ctx d (Operand.Reg e.result))
        | Some _ | None ->
          kill_reg d;
          add_avail k { result = d; srcs = i.Insn.srcs };
          Block.Ins i :: acc))
  in
  let process (items : Block.t) : Block.t =
    reset ();
    List.rev
      (List.fold_left
         (fun acc item ->
           match item with
           | Block.Lbl _ | Block.Loop _ ->
             reset ();
             item :: acc
           | Block.Ins i -> List.fold_left number acc (fold (propagate i)))
         [] items)
  in
  let p' = Walk.rewrite_blocks process p in
  if st.vn_hits > 0 then Impact_obs.Obs.count ~n:st.vn_hits "cse.vn_hits";
  if st.pushes > 0 then Impact_obs.Obs.count ~n:st.pushes "cse.worklist_pushes";
  if st.kills > 0 then Impact_obs.Obs.count ~n:st.kills "cse.kills";
  if st.store_scans > 0 then Impact_obs.Obs.count ~n:st.store_scans "cse.store_scans";
  p'
