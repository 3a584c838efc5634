(* Reference cleanup round for the differential tests: the three passes
   that [Cse.run] combined into one walk, as they were, run one after
   the other. [fold] simplifies every instruction on its own;
   [propagate] rewrites operands through copies and constants; [cse]
   value-numbers the result. A round is [Dce.run (cse (propagate (fold
   p)))], and a CSE copy reaches later uses only in the next round.
   Telemetry is left out of the round: the tests compare programs, and
   the lib/ counters must count only lib/ work. The keys are [Cse.Vkey]
   and [Cse.Mkey], which t_opt checks separately. *)

open Impact_ir
open Impact_opt

let fold (p : Prog.t) : Prog.t =
  Prog.with_entry p (Block.concat_map_insns (fun i -> Fold.simplify_insn p.Prog.ctx i) p.Prog.entry)

(* Copy and constant propagation. A forward pass over each block,
   conservatively resetting its knowledge at labels (join points) and at
   nested-loop boundaries. Bindings are invalidated when either side of a
   copy is redefined; a reverse index from copy-source registers to the
   destinations bound to them makes that kill O(dependents). *)
let propagate (p : Prog.t) : Prog.t =
  let process (items : Block.t) : Block.t =
    let env : (int, Operand.t) Hashtbl.t = Hashtbl.create 32 in
    let rdep : (int, int list ref) Hashtbl.t = Hashtbl.create 32 in
    let kill (d : Reg.t) =
      Hashtbl.remove env d.Reg.id;
      match Hashtbl.find_opt rdep d.Reg.id with
      | None -> ()
      | Some l ->
        List.iter
          (fun id ->
            match Hashtbl.find_opt env id with
            | Some (Operand.Reg r) when Reg.equal r d -> Hashtbl.remove env id
            | Some _ | None -> ())
          !l;
        Hashtbl.remove rdep d.Reg.id
    in
    let bind (d : Reg.t) (o : Operand.t) =
      Hashtbl.replace env d.Reg.id o;
      match o with
      | Operand.Reg s -> (
        match Hashtbl.find_opt rdep s.Reg.id with
        | Some l -> l := d.Reg.id :: !l
        | None -> Hashtbl.replace rdep s.Reg.id (ref [ d.Reg.id ]))
      | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ()
    in
    let rewrite_operand (o : Operand.t) : Operand.t =
      match o with
      | Operand.Reg r -> (
        match Hashtbl.find_opt env r.Reg.id with
        | Some o' -> o'
        | None -> o)
      | _ -> o
    in
    List.map
      (fun item ->
        match item with
        | Block.Lbl _ | Block.Loop _ ->
          Hashtbl.reset env;
          Hashtbl.reset rdep;
          item
        | Block.Ins i ->
          let srcs = Array.map rewrite_operand i.Insn.srcs in
          let i = { i with Insn.srcs } in
          (match i.Insn.dst with
          | Some d -> (
            kill d;
            match i.Insn.op with
            | Insn.IMov | Insn.FMov -> (
              match srcs.(0) with
              | Operand.Reg s when not (Reg.equal s d) -> bind d (Operand.Reg s)
              | (Operand.Int _ | Operand.Flt _ | Operand.Lab _) as c -> bind d c
              | Operand.Reg _ -> ())
            | _ -> ())
          | None -> ());
          Block.Ins i)
      items
  in
  Walk.rewrite_blocks process p

(* Local common-subexpression elimination, redundant-load elimination
   and store-to-load forwarding, on the operands as it finds them. *)

let mentions_reg (o : Operand.t) (d : Reg.t) =
  match o with Operand.Reg r -> Reg.equal r d | _ -> false

module Vtbl = Hashtbl.Make (Cse.Vkey)
module Mtbl = Hashtbl.Make (Cse.Mkey)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = x land max_int
end)

let norm2 a b = if Stdlib.compare a b <= 0 then (a, b) else (b, a)

let key_of (i : Insn.t) : Cse.Vkey.t option =
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

let is_load_key : Cse.Vkey.t -> bool = function KLoad _ -> true | _ -> false

let lab_of (o : Operand.t) = match o with Operand.Lab s -> Some s | _ -> None

let store_may_touch ~store_base ~other_base =
  match lab_of store_base, lab_of other_base with
  | Some a, Some b -> a = b
  | _ -> true

type entry = { result : Reg.t; srcs : Operand.t array }

let cse (p : Prog.t) : Prog.t =
  let ctx = p.Prog.ctx in
  let avail : entry Vtbl.t = Vtbl.create 32 in
  let memtbl : Operand.t Mtbl.t = Mtbl.create 16 in
  let dep : Cse.Vkey.t list ref Itbl.t = Itbl.create 32 in
  let mdep : Cse.Mkey.t list ref Itbl.t = Itbl.create 16 in
  let reset () =
    Vtbl.reset avail;
    Mtbl.reset memtbl;
    Itbl.reset dep;
    Itbl.reset mdep
  in
  let process (items : Block.t) : Block.t =
    reset ();
    let push tbl h k =
      match Itbl.find_opt tbl h with
      | Some l -> l := k :: !l
      | None -> Itbl.replace tbl h (ref [ k ])
    in
    let dep_operand tbl k (o : Operand.t) =
      match o with Operand.Reg r -> push tbl (Reg.hash r) k | _ -> ()
    in
    let kill_reg (d : Reg.t) =
      (match Itbl.find_opt dep (Reg.hash d) with
      | None -> ()
      | Some l ->
        List.iter
          (fun k ->
            match Vtbl.find_opt avail k with
            | Some e
              when Reg.equal e.result d
                   || Array.exists (fun o -> mentions_reg o d) e.srcs ->
              Vtbl.remove avail k
            | Some _ | None -> ())
          !l;
        Itbl.remove dep (Reg.hash d));
      match Itbl.find_opt mdep (Reg.hash d) with
      | None -> ()
      | Some l ->
        List.iter
          (fun ((b, o, _dp) as mk) ->
            match Mtbl.find_opt memtbl mk with
            | Some v
              when mentions_reg b d || mentions_reg o d || mentions_reg v d ->
              Mtbl.remove memtbl mk
            | Some _ | None -> ())
          !l;
        Itbl.remove mdep (Reg.hash d)
    in
    let add_avail k (e : entry) =
      Vtbl.replace avail k e;
      push dep (Reg.hash e.result) k;
      Array.iter (dep_operand dep k) e.srcs
    in
    let add_mem ((b, o, _dp) as mk : Cse.Mkey.t) (v : Operand.t) =
      Mtbl.replace memtbl mk v;
      dep_operand mdep mk b;
      dep_operand mdep mk o;
      dep_operand mdep mk v
    in
    let apply_store (base : Operand.t) (off : Operand.t) (disp : Operand.t)
        (v : Operand.t) =
      let stale_loads =
        Vtbl.fold
          (fun k e acc ->
            if is_load_key k && store_may_touch ~store_base:base ~other_base:e.srcs.(0)
            then k :: acc
            else acc)
          avail []
      in
      List.iter (Vtbl.remove avail) stale_loads;
      let stale_mem =
        Mtbl.fold
          (fun (b, o, d) _ acc ->
            if Operand.equal b base && Operand.equal o off && Operand.equal d disp then
              acc
            else if store_may_touch ~store_base:base ~other_base:b then (b, o, d) :: acc
            else acc)
          memtbl []
      in
      List.iter (Mtbl.remove memtbl) stale_mem;
      add_mem (base, off, disp) v
    in
    List.map
      (fun item ->
        match item with
        | Block.Lbl _ | Block.Loop _ ->
          reset ();
          item
        | Block.Ins i -> (
          match i.Insn.op with
          | Insn.Store _ ->
            apply_store i.Insn.srcs.(0) i.Insn.srcs.(1) i.Insn.srcs.(2) i.Insn.srcs.(3);
            item
          | _ -> (
            let i' =
              match i.Insn.op, i.Insn.dst with
              | Insn.Load cls, Some d -> (
                match
                  Mtbl.find_opt memtbl
                    (i.Insn.srcs.(0), i.Insn.srcs.(1), i.Insn.srcs.(2))
                with
                | Some v ->
                  if cls = Reg.Int then Build.imov ctx d v else Build.fmov ctx d v
                | None -> i)
              | _ -> i
            in
            match key_of i', i'.Insn.dst with
            | Some k, Some d -> (
              let hit = Vtbl.find_opt avail k in
              kill_reg d;
              match hit with
              | Some e when not (Reg.equal e.result d) ->
                let mv =
                  if d.Reg.cls = Reg.Int then Build.imov ctx d (Operand.Reg e.result)
                  else Build.fmov ctx d (Operand.Reg e.result)
                in
                Block.Ins mv
              | Some _ | None ->
                add_avail k { result = d; srcs = i'.Insn.srcs };
                Block.Ins i')
            | _, Some d ->
              kill_reg d;
              Block.Ins i'
            | _, None -> Block.Ins i')))
      items
  in
  Walk.rewrite_blocks process p

let round (p : Prog.t) : Prog.t = Dce.run (cse (propagate (fold p)))

type outcome =
  | Converged of int  (* rounds run, the unchanged last one included *)
  | Capped  (* [max_rounds] rounds ran and the last one still changed *)

(* Iterate a pass until a round leaves the instruction stream unchanged,
   or [max_rounds] rounds have run. *)
let fixpoint ~max_rounds (pass : Prog.t -> Prog.t) (p : Prog.t) : Prog.t * outcome =
  let rec go n p =
    if n > max_rounds then (p, Capped)
    else
      let p' = pass p in
      if Helpers.insns_equal_prog p p' then (p', Converged n) else go (n + 1) p'
  in
  go 1 p

(* [Conv.cleanup] as it was before the combined sweep: the round
   iterated to a fixpoint, at most six rounds. *)
let cleanup (p : Prog.t) : Prog.t = fst (fixpoint ~max_rounds:6 round p)

(* The round iterated until it changes nothing, with no cap; also
   returns the number of rounds run, the confirming one included. *)
let fixpoint_uncapped (p : Prog.t) : Prog.t * int =
  let rec go n p =
    let p' = round p in
    if Helpers.insns_equal_prog p p' then (p', n) else go (n + 1) p'
  in
  go 1 p

(* A pass list ([Level.pipeline] or [Conv.passes]) with [cleanup] in
   place of [Conv.cleanup]: in every entry named "cleanup", and in every
   cleanup step of Conv's list behind the "conv" entry. *)
let rec with_cleanup cleanup (passes : Impact_core.Level.pass list) :
    Impact_core.Level.pass list =
  List.map
    (fun ((name, _) as e) ->
      match name with
      | "cleanup" -> (name, cleanup)
      | "conv" -> (name, Impact_core.Level.run (with_cleanup cleanup Conv.passes))
      | _ -> e)
    passes

(* [Level.apply] with [cleanup] in place of [Conv.cleanup]. *)
let replay ~cleanup (level : Impact_core.Level.t) (p : Prog.t) : Prog.t =
  Impact_core.Level.run (with_cleanup cleanup (Impact_core.Level.pipeline level)) p

(* Every program handed to [Conv.cleanup] by the [level] pipeline on [p],
   in call order. *)
let inputs (level : Impact_core.Level.t) (p : Prog.t) : Prog.t list =
  let seen = ref [] in
  let cleanup p =
    seen := p :: !seen;
    Conv.cleanup p
  in
  ignore (replay ~cleanup level p);
  List.rev !seen
