(* Reference liveness for the differential tests: a classic backward
   fixpoint on [Reg.Set]s over the flattened program, independent of
   [Liveness.Dense]'s register numbering and bitsets, plus the
   expansion of a dense result to the same record and the [Reg.Set]
   queries the tests read. *)

open Impact_ir
open Impact_analysis

type t = {
  flat : Flatten.t;
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
  exit_live : Reg.Set.t;
}

let analyze ~exit_live (flat : Flatten.t) : t =
  let code = flat.Flatten.code in
  let n = Array.length code in
  (* Successor positions; [n] is the program exit. *)
  let succs =
    Array.mapi
      (fun k (i : Insn.t) ->
        match i.Insn.op with
        | Insn.Jmp -> [ Flatten.target_index flat i ]
        | Insn.Br _ -> [ k + 1; Flatten.target_index flat i ]
        | _ -> [ k + 1 ])
      code
  in
  let live_in = Array.make n Reg.Set.empty in
  let live_out = Array.make n Reg.Set.empty in
  let at s = if s >= n then exit_live else live_in.(s) in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = n - 1 downto 0 do
      let i = code.(k) in
      let out = List.fold_left (fun acc s -> Reg.Set.union acc (at s)) Reg.Set.empty succs.(k) in
      let killed = List.fold_left (fun acc r -> Reg.Set.remove r acc) out (Insn.defs i) in
      let inn = List.fold_left (fun acc r -> Reg.Set.add r acc) killed (Insn.uses i) in
      if not (Reg.Set.equal out live_out.(k) && Reg.Set.equal inn live_in.(k)) then begin
        live_out.(k) <- out;
        live_in.(k) <- inn;
        changed := true
      end
    done
  done;
  { flat; live_in; live_out; exit_live }

(* The program outputs are live at exit. *)
let of_prog (p : Prog.t) : t =
  analyze
    ~exit_live:(Reg.Set.of_list (List.map snd p.Prog.outputs))
    (Flatten.of_prog p)

(* Expand a dense result to per-position [Reg.Set]s, replaying each
   block backwards with [Liveness.Dense.walk]: inside a block a
   position's live-in is the live-out of the one before it, and the
   walk ends on the block's live-in. *)
let of_dense (d : Liveness.Dense.d) : t =
  let set b =
    let acc = ref Reg.Set.empty in
    Bits.iter (fun k -> acc := Reg.Set.add d.Liveness.Dense.regs.(k) !acc) b;
    !acc
  in
  let n = Array.length d.Liveness.Dense.flat.Flatten.code in
  let live_in = Array.make n Reg.Set.empty and live_out = Array.make n Reg.Set.empty in
  let live = Bits.create (Liveness.Dense.nregs d) in
  for b = 0 to Liveness.Dense.nblocks d - 1 do
    let first = d.Liveness.Dense.start.(b) and last = d.Liveness.Dense.start.(b + 1) - 1 in
    Liveness.Dense.walk d b live (fun k ->
      live_out.(k) <- set live;
      if k < last then live_in.(k + 1) <- live_out.(k));
    live_in.(first) <- set live
  done;
  { flat = d.Liveness.Dense.flat; live_in; live_out; exit_live = set d.Liveness.Dense.exit_live }

(* Whether [Liveness.Dense]'s block solution, rebuilt per position
   through its walker, equals the reference at every position and at
   exit. *)
let dense_agrees (p : Prog.t) : bool =
  let got = of_dense (Liveness.Dense.of_prog p) and want = of_prog p in
  Array.for_all2 Reg.Set.equal got.live_in want.live_in
  && Array.for_all2 Reg.Set.equal got.live_out want.live_out
  && Reg.Set.equal got.exit_live want.exit_live

(* Live set at a label: the live-in of the instruction the label points
   at, or the exit-live set when the label is at the end of the code. *)
let live_at_label (t : t) lbl =
  let k = Hashtbl.find t.flat.Flatten.labels lbl in
  if k >= Array.length t.live_in then t.exit_live else t.live_in.(k)

let live_at_target (t : t) (i : Insn.t) = live_at_label t (Option.get i.Insn.target)

(* Dense index of a register, [None] when it neither occurs in the code
   nor is live at exit: a bisection over the ascending [regs]. *)
let index_opt (d : Liveness.Dense.d) (r : Reg.t) =
  let regs = d.Liveness.Dense.regs in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Reg.compare r regs.(mid) in
      if c = 0 then Some mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length regs)

(* Whether the frame's numbering names the code: [def] and [uses] give
   each position's destination and register sources in operand order,
   and [regs] holds exactly the registers the code names or [p]'s
   outputs, ascending. *)
let numbering_names_code (d : Liveness.Dense.d) (p : Prog.t) =
  let regs = d.Liveness.Dense.regs and def = d.Liveness.Dense.def in
  let us = d.Liveness.Dense.use_start and uses = d.Liveness.Dense.uses in
  let named = ref (Reg.Set.of_list (List.map snd p.Prog.outputs)) in
  let ok = ref true in
  Array.iteri
    (fun k (i : Insn.t) ->
      let srcs =
        List.filter_map
          (function Operand.Reg r -> Some r | _ -> None)
          (Array.to_list i.Insn.srcs)
      in
      let got = List.init (us.(k + 1) - us.(k)) (fun j -> regs.(uses.(us.(k) + j))) in
      let got_def = if def.(k) < 0 then None else Some regs.(def.(k)) in
      if not (List.equal Reg.equal got srcs && Option.equal Reg.equal got_def i.Insn.dst) then
        ok := false;
      named := Reg.Set.union !named (Reg.Set.of_list (Option.to_list i.Insn.dst @ srcs)))
    d.Liveness.Dense.flat.Flatten.code;
  !ok && List.equal Reg.equal (Reg.Set.elements !named) (Array.to_list regs)
