(* Global dead-code elimination: a flow-insensitive mark-and-sweep pass
   (which removes self-sustaining dead cycles such as an induction
   variable that only feeds its own increment) followed by
   liveness-based rounds (which remove flow-sensitively dead
   definitions).

   The whole pass runs on one [Liveness.Dense] frame: the program is
   flattened, its registers numbered and its blocks summarised once.
   Mark-and-sweep works over positions with a def index by register id.
   Each liveness round re-solves the same frame with the positions
   removed so far treated as no-ops (only the blocks where something
   was removed are re-summarised), then walks every block backwards
   from its live-out. The program is rebuilt once at the end, and only if
   something was removed. *)

open Impact_ir
open Impact_analysis

(* [rep.(k)] is the first position whose instruction has the same id as
   position [k]'s: mark-and-sweep marks instructions by id, so every
   instance of a marked id is kept. An open-addressing table of
   positions (at most half full) finds the first instance of each id. *)
let id_reps (code : Insn.t array) : int array =
  let n = Array.length code in
  let size = ref 16 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  let slots = Array.make !size (-1) in
  let rep = Array.make n 0 in
  for k = 0 to n - 1 do
    let id = code.(k).Insn.id in
    let j = ref (id land mask) in
    while slots.(!j) >= 0 && code.(slots.(!j)).Insn.id <> id do
      j := (!j + 1) land mask
    done;
    if slots.(!j) < 0 then slots.(!j) <- k;
    rep.(k) <- slots.(!j)
  done;
  rep

(* Mark-and-sweep: essential instructions are stores, branches and the
   definitions (transitively) feeding them or the program outputs (the
   frame's exit-live set). A register's definitions are found by
   register id (both classes), in reverse program order, and the
   worklist is FIFO. Sets [removed.(k)] for every unmarked position and
   returns the number of worklist pushes (the dce.worklist_pushes
   telemetry counter). *)
let mark_sweep (d : Liveness.Dense.d) (removed : bool array) : int =
  let code = d.Liveness.Dense.flat.Flatten.code in
  let n = Array.length code in
  let regs = d.Liveness.Dense.regs and def = d.Liveness.Dense.def in
  let use_start = d.Liveness.Dense.use_start and uses = d.Liveness.Dense.uses in
  (* Def chains by dense register: [head.(i)] is the last position
     defining register [i], [next.(k)] the previous one before [k]. *)
  let head = Array.make (Liveness.Dense.nregs d) (-1) in
  let next = Array.make n (-1) in
  for k = 0 to n - 1 do
    let i = def.(k) in
    if i >= 0 then begin
      next.(k) <- head.(i);
      head.(i) <- k
    end
  done;
  let rep = id_reps code in
  let essential = Array.make n false in
  let work = Array.make n 0 in
  let wr = ref 0 and rd = ref 0 in
  let need_insn k =
    let r = rep.(k) in
    if not essential.(r) then begin
      essential.(r) <- true;
      work.(!wr) <- k;
      incr wr
    end
  in
  (* The defs of dense register [i]'s id: its chain merged with the
     chain of the other class's register of that id, numbered next to
     [i] when the frame has it (the hashes differ in the low bit only),
     in reverse program order, as one chain by id. *)
  let need_reg i =
    let same k = k >= 0 && k < Array.length regs && regs.(k).Reg.id = regs.(i).Reg.id in
    let a = ref head.(i) in
    let b = ref (if same (i + 1) then head.(i + 1) else if same (i - 1) then head.(i - 1) else -1) in
    while !a >= 0 || !b >= 0 do
      if !a > !b then begin
        need_insn !a;
        a := next.(!a)
      end
      else begin
        need_insn !b;
        b := next.(!b)
      end
    done
  in
  for k = 0 to n - 1 do
    match code.(k).Insn.op with
    | Insn.Store _ | Insn.Br _ | Insn.Jmp -> need_insn k
    | _ -> ()
  done;
  Bits.iter need_reg d.Liveness.Dense.exit_live;
  while !rd < !wr do
    let k = work.(!rd) in
    incr rd;
    for j = use_start.(k) to use_start.(k + 1) - 1 do
      need_reg uses.(j)
    done
  done;
  for k = 0 to n - 1 do
    if not essential.(rep.(k)) then removed.(k) <- true
  done;
  !wr

(* One liveness round over the frame: mark every kept pure definition
   whose destination is dead just after it. The walk steps under the
   mask of the round's [solve], so a definition marked here does not
   change the live sets the rest of the round reads: every decision
   uses the solution taken at the start of the round. Reports whether
   anything was marked. *)
let round (d : Liveness.Dense.d) (live : Bits.t) (removed : bool array) : bool =
  Liveness.Dense.solve ~removed d;
  let code = d.Liveness.Dense.flat.Flatten.code and def = d.Liveness.Dense.def in
  let any = ref false in
  let visit k =
    if not removed.(k) then
      match code.(k).Insn.op with
      | Insn.Store _ | Insn.Br _ | Insn.Jmp -> ()
      | _ ->
        let di = def.(k) in
        if di >= 0 && not (Bits.mem live di) then begin
          removed.(k) <- true;
          any := true
        end
  in
  for b = 0 to Liveness.Dense.nblocks d - 1 do
    Liveness.Dense.walk d b live visit
  done;
  !any

(* Liveness rounds per call: a call whose last round still removed
   something is counted as capped. *)
let max_rounds = 6

let run (p : Prog.t) : Prog.t =
  Impact_obs.Obs.span ~cat:"opt" "opt.dce" (fun () ->
    let outputs = List.map snd p.Prog.outputs in
    let d = Liveness.Dense.frame ~exit_live:outputs (Flatten.of_prog p) in
    let n = Array.length d.Liveness.Dense.flat.Flatten.code in
    let removed = Array.make n false in
    let pushes = mark_sweep d removed in
    if pushes > 0 then Impact_obs.Obs.count ~n:pushes "dce.worklist_pushes";
    (* Iterate the liveness rounds to a (bounded) fixpoint: removing a
       dead definition can kill the uses keeping another one alive. *)
    let live = Bits.create (Liveness.Dense.nregs d) in
    let rec go rounds =
      if rounds = max_rounds then (rounds, 1)
      else if round d live removed then go (rounds + 1)
      else (rounds + 1, 0)
    in
    let rounds, capped = go 0 in
    Impact_obs.Obs.count ~n:rounds "dce.rounds";
    Impact_obs.Obs.count ~n:capped "dce.capped";
    if not (Array.exists Fun.id removed) then p
    else begin
      (* [Block.concat_map_insns] visits instructions in exactly
         [Flatten] emission order, so a running position counter
         indexes [removed]. *)
      let pos = ref (-1) in
      Prog.with_entry p
        (Block.concat_map_insns
           (fun i ->
             incr pos;
             if removed.(!pos) then [] else [ i ])
           p.Prog.entry)
    end)
