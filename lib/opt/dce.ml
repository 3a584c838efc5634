(* Global dead-code elimination: a flow-insensitive mark-and-sweep pass
   (which removes self-sustaining dead cycles such as an induction
   variable that only feeds its own increment) followed by
   liveness-based rounds (which remove flow-sensitively dead
   definitions).

   The whole pass runs on one [Liveness.Dense] frame: the program is
   flattened and its registers numbered once. Mark-and-sweep works over
   positions with a def index by register id, and each liveness round
   re-solves the same frame with the positions removed so far treated as
   no-ops, which gives the live sets of the pruned program without
   rebuilding it. The program is rebuilt once at the end, and only if
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
   definitions (transitively) feeding them or the program outputs. A
   register's definitions are found by register id (both classes), in
   reverse program order, and the worklist is FIFO. Sets
   [removed.(k)] for every unmarked position and returns the number of
   worklist pushes (the dce.worklist_pushes telemetry counter). *)
let mark_sweep (d : Liveness.Dense.d) (outputs : Reg.t list) (removed : bool array) : int =
  let code = d.Liveness.Dense.flat.Flatten.code in
  let n = Array.length code in
  let base = d.Liveness.Dense.base and index = d.Liveness.Dense.index in
  (* Def chains by register id: [head.(slot id)] is the last position
     defining that id, [next.(k)] the previous one before [k]. *)
  let id0 = base asr 1 in
  let head = Array.make (((base + Array.length index - 1) asr 1) - id0 + 1) (-1) in
  let next = Array.make n (-1) in
  for k = 0 to n - 1 do
    match code.(k).Insn.dst with
    | Some r ->
      let s = r.Reg.id - id0 in
      next.(k) <- head.(s);
      head.(s) <- k
    | None -> ()
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
  let need_reg (r : Reg.t) =
    let s = r.Reg.id - id0 in
    if s >= 0 && s < Array.length head then begin
      let k = ref head.(s) in
      while !k >= 0 do
        need_insn !k;
        k := next.(!k)
      done
    end
  in
  for k = 0 to n - 1 do
    match code.(k).Insn.op with
    | Insn.Store _ | Insn.Br _ | Insn.Jmp -> need_insn k
    | _ -> ()
  done;
  List.iter need_reg outputs;
  while !rd < !wr do
    let srcs = code.(work.(!rd)).Insn.srcs in
    incr rd;
    for j = 0 to Array.length srcs - 1 do
      match srcs.(j) with
      | Operand.Reg r -> need_reg r
      | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ()
    done
  done;
  for k = 0 to n - 1 do
    if not essential.(rep.(k)) then removed.(k) <- true
  done;
  !wr

(* One liveness round over the frame: mark every kept pure definition
   whose destination is dead just after it. Reports whether anything
   was marked. *)
let round (d : Liveness.Dense.d) (removed : bool array) : bool =
  Liveness.Dense.solve ~removed d;
  let code = d.Liveness.Dense.flat.Flatten.code in
  let any = ref false in
  for k = 0 to Array.length code - 1 do
    if not removed.(k) then
      match code.(k).Insn.op with
      | Insn.Store _ | Insn.Br _ | Insn.Jmp -> ()
      | _ ->
        let di = d.Liveness.Dense.def.(k) in
        if di >= 0 && not (Bits.mem d.Liveness.Dense.live_out.(k) di) then begin
          removed.(k) <- true;
          any := true
        end
  done;
  !any

let run (p : Prog.t) : Prog.t =
  Impact_obs.Obs.span ~cat:"opt" "opt.dce" (fun () ->
    let outputs = List.map snd p.Prog.outputs in
    let d = Liveness.Dense.frame ~exit_live:outputs (Flatten.of_prog p) in
    let n = Array.length d.Liveness.Dense.flat.Flatten.code in
    let removed = Array.make n false in
    let pushes = mark_sweep d outputs removed in
    if pushes > 0 then Impact_obs.Obs.count ~n:pushes "dce.worklist_pushes";
    (* Iterate the liveness rounds to a (bounded) fixpoint: removing a
       dead definition can kill the uses keeping another one alive. *)
    let rec go rounds = if rounds > 0 && round d removed then go (rounds - 1) in
    go 6;
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
