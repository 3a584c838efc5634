(* Reference dead-code elimination for the differential tests: the
   list-based formulation that [Dce.run] replaced. Mark-and-sweep keys
   two [Hashtbl]s by register id and instruction id and rebuilds the
   program; every liveness round then re-flattens and re-numbers the
   pruned program with [Liveness.Dense.of_prog]; at most 6 rounds. Also
   replays the level pipeline to collect every program [Dce.run] sees. *)

open Impact_ir
open Impact_analysis
open Impact_opt

(* Returns the pruned program and the number of worklist pushes. *)
let mark_sweep (p : Prog.t) : Prog.t * int =
  let defs_of_reg : (int, Insn.t list) Hashtbl.t = Hashtbl.create 64 in
  Block.iter_insns
    (fun i ->
      List.iter
        (fun (r : Reg.t) ->
          let l = Option.value ~default:[] (Hashtbl.find_opt defs_of_reg r.Reg.id) in
          Hashtbl.replace defs_of_reg r.Reg.id (i :: l))
        (Insn.defs i))
    p.Prog.entry;
  let essential : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let work = Queue.create () in
  let pushes = ref 0 in
  let need_insn (i : Insn.t) =
    if not (Hashtbl.mem essential i.Insn.id) then begin
      Hashtbl.replace essential i.Insn.id ();
      incr pushes;
      Queue.add i work
    end
  in
  let need_reg (r : Reg.t) =
    List.iter need_insn (Option.value ~default:[] (Hashtbl.find_opt defs_of_reg r.Reg.id))
  in
  Block.iter_insns
    (fun i ->
      match i.Insn.op with
      | Insn.Store _ | Insn.Br _ | Insn.Jmp -> need_insn i
      | _ -> ())
    p.Prog.entry;
  List.iter (fun (_, r) -> need_reg r) p.Prog.outputs;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    List.iter need_reg (Insn.uses i)
  done;
  ( Prog.with_entry p
      (Block.concat_map_insns
         (fun i -> if Hashtbl.mem essential i.Insn.id then [ i ] else [])
         p.Prog.entry),
    !pushes )

(* One liveness round on a freshly flattened and numbered program. *)
let round (p : Prog.t) : Prog.t * bool =
  let live = Liveness.Dense.of_prog p in
  let code = live.Liveness.Dense.flat.Flatten.code in
  let keep =
    Array.mapi
      (fun k (i : Insn.t) ->
        match i.Insn.op, i.Insn.dst with
        | (Insn.Store _ | Insn.Br _ | Insn.Jmp), _ | _, None -> true
        | _, Some d -> (
          match Liveness_ref.index_opt live d with
          | None -> true
          | Some di -> Bits.mem live.Liveness.Dense.live_out.(k) di))
      code
  in
  if Array.for_all Fun.id keep then (p, false)
  else begin
    let pos = ref (-1) in
    ( Prog.with_entry p
        (Block.concat_map_insns
           (fun i ->
             incr pos;
             if keep.(!pos) then [ i ] else [])
           p.Prog.entry),
      true )
  end

let run (p : Prog.t) : Prog.t * int =
  let p, pushes = mark_sweep p in
  let rec go n p =
    if n = 0 then p
    else
      let p', changed = round p in
      if changed then go (n - 1) p' else p'
  in
  (go 6 p, pushes)

(* [Dce.run] with the dce.worklist_pushes it counted. *)
let dce_counted (p : Prog.t) : Prog.t * int =
  let module Obs = Impact_obs.Obs in
  let c0 = Obs.collecting () in
  Obs.set_collecting true;
  Fun.protect
    ~finally:(fun () -> Obs.set_collecting c0)
    (fun () ->
      let before = Obs.counter_value "dce.worklist_pushes" in
      let p' = Dce.run p in
      (p', Obs.counter_value "dce.worklist_pushes" - before))

(* [None] when [Dce.run] and the reference agree on the program
   ([Insn.equal_content] instruction lists) and on the push count;
   otherwise a description of the difference. *)
let disagreement (p : Prog.t) : string option =
  let got, got_pushes = dce_counted p in
  let want, want_pushes = run p in
  if not (Helpers.insns_equal_prog got want) then
    Some
      (Printf.sprintf "programs differ: %d vs %d instructions" (Helpers.insn_count got)
         (Helpers.insn_count want))
  else if got_pushes <> want_pushes then
    Some (Printf.sprintf "dce.worklist_pushes %d vs %d" got_pushes want_pushes)
  else None

(* Replay of [Level.apply] whose cleanup records every program handed
   to [Dce.run] (each round's [Cse.run] output). Returns the recorded
   inputs in call order and the level's output. *)
let cleanup_inputs (level : Impact_core.Level.t) (p : Prog.t) : Prog.t list * Prog.t =
  let seen = ref [] in
  let cleanup p =
    fst
      (Walk.fixpoint ~max_rounds:6
         (fun p ->
           let q = Cse.run p in
           seen := q :: !seen;
           Dce.run q)
         p)
  in
  let out = Cleanup_ref.replay ~cleanup level p in
  (List.rev !seen, out)
