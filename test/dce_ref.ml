(* Reference dead-code elimination for the differential tests: the
   list-based formulation that [Dce.run] replaced. Mark-and-sweep keys
   two [Hashtbl]s by register id and instruction id and rebuilds the
   program; every liveness round then re-flattens the pruned program
   and reads the [Reg.Set] reference liveness of test/liveness_ref.ml,
   so no round depends on [Liveness.Dense]; at most 6 rounds. Also
   replays the level pipeline to collect every program [Dce.run] sees. *)

open Impact_ir
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

(* One liveness round on the freshly flattened program. *)
let round (p : Prog.t) : Prog.t * bool =
  let live = Liveness_ref.of_prog p in
  let keep =
    Array.mapi
      (fun k (i : Insn.t) ->
        match i.Insn.op, i.Insn.dst with
        | (Insn.Store _ | Insn.Br _ | Insn.Jmp), _ | _, None -> true
        | _, Some d -> Reg.Set.mem d live.Liveness_ref.live_out.(k))
      live.Liveness_ref.flat.Flatten.code
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

(* [f ()] with what it added to each named telemetry counter, in order. *)
let counting (names : string list) (f : unit -> 'a) : 'a * int list =
  let module Obs = Impact_obs.Obs in
  let c0 = Obs.collecting () in
  Obs.set_collecting true;
  Fun.protect
    ~finally:(fun () -> Obs.set_collecting c0)
    (fun () ->
      let before = List.map Obs.counter_value names in
      let r = f () in
      (r, List.map2 (fun name b -> Obs.counter_value name - b) names before))

(* [Dce.run] with the dce.worklist_pushes it counted. *)
let dce_counted (p : Prog.t) : Prog.t * int =
  match counting [ "dce.worklist_pushes" ] (fun () -> Dce.run p) with
  | p', [ pushes ] -> (p', pushes)
  | _ -> assert false

(* [None] when [Dce.run] and the reference agree on the program
   ([Helpers.equal_content] instruction lists) and on the push count;
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

(* Replay of [Level.apply] whose cleanup iterates the sweep to its
   fixpoint and records every program handed to [Dce.run] (each round's
   [Cse.run] output, the confirming round's included). Returns the
   recorded inputs in call order and the level's output. *)
let cleanup_inputs (level : Impact_core.Level.t) (p : Prog.t) : Prog.t list * Prog.t =
  let seen = ref [] in
  let cleanup p =
    fst
      (Cleanup_ref.fixpoint ~max_rounds:6
         (fun p ->
           let q = Cse.run p in
           seen := q :: !seen;
           Dce.run q)
         p)
  in
  let out = Cleanup_ref.replay ~cleanup level p in
  (List.rev !seen, out)
