(* Superblock list scheduling: dependence-height priority, issue-width
   and branch-slot resource constraints, speculative upward motion of
   non-excepting instructions past side exits (subject to the
   destination-dead-at-target rule encoded in the dependence graph). *)

open Impact_ir
open Impact_analysis

type result = {
  items : Block.item list;  (* reordered segment *)
  makespan : int;  (* schedule length in cycles *)
  issue_time : (int * int) list;  (* (insn id, cycle), in emission order *)
}

(* Schedule a label-free instruction segment. *)
let schedule_segment (machine : Machine.t) ~live_at_target ~pre_env (insns : Insn.t array) :
    result =
  let ddg = Ddg.build ~live_at_target ~pre_env insns in
  let n = Array.length insns in
  let issue = machine.Machine.issue and slots = machine.Machine.branch_slots in
  (* Ready sets are bitsets over height rank, visited in priority order. *)
  let rank, rank_of = Bits.rank (Ddg.heights ddg) in
  let unscheduled_preds = Array.make n 0 in
  Array.iter (List.iter (fun (d, _) -> unscheduled_preds.(d) <- unscheduled_preds.(d) + 1)) ddg.Ddg.succs;
  (* earliest data-ready cycle, updated as preds schedule *)
  let ready_at = Array.make n 0 in
  (* [cand]: ready now. [next]: freed in this pass by a zero-latency
     edge; it joins [cand] for the next pass. [later]: a ring by the
     cycle an operation becomes ready, at most the top latency ahead. *)
  let cand = Bits.create n and next = Bits.create n in
  let later =
    Array.make (1 + Array.fold_left (List.fold_left (fun m (_, l) -> Int.max m l)) 0 ddg.Ddg.succs) []
  in
  Array.iteri (fun k c -> if c = 0 then Bits.add cand rank_of.(k)) unscheduled_preds;
  let remaining = ref n in
  let cycle = ref 0 in
  let order = ref [] in
  while !remaining > 0 do
    let issued = ref 0 in
    let branches = ref 0 in
    let progress = ref true in
    (* Passes let zero-latency chains (order-only edges) share a cycle. *)
    while !progress && !issued < issue do
      progress := false;
      Bits.iter
        (fun r ->
          let k = rank.(r) in
          let is_br = Insn.is_branch insns.(k) in
          if !issued < issue && ((not is_br) || !branches < slots) then begin
            Bits.remove cand r;
            order := (k, !cycle) :: !order;
            incr issued;
            if is_br then incr branches;
            decr remaining;
            progress := true;
            List.iter
              (fun (d, lat) ->
                unscheduled_preds.(d) <- unscheduled_preds.(d) - 1;
                ready_at.(d) <- Int.max ready_at.(d) (!cycle + lat);
                if unscheduled_preds.(d) = 0 then
                  if ready_at.(d) <= !cycle then Bits.add next rank_of.(d)
                  else
                    let b = ready_at.(d) mod Array.length later in
                    later.(b) <- rank_of.(d) :: later.(b))
              ddg.Ddg.succs.(k)
          end)
        cand;
      ignore (Bits.union_into ~into:cand next);
      Bits.clear next
    done;
    incr cycle;
    let b = !cycle mod Array.length later in
    List.iter (Bits.add cand) later.(b);
    later.(b) <- []
  done;
  let order = List.rev !order in
  let emission =
    List.sort
      (fun (a, ca) (b, cb) -> match compare ca cb with 0 -> compare a b | c -> c)
      order
  in
  let makespan =
    List.fold_left
      (fun acc (k, c) -> Int.max acc (c + Machine.latency insns.(k).Insn.op))
      0 order
  in
  {
    items = List.map (fun (k, _) -> Block.Ins insns.(k)) emission;
    makespan;
    issue_time = List.map (fun (k, c) -> (insns.(k).Insn.id, c)) emission;
  }

type loop_scheduler =
  live_at_target:(Insn.t -> Reg.Set.t) ->
  pre_env:Linval.lin Reg.Map.t ->
  Block.loop ->
  Block.item list

(* List-schedule each label-delimited segment of an innermost loop. *)
let schedule_loop (machine : Machine.t) ~live_at_target ~pre_env (l : Block.loop) =
  let schedule run = (schedule_segment machine ~live_at_target ~pre_env (Array.of_list run)).items in
  [ Block.Loop { l with Block.body = Block.map_runs schedule l.Block.body } ]

(* The one innermost-loop walk of both schedulers. Superblock formation
   should have run first. The preheader items feeding each loop are
   evaluated symbolically so the scheduler can disambiguate addresses
   built from expanded induction registers. *)
let map_loops (p : Prog.t) (f : loop_scheduler) =
  let live_at_target = Liveness.target_live (Liveness.Dense.of_prog p) in
  let schedule pre l =
    let pre_env = Linval.env_of_items pre in
    pre @ f ~live_at_target ~pre_env l
  in
  Prog.with_entry p (Block.map_innermost_with_preheader schedule p.Prog.entry)

let run (machine : Machine.t) (p : Prog.t) : Prog.t = map_loops p (schedule_loop machine)
