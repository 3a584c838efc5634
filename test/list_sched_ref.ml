(* Reference list scheduler for the differential tests: the
   formulation [List_sched.schedule_segment] replaced. Every pass
   rescans all operations for the ready ones, sorts them by height
   (descending, then position) and issues in that order; passes repeat
   within a cycle while something issues, so zero-latency chains share
   a cycle. Same dependence graph, so its items, makespan and issue
   times must equal the ranked ready set's exactly. *)

open Impact_ir
open Impact_analysis
module List_sched = Impact_sched.List_sched

let schedule_segment (machine : Machine.t) ~live_at_target ~pre_env (insns : Insn.t array) :
    List_sched.result =
  let ddg = Ddg.build ~live_at_target ~pre_env insns in
  let heights = Ddg.heights ddg in
  let n = Array.length insns in
  let scheduled = Array.make n (-1) in
  let npreds = Array.make n 0 in
  Array.iteri (fun _ l -> List.iter (fun (d, _) -> npreds.(d) <- npreds.(d) + 1) l) ddg.Ddg.succs;
  let ready_at = Array.make n 0 in
  let remaining = ref n in
  let unscheduled_preds = Array.copy npreds in
  let cycle = ref 0 in
  let order = ref [] in
  while !remaining > 0 do
    let issued = ref 0 in
    let branches = ref 0 in
    let progress = ref true in
    while !progress && !issued < machine.Machine.issue do
      progress := false;
      let candidates = ref [] in
      for k = 0 to n - 1 do
        if scheduled.(k) < 0 && unscheduled_preds.(k) = 0 && ready_at.(k) <= !cycle then
          candidates := k :: !candidates
      done;
      let candidates =
        List.sort
          (fun a b ->
            match compare heights.(b) heights.(a) with 0 -> compare a b | c -> c)
          !candidates
      in
      List.iter
        (fun k ->
          if !issued < machine.Machine.issue && scheduled.(k) < 0 then begin
            let is_br = Insn.is_branch insns.(k) in
            if (not is_br) || !branches < machine.Machine.branch_slots then begin
              scheduled.(k) <- !cycle;
              order := (k, !cycle) :: !order;
              incr issued;
              if is_br then incr branches;
              decr remaining;
              progress := true;
              List.iter
                (fun (d, lat) ->
                  unscheduled_preds.(d) <- unscheduled_preds.(d) - 1;
                  ready_at.(d) <- Int.max ready_at.(d) (!cycle + lat))
                ddg.Ddg.succs.(k)
            end
          end)
        candidates
    done;
    incr cycle
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
    List_sched.items = List.map (fun (k, _) -> Block.Ins insns.(k)) emission;
    makespan;
    issue_time = List.map (fun (k, c) -> (insns.(k).Insn.id, c)) emission;
  }

(* Issue widths 1, 2, 4 and 8, each with one and two branch slots: the
   second slot lets a pass issue a branch the first would skip. *)
let machines =
  List.concat_map
    (fun issue -> List.map (fun branch_slots -> Machine.make ~branch_slots ~issue ()) [ 1; 2 ])
    [ 1; 2; 4; 8 ]

(* The label-free segments [List_sched.run] schedules: each innermost
   loop body split at its labels, with the preheader's environment. *)
let segments (p : Prog.t) =
  let live_at_target = Liveness.target_live (Liveness.Dense.of_prog p) in
  let acc = ref [] in
  let collect pre l =
    let pre_env = Linval.env_of_items pre in
    let flush cur = if cur <> [] then acc := (pre_env, Array.of_list (List.rev cur)) :: !acc in
    let rest =
      List.fold_left
        (fun cur -> function
          | Block.Ins i -> i :: cur
          | Block.Lbl _ | Block.Loop _ -> flush cur; [])
        [] l.Block.body
    in
    flush rest;
    pre @ [ Block.Loop l ]
  in
  ignore (Block.map_innermost_with_preheader collect p.Prog.entry);
  (live_at_target, List.rev !acc)

(* Every segment of [p] on every machine above where the two schedulers
   disagree on items, makespan or issue times, as "machine/segment". *)
let mismatches (p : Prog.t) =
  let live_at_target, segs = segments p in
  List.concat_map
    (fun (m : Machine.t) ->
      List.concat
        (List.mapi
           (fun k (pre_env, insns) ->
             let got = List_sched.schedule_segment m ~live_at_target ~pre_env insns in
             let want = schedule_segment m ~live_at_target ~pre_env insns in
             if got = want then []
             else [ Printf.sprintf "%s/%d slots/segment %d" m.Machine.name m.Machine.branch_slots k ])
           segs))
    machines
