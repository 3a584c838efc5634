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
let schedule_segment (machine : Machine.t) ~live_at_target
    ?(pre_env = Reg.Map.empty) (insns : Insn.t array) : result =
  let items = Array.map (fun i -> Block.Ins i) insns in
  let sb = Sb.make ~head:"\000head" ~exit_lbl:"\000exit" items in
  let ddg = Ddg.build ~live_at_target ~pre_env sb in
  let heights = Ddg.heights ddg in
  let n = Array.length insns in
  let scheduled = Array.make n (-1) in
  let npreds = Array.make n 0 in
  Array.iteri (fun _ l -> List.iter (fun (d, _) -> npreds.(d) <- npreds.(d) + 1) l) ddg.Ddg.succs;
  (* earliest data-ready cycle, updated as preds schedule *)
  let ready_at = Array.make n 0 in
  let remaining = ref n in
  let unscheduled_preds = Array.copy npreds in
  let cycle = ref 0 in
  let order = ref [] in
  while !remaining > 0 do
    let issued = ref 0 in
    let branches = ref 0 in
    let progress = ref true in
    (* Re-collect candidates within the cycle so zero-latency chains
       (order-only edges) can share a cycle. *)
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
    items = List.map (fun (k, _) -> Block.Ins insns.(k)) emission;
    makespan;
    issue_time = List.map (fun (k, c) -> (insns.(k).Insn.id, c)) emission;
  }

(* Split a body into segments at labels and schedule each. Segments that
   still contain labels are impossible here by construction (splitting is
   at labels). *)
let schedule_body (machine : Machine.t) ~live_at_target
    ?(pre_env = Reg.Map.empty) (body : Block.t) : Block.t =
  let rec split acc cur = function
    | [] -> List.rev (if cur = [] then acc else `Run (List.rev cur) :: acc)
    | Block.Ins i :: rest -> split acc (i :: cur) rest
    | (Block.Lbl _ as it) :: rest ->
      let acc = if cur = [] then `Item it :: acc else `Item it :: `Run (List.rev cur) :: acc in
      split acc [] rest
    | (Block.Loop _ as it) :: rest ->
      let acc = if cur = [] then `Item it :: acc else `Item it :: `Run (List.rev cur) :: acc in
      split acc [] rest
  in
  List.concat_map
    (function
      | `Item it -> [ it ]
      | `Run insns ->
        (schedule_segment machine ~live_at_target ~pre_env (Array.of_list insns)).items)
    (split [] [] body)

(* Schedule every innermost loop body of the program. Superblock
   formation should have run first. The preheader items feeding each loop
   are evaluated symbolically so the scheduler can disambiguate addresses
   built from expanded induction registers. *)
let run (machine : Machine.t) (p : Prog.t) : Prog.t =
  let target_live = Liveness.target_live (Liveness.Dense.of_prog p) in
  let live_at_target i = Some (target_live i) in
  let schedule pre l =
    let pre_env = Linval.env_of_items pre in
    let body = schedule_body machine ~live_at_target ~pre_env l.Block.body in
    pre @ [ Block.Loop { l with Block.body } ]
  in
  Prog.with_entry p (Block.map_innermost_with_preheader schedule p.Prog.entry)
