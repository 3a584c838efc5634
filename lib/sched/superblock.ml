(* Superblock formation for innermost loop bodies (paper Section 1.1 /
   [14][18]): internal join points are removed by tail duplication, so
   the main trace becomes a superblock — a straight-line region with side
   exits only — which the scheduler can reorder freely under the
   speculation rules. Off-trace paths branch to duplicated tails placed
   after the main back-branch.

   Unreferenced labels are dropped first (the latch label usually becomes
   unreferenced once lowering-level CYCLE branches are simplified). A
   size cap bounds the duplication. *)

open Impact_ir

let max_growth = 8

(* Trace selection for guarded updates. A pattern

     br c SKIP ; <small straight-line update> ; SKIP:

   (the lowered form of [IF (...) V = ...]) is assumed rarely updated
   (running maxima, clamps), so the *taken* path is the frequent one.
   The guard is inverted and the update moved to an out-of-line block
   that jumps back to SKIP; the later join-removal pass then duplicates
   the tail for that block, leaving the common path fall-through — the
   trace a profile-driven superblock compiler would have picked. *)
let max_inverted_region = 6

let invert_guards ctx (items : Block.item list) :
    Block.item list * Block.item list =
  let side = ref [] in
  let rec go = function
    | [] -> []
    | (Block.Ins b as bitem) :: rest -> (
      match b.Insn.op, b.Insn.target with
      | Insn.Br (cls, c), Some skip_lbl -> (
        (* Collect a straight-line region up to [Lbl skip_lbl]. *)
        let rec region acc = function
          | Block.Lbl s :: rest' when s = skip_lbl -> Some (List.rev acc, rest')
          | Block.Ins i :: rest'
            when (not (Insn.is_branch i))
                 && (not (Insn.is_store i))
                 && List.length acc < max_inverted_region ->
            region (i :: acc) rest'
          | _ -> None
        in
        match region [] rest with
        | Some (upd, rest') when upd <> [] ->
          let upd_lbl = Prog.fresh_label ctx "INV" in
          let inv =
            Build.br ctx cls (Insn.negate_cmp c) b.Insn.srcs.(0) b.Insn.srcs.(1) upd_lbl
          in
          side :=
            !side
            @ (Block.Lbl upd_lbl
               :: List.map (fun i -> Block.Ins i) upd)
            @ [ Block.Ins (Build.jmp ctx skip_lbl) ];
          Block.Ins inv :: Block.Lbl skip_lbl :: go rest'
        | _ -> bitem :: go rest)
      | _ -> bitem :: go rest)
    | item :: rest -> item :: go rest
  in
  let main = go items in
  (main, !side)

let form_loop ctx (l : Block.loop) : Block.loop =
  (* References within the body. *)
  let referenced = Hashtbl.create 8 in
  List.iter
    (function
      | Block.Ins i -> (
        match i.Insn.target with Some t -> Hashtbl.replace referenced t () | None -> ())
      | Block.Lbl _ | Block.Loop _ -> ())
    l.Block.body;
  let items =
    List.filter
      (function Block.Lbl s -> Hashtbl.mem referenced s | _ -> true)
      l.Block.body
  in
  let items, inverted_side = invert_guards ctx items in
  let orig_size = List.length items in
  let main = ref (Array.of_list items) in
  let side = ref inverted_side in
  (* Inverted update blocks count against the growth budget too. *)
  let side_size =
    ref
      (List.length
         (List.filter (function Block.Ins _ -> true | _ -> false) inverted_side))
  in
  let renames : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let continue_forming = ref true in
  while !continue_forming do
    (* Last remaining label in the main trace. *)
    let last_label = ref None in
    Array.iteri
      (fun k item ->
        match item with Block.Lbl s -> last_label := Some (k, s) | _ -> ())
      !main;
    match !last_label with
    | None -> continue_forming := false
    | Some (pos, lbl) ->
      let tail = Array.sub !main (pos + 1) (Array.length !main - pos - 1) in
      let tail_insns =
        Array.to_list tail
        |> List.filter_map (function Block.Ins i -> Some i | _ -> None)
      in
      if tail_insns = [] || !side_size + List.length tail_insns > max_growth * orig_size
      then continue_forming := false
      else begin
        let lbl' = Prog.fresh_label ctx "SBL" in
        Hashtbl.replace renames lbl lbl';
        let clone = List.map (fun i -> Block.Ins (Build.clone ctx i)) tail_insns in
        side := !side @ (Block.Lbl lbl' :: clone);
        side_size := !side_size + List.length tail_insns;
        (* Remove the label from the main trace (tail stays in place). *)
        main :=
          Array.of_list
            (Array.to_list !main
            |> List.filteri (fun k _ -> k <> pos))
      end
  done;
  (* Truncate the main trace after its first unconditional transfer (the
     code beyond it is unreachable once joins are gone). *)
  let main_items =
    let rec go = function
      | [] -> []
      | (Block.Ins i as item) :: _ when i.Insn.op = Insn.Jmp -> [ item ]
      | (Block.Ins i as item) :: rest ->
        if Insn.is_cond_branch i && i.Insn.target = Some l.Block.head then
          (* The back-branch: keep it and stop (fall-through exits). *)
          [ item ]
        else item :: go rest
      | item :: rest -> item :: go rest
    in
    go (Array.to_list !main)
  in
  (* Apply label renames everywhere. *)
  let retarget item =
    match item with
    | Block.Ins i -> (
      match i.Insn.target with
      | Some t when Hashtbl.mem renames t ->
        Block.Ins { i with Insn.target = Some (Hashtbl.find renames t) }
      | _ -> item)
    | _ -> item
  in
  let main_items = List.map retarget main_items in
  let side_items = List.map retarget !side in
  (* If the main trace ends with a jump to a side block that nothing else
     references (the fall-through continuation created by if/else join
     removal), splice that block back inline. *)
  let ref_count items lbl =
    List.fold_left
      (fun acc item ->
        match item with
        | Block.Ins i when i.Insn.target = Some lbl -> acc + 1
        | _ -> acc)
      0 items
  in
  let split_side_block lbl items =
    let rec before acc = function
      | Block.Lbl s :: rest when s = lbl ->
        let rec blk acc2 = function
          | (Block.Lbl _ :: _) as rest2 -> (List.rev acc2, rest2)
          | x :: rest2 -> blk (x :: acc2) rest2
          | [] -> (List.rev acc2, [])
        in
        let content, after = blk [] rest in
        Some (List.rev acc, content, after)
      | x :: rest -> before (x :: acc) rest
      | [] -> None
    in
    before [] items
  in
  let rec splice main side =
    match List.rev main with
    | Block.Ins i :: rev_prefix when i.Insn.op = Insn.Jmp -> (
      match i.Insn.target with
      | Some lbl when ref_count main lbl + ref_count side lbl = 1 -> (
        match split_side_block lbl side with
        | Some (before, content, after) ->
          splice (List.rev rev_prefix @ content) (before @ after)
        | None -> (main, side))
      | _ -> (main, side))
    | _ -> (main, side)
  in
  let main_items, side_items = splice main_items side_items in
  (* After a conditional back-branch, fall-through must exit the loop;
     insert explicit exits between regions. *)
  let needs_exit_jump (items : Block.item list) =
    match List.rev items with
    | Block.Ins i :: _ -> i.Insn.op <> Insn.Jmp
    | _ -> true
  in
  let body =
    if side_items = [] then main_items
    else begin
      let rec add_separators = function
        | [] -> []
        | (Block.Lbl _ as lab) :: rest -> (
          (* Segment starts; collect until next label. *)
          let seg, rest' =
            let rec take acc = function
              | (Block.Lbl _ :: _) as r -> (List.rev acc, r)
              | x :: r -> take (x :: acc) r
              | [] -> (List.rev acc, [])
            in
            take [] rest
          in
          let seg =
            if needs_exit_jump seg then seg @ [ Block.Ins (Build.jmp ctx l.Block.exit_lbl) ]
            else seg
          in
          (lab :: seg) @ add_separators rest')
        | x :: rest -> x :: add_separators rest
      in
      let main' =
        if needs_exit_jump main_items then
          main_items @ [ Block.Ins (Build.jmp ctx l.Block.exit_lbl) ]
        else main_items
      in
      main' @ add_separators side_items
    end
  in
  { l with Block.body }

let run (p : Prog.t) : Prog.t =
  Prog.with_entry p
    (Block.map_innermost_with_preheader
       (fun pre l -> pre @ [ Block.Loop (form_loop p.Prog.ctx l) ]) p.Prog.entry)
