(* Tests for superblock formation and list scheduling. *)

open Impact_ir
open Impact_sched
open Helpers

let test name f = Alcotest.test_case name `Quick f

let inner_loop (p : Prog.t) =
  match List.filter Block.is_innermost (Block.loops p.Prog.entry) with
  | l :: _ -> l
  | [] -> Alcotest.fail "no innermost loop"

(* The main trace: body items up to the first back-branch or jump. *)
let main_trace (l : Block.loop) =
  let rec go = function
    | [] -> []
    | (Block.Ins i as item) :: _
      when i.Insn.op = Insn.Jmp || i.Insn.target = Some l.Block.head -> [ item ]
    | item :: rest -> item :: go rest
  in
  go l.Block.body

let formation_tests =
  [
    test "conditional bodies form a label-free main trace" (fun () ->
      let p = Impact_core.Level.apply ~unroll_factor:4 Impact_core.Level.Lev2
          (lower (maxval_ast 64)) in
      let p' = Superblock.run p in
      let l = inner_loop p' in
      let labels_in_main =
        List.filter (function Block.Lbl _ -> true | _ -> false) (main_trace l)
      in
      check_int "no labels in main trace" 0 (List.length labels_in_main));
    test "formation preserves semantics on conditional kernels" (fun () ->
      List.iter
        (fun ast ->
          let p = Impact_core.Level.apply ~unroll_factor:4 Impact_core.Level.Lev2 (lower ast) in
          let base = run p in
          let p' = Superblock.run p in
          same_observables "formation" base (run p'))
        [ maxval_ast 50; vecadd_ast 50; dotprod_ast 50 ]);
    test "guard inversion puts the skip path on the trace" (fun () ->
      (* maxval's guard is [ble (x mx) SKIP; mx = x; SKIP:]; after
         inversion the main trace's guard is a bgt jumping OUT. *)
      let p = Impact_opt.Conv.run (lower (maxval_ast 32)) in
      let p' = Superblock.run p in
      let l = inner_loop p' in
      let trace_insns =
        List.filter_map (function Block.Ins i -> Some i | _ -> None) (main_trace l)
      in
      let has_inline_update =
        List.exists
          (fun (i : Insn.t) -> match i.Insn.op with Insn.FMov -> true | _ -> false)
          trace_insns
      in
      check_bool "update moved off-trace" false has_inline_update);
    test "side blocks end with explicit control transfer" (fun () ->
      let p = Impact_core.Level.apply ~unroll_factor:4 Impact_core.Level.Lev2
          (lower (maxval_ast 64)) in
      let p' = Superblock.run p in
      let l = inner_loop p' in
      (* Walk the body: every instruction directly before a label must be
         an unconditional transfer (no fall-through into side blocks). *)
      let rec check_items = function
        | Block.Ins i :: Block.Lbl _ :: _ when i.Insn.op <> Insn.Jmp
          && i.Insn.target <> Some l.Block.head ->
          Alcotest.fail "fall-through into a side block"
        | Block.Ins i :: Block.Lbl _ :: rest ->
          ignore i;
          check_items rest
        | _ :: rest -> check_items rest
        | [] -> ()
      in
      check_items l.Block.body);
  ]

(* Issue-per-cycle profile via the simulator trace. *)
let issue_profile machine p =
  let per_cycle : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let branches : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let trace (i : Insn.t) ~cycle =
    Hashtbl.replace per_cycle cycle
      (1 + Option.value ~default:0 (Hashtbl.find_opt per_cycle cycle));
    if Insn.is_branch i then
      Hashtbl.replace branches cycle
        (1 + Option.value ~default:0 (Hashtbl.find_opt branches cycle))
  in
  ignore (Impact_sim.Sim.run_ref ~trace machine p);
  (per_cycle, branches)

let sched_tests =
  [
    test "issue width respected after scheduling" (fun () ->
      let machine = Machine.issue_4 in
      let p = Helpers.compile Impact_core.Opts.default Impact_core.Level.Lev4 machine (lower (vecadd_ast 64)) in
      let per_cycle, branches = issue_profile machine p in
      Hashtbl.iter
        (fun _ n -> if n > 4 then Alcotest.failf "issued %d > width 4" n)
        per_cycle;
      Hashtbl.iter
        (fun _ n -> if n > 1 then Alcotest.failf "%d branches in one cycle" n)
        branches);
    test "scheduling preserves semantics at every width" (fun () ->
      List.iter
        (fun machine ->
          List.iter
            (fun ast ->
              let p = Impact_core.Level.apply Impact_core.Level.Lev4 (lower ast) in
              let base = run p in
              let p' = List_sched.run machine (Superblock.run p) in
              same_observables "sched" base (run p'))
            [ vecadd_ast 40; dotprod_ast 40; maxval_ast 40; recurrence_ast 24 ])
        [ Machine.issue_2; Machine.issue_8; Machine.unlimited ]);
    test "makespan is at least the critical path" (fun () ->
      let ctx = Prog.make_ctx () in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let f2 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let f3 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let insns =
        [|
          Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0);
          Build.fb ctx Insn.Fadd f2 (Operand.Reg f1) (Operand.Flt 1.0);
          Build.fb ctx Insn.Fmul f3 (Operand.Reg f2) (Operand.Flt 2.0);
        |]
      in
      let r =
        List_sched.schedule_segment Machine.issue_8
          ~live_at_target:(fun _ -> Reg.Set.empty)
          ~pre_env:Reg.Map.empty insns
      in
      (* load(2) + fadd(3) + fmul(3) = 8 *)
      check_int "makespan" 8 r.List_sched.makespan);
    test "independent chains overlap in the schedule" (fun () ->
      let ctx = Prog.make_ctx () in
      let mk () =
        let a = Reg.fresh ctx.Prog.rgen Reg.Float in
        let b = Reg.fresh ctx.Prog.rgen Reg.Float in
        [
          Build.load ctx Reg.Float a (Operand.Lab "A") (Operand.Int 0);
          Build.fb ctx Insn.Fadd b (Operand.Reg a) (Operand.Flt 1.0);
        ]
      in
      let insns = Array.of_list (mk () @ mk () @ mk ()) in
      let r =
        List_sched.schedule_segment Machine.issue_8
          ~live_at_target:(fun _ -> Reg.Set.empty)
          ~pre_env:Reg.Map.empty insns
      in
      check_int "three chains in the time of one" 5 r.List_sched.makespan);
    test "loads are hoisted above side exits in the emitted order" (fun () ->
      let ctx = Prog.make_ctx () in
      let g = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      (* The branch waits on its own load, so an independent later load
         can issue strictly earlier — the emitted order must hoist it. *)
      let insns =
        [|
          Build.load ctx Reg.Int g (Operand.Lab "G") (Operand.Int 0);
          Build.br ctx Reg.Int Insn.Lt (Operand.Reg g) (Operand.Int 0) "OUT";
          Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0);
        |]
      in
      let r =
        List_sched.schedule_segment Machine.issue_8
          ~live_at_target:(fun _ -> Reg.Set.empty)
          ~pre_env:Reg.Map.empty insns
      in
      let order =
        List.filter_map
          (function Block.Ins i -> Some i | _ -> None)
          r.List_sched.items
      in
      (match order with
      | [ a; b; c ] ->
        check_bool "both loads precede the branch" true
          (Insn.is_load a && Insn.is_load b && Insn.is_branch c)
      | _ -> Alcotest.fail "wrong shape"));
    test "stores never move above branches" (fun () ->
      let ctx = Prog.make_ctx () in
      let g = Reg.fresh ctx.Prog.rgen Reg.Int in
      let insns =
        [|
          Build.br ctx Reg.Int Insn.Lt (Operand.Reg g) (Operand.Int 0) "OUT";
          Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 0) (Operand.Flt 1.0);
        |]
      in
      let r =
        List_sched.schedule_segment Machine.issue_8
          ~live_at_target:(fun _ -> Reg.Set.empty)
          ~pre_env:Reg.Map.empty insns
      in
      (match r.List_sched.items with
      | Block.Ins first :: _ -> check_bool "branch first" true (Insn.is_branch first)
      | _ -> Alcotest.fail "no items"));
    test "labels split a loop body: nothing crosses a label" (fun () ->
      (* [i2] is independent of [i1] and ready at cycle 0, while [i1]
         waits on a load: scheduled as one segment, [i2] would issue
         first. *)
      let ctx = Prog.make_ctx () in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let f2 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let r = Reg.fresh ctx.Prog.rgen Reg.Int in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0) in
      let i1 = Build.fb ctx Insn.Fadd f2 (Operand.Reg f1) (Operand.Flt 1.0) in
      let i2 = Build.imov ctx r (Operand.Int 2) in
      let body = [ Block.Ins ld; Block.Ins i1; Block.Lbl "J"; Block.Ins i2 ] in
      let l = { Block.lid = 1; head = "H"; exit_lbl = "X"; meta = Block.no_meta; body } in
      match
        List_sched.schedule_loop Machine.issue_8 ~live_at_target:(fun _ -> Reg.Set.empty)
          ~pre_env:Reg.Map.empty l
      with
      | [ Block.Loop l' ] ->
        let pos is =
          let rec go k = function
            | [] -> Alcotest.fail "item lost"
            | x :: rest -> if is x then k else go (k + 1) rest
          in
          go 0 l'.Block.body
        in
        let insn (i : Insn.t) = function Block.Ins x -> x.Insn.id = i.Insn.id | _ -> false in
        let j = pos (( = ) (Block.Lbl "J")) in
        check_bool "i1 before J" true (pos (insn i1) < j);
        check_bool "i2 after J" true (pos (insn i2) > j)
      | _ -> Alcotest.fail "schedule_loop returns one loop");
    test "back-branch is always emitted last" (fun () ->
      let p = Helpers.compile Impact_core.Opts.default Impact_core.Level.Lev4 Machine.issue_8
          (lower (vecadd_ast 64)) in
      List.iter
        (fun (l : Block.loop) ->
          (* Each back-branch ends its segment: a label or the end of
             the body follows it. *)
          let rec backs = function
            | Block.Ins i :: rest when i.Insn.target = Some l.Block.head ->
              (match rest with
              | [] | Block.Lbl _ :: _ -> ()
              | _ -> Alcotest.fail "back-branch is not last in its segment");
              1 + backs rest
            | _ :: rest -> backs rest
            | [] -> 0
          in
          check_bool "has a back-branch" true (backs l.Block.body > 0))
        (List.filter Block.is_innermost (Block.loops p.Prog.entry)));
    test "final branch is emitted after a slower independent instruction" (fun () ->
      (* Unordered, the branch (waiting on the increment) would issue at
         cycle 1 and the multiply (waiting on the load) at cycle 2. *)
      let ctx = Prog.make_ctx () in
      let r = Reg.fresh ctx.Prog.rgen Reg.Int in
      let t = Reg.fresh ctx.Prog.rgen Reg.Int in
      let u = Reg.fresh ctx.Prog.rgen Reg.Int in
      let insns =
        [|
          Build.load ctx Reg.Int t (Operand.Lab "A") (Operand.Reg r);
          Build.ib ctx Insn.Mul u (Operand.Reg t) (Operand.Int 3);
          Build.ib ctx Insn.Add r (Operand.Reg r) (Operand.Int 4);
          Build.br ctx Reg.Int Insn.Le (Operand.Reg r) (Operand.Int 400) "L1";
        |]
      in
      let res =
        List_sched.schedule_segment Machine.issue_8
          ~live_at_target:(fun _ -> Reg.Set.singleton r)
          ~pre_env:Reg.Map.empty insns
      in
      match List.rev res.List_sched.items with
      | Block.Ins last :: _ ->
        check_int "branch last" insns.(3).Insn.id last.Insn.id;
        check_int "four instructions" 4 (List.length res.List_sched.items)
      | _ -> Alcotest.fail "no items");
  ]

(* The ranked ready set against [List_sched_ref]'s rescan-and-sort loop
   on every segment of every corpus program at every level. *)
let corpus_tests =
  [
    test "corpus segments = rescanning reference" (fun () ->
      List.iter
        (fun (w : Impact_workloads.Suite.t) ->
          List.iter
            (fun level ->
              let p =
                Impact_core.Compile.transform_with Impact_core.Opts.default level
                  (lower w.Impact_workloads.Suite.ast)
              in
              let tag =
                Printf.sprintf "%s/%s" w.Impact_workloads.Suite.name
                  (Impact_core.Level.to_string level)
              in
              check_string tag "" (String.concat ", " (List_sched_ref.mismatches p)))
            Impact_core.Level.all)
        Impact_workloads.Suite.all);
  ]

let suite =
  [
    ("sched.formation", formation_tests);
    ("sched.list", sched_tests);
    ("sched.list.corpus", corpus_tests);
  ]
