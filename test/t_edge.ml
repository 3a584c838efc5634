(* Edge-case tests across subsystems. *)

open Impact_ir
open Helpers

let test name f = Alcotest.test_case name `Quick f

let formation_tests =
  [
    test "tail-duplication growth is capped" (fun () ->
      (* A loop with many if/then joins: formation must stop at the size
         cap and fall back to barrier labels rather than exploding. *)
      let open Ast_build in
      let guards =
        List.init 12 (fun k ->
          if_ CGt (idx "A" [ v "j" ]) (r (0.1 *. float_of_int k))
            [ astore "B" [ v "j" ] (idx "A" [ v "j" ] +: r (float_of_int k)) ]
            [])
      in
      let ast =
        {
          decls = [ scalar "j" TInt; array1 "A" TReal 34 (pseudo 31); array1 "B" TReal 34 (fun _ -> 0.0) ];
          stmts = [ do_ "j" (i 1) (i 32) guards ];
          outs = [];
        }
      in
      let p = Impact_core.Level.apply Impact_core.Level.Lev2 (lower ast) in
      let orig_insns = List.length (Block.insns p.Prog.entry) in
      let p' = Impact_sched.Superblock.run p in
      let new_insns = List.length (Block.insns p'.Prog.entry) in
      (* The cap bounds duplicated tails relative to the loop body; the
         whole program additionally carries inversion blocks and
         per-block exit jumps, so allow a small constant on top. *)
      check_bool "bounded growth" true
        (new_insns <= (Impact_sched.Superblock.max_growth + 4) * orig_insns);
      same_observables "capped formation" (run p) (run p'));
    test "loops without conditionals are unchanged by formation" (fun () ->
      let p = Impact_core.Level.apply Impact_core.Level.Lev2 (lower (vecadd_ast 32)) in
      let before = List.map Insn.to_string (Block.insns p.Prog.entry) in
      let p' = Impact_sched.Superblock.run p in
      let after = List.map Insn.to_string (Block.insns p'.Prog.entry) in
      check_bool "identical" true (before = after));
  ]

let unroll_meta_tests =
  [
    test "main loop metadata survives unrolling" (fun () ->
      let p =
        Impact_core.Level.apply ~unroll_factor:4 Impact_core.Level.Lev1
          (lower (vecadd_ast 64))
      in
      let inner = List.filter Block.is_innermost (Block.loops p.Prog.entry) in
      let main =
        List.find (fun (l : Block.loop) -> l.Block.meta.Block.unrolled = 4) inner
      in
      check_bool "counter present" true (main.Block.meta.Block.counter <> None);
      check_bool "trip is a multiple of 4" true
        (match main.Block.meta.Block.trip with Some t -> t mod 4 = 0 | None -> false);
      check_bool "latch recorded" true (main.Block.meta.Block.latch <> None));
    test "factor 1 leaves the loop alone" (fun () ->
      let p0 = lower (vecadd_ast 32) in
      let p = Impact_core.Unroll.run ~factor:1 (Impact_opt.Conv.run p0) in
      let inner = List.filter Block.is_innermost (Block.loops p.Prog.entry) in
      check_int "one loop" 1 (List.length inner);
      check_int "not unrolled" 1 (List.hd inner).Block.meta.Block.unrolled);
  ]

let histogram_tests =
  let mk_cell speedup =
    {
      Impact_svc.Experiment.subject =
        { Impact_svc.Experiment.sname = "x"; group = "doall"; ast = vecadd_ast 4 };
      level = Impact_core.Level.Conv;
      machine = Machine.issue_8;
      cycles = 1;
      dyn_insns = 1;
      speedup;
      int_regs = 0;
      float_regs = 0;
    }
  in
  [
    test "bin edges are inclusive on the left" (fun () ->
      let cells = List.map mk_cell [ 0.5; 1.25; 1.49; 1.5; 3.0; 2.99 ] in
      let h =
        List.assoc Impact_core.Level.Conv
          (Impact_svc.Experiment.speedup_distribution
             ~bounds:Impact_svc.Experiment.fig8_bounds Machine.issue_8 cells)
      in
      (* bounds: 0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0 *)
      check_int "0.00-1.24" 1 h.(0);
      check_int "1.25-1.49" 2 h.(1);
      check_int "1.50-1.74" 1 h.(2);
      check_int "2.50-2.99" 1 h.(5);
      check_int "3.00+" 1 h.(6));
    test "labels align with bounds" (fun () ->
      check_int "fig8" (List.length Impact_svc.Experiment.fig8_bounds)
        (List.length Impact_svc.Experiment.fig8_labels);
      check_int "fig9" (List.length Impact_svc.Experiment.fig9_bounds)
        (List.length Impact_svc.Experiment.fig9_labels);
      check_int "fig10" (List.length Impact_svc.Experiment.fig10_bounds)
        (List.length Impact_svc.Experiment.fig10_labels);
      List.iter
        (fun (_, h) ->
          check_int "regs" (Array.length h) (List.length Impact_svc.Experiment.reg_labels))
        (Impact_svc.Experiment.register_distribution Machine.issue_8 []));
  ]

let sim_order_tests =
  [
    test "same-cycle instructions execute in program order" (fun () ->
      (* A write and an anti-dependent read sharing a cycle: the read
         (earlier in program order) must see the old value. *)
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "old" r2;
      output b "new" r1;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r1 (Operand.Int 5));
            Block.Ins (Build.ib ctx Insn.Add r2 (Operand.Reg r1) (Operand.Int 0));
            Block.Ins (Build.imov ctx r1 (Operand.Int 9));
          ]
      in
      let r = run ~machine:Machine.unlimited p in
      check_int "read old value" 5 (out_int r "old");
      check_int "final value" 9 (out_int r "new"));
    test "cycle count includes trailing latency" (fun () ->
      let b = irb () in
      let f1 = reg b Reg.Float in
      let ctx = b.ctx in
      output b "x" f1;
      let p =
        prog_of b
          [ Block.Ins (Build.fb ctx Insn.Fdiv f1 (Operand.Flt 1.0) (Operand.Flt 3.0)) ]
      in
      let r = run p in
      check_int "divide latency" 10 r.Impact_sim.Sim.cycles);
  ]

let cli_support_tests =
  [
    test "every workload name round-trips through find" (fun () ->
      List.iter
        (fun (w : Impact_workloads.Suite.t) ->
          match Impact_workloads.Suite.find w.Impact_workloads.Suite.name with
          | Some w' ->
            check_string "same" w.Impact_workloads.Suite.name
              w'.Impact_workloads.Suite.name
          | None -> Alcotest.fail "find failed")
        Impact_workloads.Suite.all);
  ]

let suite =
  [
    ("edge.formation", formation_tests);
    ("edge.unroll-meta", unroll_meta_tests);
    ("edge.histogram", histogram_tests);
    ("edge.sim-order", sim_order_tests);
    ("edge.cli", cli_support_tests);
  ]
