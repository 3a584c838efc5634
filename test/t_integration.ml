(* End-to-end integration tests: the full compile/schedule/simulate
   pipeline, cross-level and cross-machine invariants, the experiment
   harness, and the claims DESIGN.md makes about the evaluation setup. *)

open Impact_ir
open Impact_core
module Experiment = Impact_svc.Experiment
open Helpers

let test name f = Alcotest.test_case name `Quick f

let pipeline_tests =
  [
    test "all levels and machines preserve the classic kernels" (fun () ->
      List.iter
        (fun ast -> check_levels_preserve "integration" ast)
        [ vecadd_ast 47; dotprod_ast 53 ]);
    test "wider machines never run more cycles on compiled code" (fun () ->
      List.iter
        (fun ast ->
          let cycles issue =
            (measure Level.Lev4 (Machine.make ~issue ()) ast).Compile.cycles
          in
          let c1 = cycles 1 and c2 = cycles 2 and c4 = cycles 4 and c8 = cycles 8 in
          (* Each machine runs its own schedule; allow 5% slack for
             schedule-shape differences. *)
          let leq a b = float_of_int a <= float_of_int b *. 1.05 in
          check_bool "2<=1" true (leq c2 c1);
          check_bool "4<=2" true (leq c4 c2);
          check_bool "8<=4" true (leq c8 c4))
        [ vecadd_ast 128; dotprod_ast 128 ]);
    test "DOALL loops speed up superlinearly vs the base at issue-8" (fun () ->
      let base = measure Level.Conv Machine.issue_1 (vecadd_ast 256) in
      let m = measure Level.Lev4 Machine.issue_8 (vecadd_ast 256) in
      check_bool "speedup > 4" true (Compile.speedup ~base ~this:m > 4.0));
    test "transformation levels monotonically help the vector kernels" (fun () ->
      let ast = vecadd_ast 256 in
      let cycles lev = (measure lev Machine.issue_8 ast).Compile.cycles in
      let conv = cycles Level.Conv in
      let lev2 = cycles Level.Lev2 in
      let lev4 = cycles Level.Lev4 in
      check_bool "lev2 beats conv" true (lev2 < conv);
      check_bool "lev4 no worse than lev2 (5% slack)" true
        (float_of_int lev4 <= float_of_int lev2 *. 1.05));
    test "register usage grows with transformation level" (fun () ->
      let regs lev =
        let u = (measure lev Machine.issue_8 (dotprod_ast 64)).Compile.usage in
        u.Impact_regalloc.Regalloc.int_used + u.Impact_regalloc.Regalloc.float_used
      in
      check_bool "lev2 > conv" true (regs Level.Lev2 > regs Level.Conv);
      check_bool "lev4 >= lev2" true (regs Level.Lev4 >= regs Level.Lev2));
    test "simulated dynamic counts stay plausible" (fun () ->
      (* Unrolling must not grow the dynamic instruction count by more
         than the preconditioning + expansion overhead (say 2x). *)
      let conv = measure Level.Conv Machine.issue_8 (vecadd_ast 256) in
      let lev4 = measure Level.Lev4 Machine.issue_8 (vecadd_ast 256) in
      check_bool "no dynamic blow-up" true
        (lev4.Compile.dyn_insns < 2 * conv.Compile.dyn_insns));
  ]

let experiment_tests =
  let subjects =
    [
      { Experiment.sname = "add"; group = "doall"; ast = vecadd_ast 64 };
      { Experiment.sname = "dot"; group = "serial"; ast = dotprod_ast 64 };
      { Experiment.sname = "max"; group = "serial"; ast = maxval_ast 64 };
    ]
  in
  [
    test "run_all produces a full matrix" (fun () ->
      let cells =
        Experiment.run_all_with Opts.default [ Machine.issue_2; Machine.issue_8 ] Level.all subjects
      in
      check_int "3 subjects x 2 machines x 5 levels" 30 (List.length cells));
    test "filters select the expected slices" (fun () ->
      let cells = Experiment.run_all_with Opts.default [ Machine.issue_8 ] Level.all subjects in
      check_int "per level" 3
        (List.length (Experiment.filter_cells ~level:Level.Lev4 cells));
      check_int "doall subset" 5
        (List.length (Experiment.filter_cells ~group:"doall" cells));
      check_int "non-doall subset" 10
        (List.length (Experiment.filter_cells ~group:"non-doall" cells)));
    test "histograms bucket by bin lower bounds" (fun () ->
      let cells = Experiment.run_all_with Opts.default [ Machine.issue_8 ] Level.all subjects in
      let dist =
        Experiment.speedup_distribution ~bounds:Experiment.fig10_bounds Machine.issue_8
          cells
      in
      List.iter
        (fun (_, counts) -> check_int "rows account for all subjects" 3
            (Array.fold_left ( + ) 0 counts))
        dist);
    test "averages are sane" (fun () ->
      let cells = Experiment.run_all_with Opts.default [ Machine.issue_8 ] Level.all subjects in
      let s = Experiment.avg_speedup (Experiment.filter_cells ~level:Level.Lev4 cells) in
      check_bool "positive" true (s > 1.0 && s < 64.0));
    test "csv report has one row per cell plus header" (fun () ->
      let cells = Experiment.run_all_with Opts.default [ Machine.issue_8 ] [ Level.Conv ] subjects in
      let csv = Experiment.cells_csv cells in
      let lines = String.split_on_char '\n' (String.trim csv) in
      check_int "rows" 4 (List.length lines));
    test "distribution table renders all levels" (fun () ->
      let cells = Experiment.run_all_with Opts.default [ Machine.issue_8 ] Level.all subjects in
      let dist =
        Experiment.speedup_distribution ~bounds:Experiment.fig8_bounds Machine.issue_8 cells
      in
      let table =
        Report.distribution_table ~title:"t" ~labels:Experiment.fig8_labels dist
      in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun lev ->
          check_bool (Level.to_string lev) true (contains table (Level.to_string lev)))
        Level.all);
  ]

let capping_tests =
  [
    test "steady state: speedups insensitive to the iteration cap" (fun () ->
      (* DESIGN.md claims capped iteration counts do not change speedups
         materially; verify on three loops by doubling the count. *)
      List.iter
        (fun mk ->
          let speedup n =
            let ast = mk n in
            let base = measure Level.Conv Machine.issue_1 ast in
            let m = measure Level.Lev4 Machine.issue_8 ast in
            Compile.speedup ~base ~this:m
          in
          let s1 = speedup 256 and s2 = speedup 512 in
          if abs_float (s1 -. s2) > 0.15 *. s1 then
            Alcotest.failf "speedup drifts with trip count: %.2f vs %.2f" s1 s2)
        [ vecadd_ast; dotprod_ast; maxval_ast ]);
  ]

(* ---- the levels as pass lists ---- *)

let names passes = List.map fst passes

let pass_tests =
  [
    test "each level's pass names are pinned" (fun () ->
      let check level want =
        Alcotest.(check (list string)) (Level.to_string level) want
          (names (Level.pipeline level))
      in
      let lev1 = [ "conv"; "unroll"; "cleanup" ] in
      let lev4 =
        lev1
        @ [ "accum_expand"; "ind_expand"; "search_expand"; "rename"; "combine"; "strength";
            "tree_height"; "cleanup" ]
      in
      check Level.Conv [ "conv" ];
      check Level.Lev1 (lev1 @ [ "cleanup" ]);
      check Level.Lev2 (lev1 @ [ "rename"; "cleanup" ]);
      check Level.Lev3 (lev1 @ [ "rename"; "combine"; "strength"; "tree_height"; "cleanup" ]);
      check Level.Lev4 lev4;
      Alcotest.(check (list string)) "Conv's own steps"
        [ "branch_simplify"; "cleanup"; "licm"; "cleanup"; "ivopt_reduce"; "cleanup";
          "ivopt_eliminate"; "cleanup"; "branch_simplify" ]
        (names Impact_opt.Conv.passes));
    test "every pass preserves the corpus at every level" (fun () ->
      List.iter
        (fun (w : Impact_workloads.Suite.t) ->
          let fresh () = lower w.Impact_workloads.Suite.ast in
          List.iter
            (fun level ->
              let out = check_each_pass w.Impact_workloads.Suite.name level (fresh ()) in
              check_bool
                (Printf.sprintf "%s/%s: steps = Level.apply" w.Impact_workloads.Suite.name
                   (Level.to_string level))
                true
                (insns_equal_prog out (Level.apply level (fresh ()))))
            Level.all)
        Impact_workloads.Suite.all);
  ]

let suite =
  [
    ("integration.pipeline", pipeline_tests);
    ("integration.experiment", experiment_tests);
    ("integration.capping", capping_tests);
    ("integration.passes", pass_tests);
  ]
