(* Tests for the 40-loop Table 2 workload suite: structure, metadata
   consistency (including our classifier agreeing with the published
   labels) and end-to-end correctness at Lev4. *)

open Impact_ir
open Impact_workloads
open Helpers

let test name f = Alcotest.test_case name `Quick f

let classify_ours (w : Suite.t) =
  let p = Impact_opt.Conv.run (lower w.Suite.ast) in
  match List.filter Block.is_innermost (Block.loops p.Prog.entry) with
  | l :: _ -> (
    match Impact_analysis.Classify.classify l with
    | Impact_analysis.Classify.Doall -> Suite.Doall
    | Impact_analysis.Classify.Doacross -> Suite.Doacross
    | Impact_analysis.Classify.Serial -> Suite.Serial)
  | [] -> Alcotest.fail "no innermost loop"

let structural_tests =
  [
    test "there are exactly 40 loop nests" (fun () ->
      check_int "count" 40 (List.length Suite.all));
    test "names are unique" (fun () ->
      let names = List.map (fun (w : Suite.t) -> w.Suite.name) Suite.all in
      check_int "unique" 40 (List.length (List.sort_uniq compare names)));
    test "origins partition as 29 PERFECT + 6 SPEC + 5 VECTOR" (fun () ->
      let count o =
        List.length (List.filter (fun (w : Suite.t) -> w.Suite.origin = o) Suite.all)
      in
      check_int "PERFECT" 29 (count "PERFECT");
      check_int "SPEC" 6 (count "SPEC");
      check_int "VECTOR" 5 (count "VECTOR"));
    test "find works" (fun () ->
      check_bool "found" true (Suite.find "dotprod" <> None);
      check_bool "missing" true (Suite.find "nonesuch" = None));
    test "sim_iters is capped" (fun () ->
      List.iter
        (fun (w : Suite.t) ->
          check_bool "cap" true (w.Suite.sim_iters <= 512);
          check_bool "cap only shrinks" true (w.Suite.sim_iters <= w.Suite.iters))
        Suite.all);
    test "declared nesting depth matches the AST" (fun () ->
      List.iter
        (fun (w : Suite.t) ->
          check_int (w.Suite.name ^ " nest") w.Suite.nest
            (Impact_fir.Ast.loop_depth w.Suite.ast.Impact_fir.Ast.stmts))
        Suite.all);
    test "declared conditionals match the AST" (fun () ->
      List.iter
        (fun (w : Suite.t) ->
          check_bool (w.Suite.name ^ " conds") w.Suite.conds
            (Impact_fir.Ast.has_conditional w.Suite.ast.Impact_fir.Ast.stmts))
        Suite.all);
    test "innermost body size approximates the paper's line count" (fun () ->
      (* Each kernel's innermost statement count should be within a factor
         of ~2 of the published source-line count (the published number
         counts FORTRAN lines; ours counts statements). *)
      List.iter
        (fun (w : Suite.t) ->
          let rec innermost_stmts stmts =
            let open Impact_fir.Ast in
            List.fold_left
              (fun acc s ->
                match s with
                | SDo d ->
                  if loop_depth d.body = 0 then max acc (stmt_count d.body)
                  else max acc (innermost_stmts d.body)
                | SIf (_, a, b) -> max acc (max (innermost_stmts a) (innermost_stmts b))
                | SAssign _ | SCycle -> acc)
              0 stmts
          in
          let got = innermost_stmts w.Suite.ast.Impact_fir.Ast.stmts in
          if got * 3 < w.Suite.size || got > (w.Suite.size * 3) + 3 then
            Alcotest.failf "%s: %d statements vs published %d lines" w.Suite.name got
              w.Suite.size)
        Suite.all);
  ]

(* One classification test per workload: our dependence analysis must
   agree with the published Table 2 label on our kernels. *)
let classification_tests =
  List.map
    (fun (w : Suite.t) ->
      test (w.Suite.name ^ " classifies as " ^ Suite.ltype_to_string w.Suite.ltype)
        (fun () ->
          check_string "class"
            (Suite.ltype_to_string w.Suite.ltype)
            (Suite.ltype_to_string (classify_ours w))))
    Suite.all

(* End-to-end correctness: Lev4 at issue-8 preserves every observable of
   every workload. *)
let correctness_tests =
  List.map
    (fun (w : Suite.t) ->
      test (w.Suite.name ^ " Lev4 preserves semantics") (fun () ->
        let base = run (lower w.Suite.ast) in
        let m = measure Impact_core.Level.Lev4 Machine.issue_8 w.Suite.ast in
        same_observables w.Suite.name base m.Impact_core.Compile.result))
    Suite.all

(* A broader sweep (marked Slow): every level on two further machine
   shapes, plus an odd unroll factor that forces the preconditioning
   paths. *)
let deep_tests =
  [
    Alcotest.test_case "deep sweep: all levels, issue-2 and unlimited" `Slow
      (fun () ->
        List.iter
          (fun (w : Suite.t) ->
            let base = run (lower w.Suite.ast) in
            List.iter
              (fun lev ->
                List.iter
                  (fun machine ->
                    let m = measure lev machine w.Suite.ast in
                    same_observables
                      (Printf.sprintf "%s/%s/%s" w.Suite.name
                         (Impact_core.Level.to_string lev) machine.Machine.name)
                      base m.Impact_core.Compile.result)
                  [ Machine.issue_2; Machine.unlimited ])
              Impact_core.Level.all)
          Suite.all);
    Alcotest.test_case "deep sweep: unroll factor 5 at Lev4" `Slow (fun () ->
      List.iter
        (fun (w : Suite.t) ->
          let base = run (lower w.Suite.ast) in
          let m =
            measure ~unroll_factor:5 Impact_core.Level.Lev4 Machine.issue_8 w.Suite.ast
          in
          same_observables (w.Suite.name ^ "/u5") base m.Impact_core.Compile.result)
        Suite.all);
  ]

let suite =
  [
    ("workloads.structure", structural_tests);
    ("workloads.classification", classification_tests);
    ("workloads.correctness", correctness_tests);
    ("workloads.deep", deep_tests);
  ]
