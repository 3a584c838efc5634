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

(* Query.subject_digest of every kernel: the lowered program text, every
   array's contents and the output map. The values were taken before the
   kernels moved from OCaml builders to source files, so they pin each
   kernel's AST, and they are the result cache's keys: a change here
   orphans every stored entry for that kernel. *)
let pinned_digests =
  [
    ("APS-1", "e2186d4d5e56a716dbcde294aa838b40");
    ("APS-2", "9ed0ad52f6296a263e2c58bdb95fdecd");
    ("APS-3", "36ee58d13e28227d7a9c3638bfebfefe");
    ("CSS-1", "13451e6984d15b704eafc7c2f70df36a");
    ("LWS-1", "e78034d40cb4987d62ec788693130d60");
    ("LWS-2", "3a85b1696733fdf39f661b557a2d686f");
    ("MTS-1", "efbab578d6fa98211ee65d68702b83d5");
    ("MTS-2", "2c3ca39fc51c868776518ead4e84befe");
    ("NAS-1", "78725753aab6f30c283d00cb4d7a5986");
    ("NAS-2", "270a981e792a519eeb4aed78988380f2");
    ("NAS-3", "ec591749211f1eac159dcb2134b5a674");
    ("NAS-4", "c1a213e02882b7258ec515e2763455ce");
    ("NAS-5", "911b2952a85ee51f50d9e49c01ba1efc");
    ("NAS-6", "5e56e55d5d8d73e1d68e5b3cd692e8ec");
    ("SDS-1", "4a5deb6d2db014236351301ec1e8bf4a");
    ("SDS-2", "51bd063646cffe6fda267ca8e78bd8df");
    ("SDS-3", "21f215710296f6ff8d56fd6c3125917d");
    ("SDS-4", "2d207794be18c94023b9b061dcf8122f");
    ("SRS-1", "e6cf9dec04e90bf010d3d19d68822e7f");
    ("SRS-2", "7ed9615823c2e6e53fc03cce9537b65f");
    ("SRS-3", "bb6cb13ce13896a75c9e33d506ac0158");
    ("SRS-4", "5130a1eed1453b9737a75654092b2ed3");
    ("SRS-5", "18eb567ccde5b242afe1c13f97171cc2");
    ("SRS-6", "47223c60234fb3d943918cd2c10f39d7");
    ("TFS-1", "256f4a74de8fbc1fe642bfe81776121b");
    ("TFS-2", "00e432a3946a3c569b6bf821abb40813");
    ("TFS-3", "d95cc5bf4b1bfcbadf15d997ded6ca55");
    ("WSS-1", "98d1b8132c388ad4718cd2056ffa975e");
    ("WSS-2", "31f63cba78fd1ddd61b879ba217b3767");
    ("doduc-1", "6909f7dc280c68d70c826dfc0296f95c");
    ("matrix300-1", "fd18fb6b0c9a8eebe8fce6858f9a06f3");
    ("nasa7-1", "89b4fbe85cde981721f882625e82a2dd");
    ("nasa7-2", "2d1c5d527641306bb65a13bb2e872d55");
    ("tomcatv-1", "d714bbc0d154f9c546d75503b58e0cf1");
    ("tomcatv-2", "35f15038d8164f5758ffe6248a6cac17");
    ("add", "25a2b45f18316eb071a29399a6304434");
    ("dotprod", "23660d8463f67437fc7348866a4f9735");
    ("maxval", "e3c6ebface4de8da51ebbdd29da1652f");
    ("merge", "91abb86e1e995ccddfb12f0d65df0c40");
    ("sum", "fe40a34993f68a6c016d712a789e0077");
  ]

let corpus_dir = "../lib/workloads/table2"

let corpus_tests =
  [
    test "every kernel's subject digest is pinned" (fun () ->
      check_int "rows" 40 (List.length pinned_digests);
      List.iter
        (fun (w : Suite.t) ->
          check_string w.Suite.name
            (List.assoc w.Suite.name pinned_digests)
            (Impact_svc.Query.subject_digest w.Suite.ast))
        Suite.all);
    test "each table2 file has one table row, each row one file" (fun () ->
      let files =
        Sys.readdir corpus_dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".f")
        |> List.map Filename.chop_extension |> List.sort compare
      in
      let rows = List.sort compare (List.map (fun (w : Suite.t) -> w.Suite.name) Suite.all) in
      check_bool "same names" true (files = rows));
    test "the file on disk is the kernel run -l compiles" (fun () ->
      List.iter
        (fun (w : Suite.t) ->
          let path = Filename.concat corpus_dir (w.Suite.name ^ ".f") in
          check_string w.Suite.name
            (Impact_svc.Query.subject_digest w.Suite.ast)
            (Impact_svc.Query.subject_digest (Impact_fir.Parse.parse_file path)))
        Suite.all);
    test "every innermost loop runs to sim_iters" (fun () ->
      (* The files fix their sizes at min iters sim_cap; a new cap means
         regenerating them. *)
      let rec innermost_his stmts =
        List.concat_map
          (function
            | Impact_fir.Ast.SDo d ->
              if Impact_fir.Ast.loop_depth d.body = 0 then [ d.hi ] else innermost_his d.body
            | _ -> [])
          stmts
      in
      List.iter
        (fun (w : Suite.t) ->
          check_bool w.Suite.name true
            (innermost_his w.Suite.ast.Impact_fir.Ast.stmts
            = [ Impact_fir.Ast.EInt w.Suite.sim_iters ]))
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
    ("workloads.corpus", corpus_tests);
    ("workloads.classification", classification_tests);
    ("workloads.correctness", correctness_tests);
    ("workloads.deep", deep_tests);
  ]
