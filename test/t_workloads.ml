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

(* MD5 of [Pp.prog_to_string] of every level's [Level.apply] output,
   concatenated Conv to Lev4: the whole transform pipeline, pinned per
   kernel. A refactor of a pass must leave these unchanged; an intended
   output change re-pins them and says so. *)
let pinned_transforms =
  [
    ("APS-1", "a9c230fa162350a5f0ada2964422a4bc");
    ("APS-2", "fae5d52d8281b742770b46924a1179e1");
    ("APS-3", "f8b4cb0d4f03a5161769cddf14433e28");
    ("CSS-1", "b134190121e332f1c6fcde1994f708b6");
    ("LWS-1", "250caffc304fd3d058bf6cedee8bff0e");
    ("LWS-2", "4b5f086dffd8c3c6f83b3a51101ec1ca");
    ("MTS-1", "f4253fba96b758762e61888f1bf38165");
    ("MTS-2", "4f87e356d94116bcdd6cec46d2455d96");
    ("NAS-1", "67b7459a6afb9d3b2a6443e1bf9cf9d8");
    ("NAS-2", "15019327c90e6dd308be3b5818a712be");
    ("NAS-3", "3cda099a02e2508fa0ba0de6a5f63ef9");
    ("NAS-4", "fea80f8ed92bb9c0eb209dfe443b6eee");
    ("NAS-5", "4771e0f232eeb7e11a09f397f37983b7");
    ("NAS-6", "51c3608ceebe4c6f64cc6fc0adedfed4");
    ("SDS-1", "fc1f2240e7cb88652d801bf2f1fbaaf4");
    ("SDS-2", "6fabcf907e962fa5ec7ae92223d6b71b");
    ("SDS-3", "2a1fbb5356a793446fe9d0cd6644befe");
    ("SDS-4", "2a62387dd3ae57ae4e34454f9f291c76");
    ("SRS-1", "ee06810d46d5dce33604dc5b8bf0fb01");
    ("SRS-2", "c74b30dfa0d8418a9c0e5775f1fdb959");
    ("SRS-3", "10214c4ecf966b595f0d84ade8c3588d");
    ("SRS-4", "af9fdfe4baff5eabf3ea983a507ee979");
    ("SRS-5", "4bb60d83b5587e52efa9e012958a4b41");
    ("SRS-6", "4b965e225bc621e7935564588ed8ef88");
    ("TFS-1", "83edb1523f4fa1e1b1635bd09d04e7ec");
    ("TFS-2", "edc70fd48979aec0954a2951863d6842");
    ("TFS-3", "e3dac0fa9f3ae78a713a3df1acd0763e");
    ("WSS-1", "b6dd3801b42c049399bcba3d9c5709aa");
    ("WSS-2", "79bc5ff8b4517c5b0650d0b37fbece62");
    ("doduc-1", "6881fe8dee6b5874d6b68985f1469c82");
    ("matrix300-1", "0f9a7e2177c513ab22486acfe28145e5");
    ("nasa7-1", "7c7cd15001a46f9f1026d18a04ca7dfe");
    ("nasa7-2", "db4841c2d827e6838e207d77fd04e59f");
    ("tomcatv-1", "ed42c6587a2096a4626ce88dfd7c610c");
    ("tomcatv-2", "426b74ac55a95db93e936785074e5165");
    ("add", "971cf260e902ed032dfc7671d25c4236");
    ("dotprod", "2497d931a666bb06cabcaae7f1a56ef5");
    ("maxval", "1406f9f6102eaf3bec018d1b298381da");
    ("merge", "ac149f51350679013a48f3ccda5ff621");
    ("sum", "95d06dada16d3e71a94d6381f1494948");
  ]

(* MD5 per kernel of the scheduled code at issue 8, Conv then Lev4, on
   [Superblock.run] output: the printed [List_sched.run] program, then
   the printed [Pipe.run_with_problems] program followed by every loop
   report line. Both schedulers and superblock formation, pinned per
   kernel; a refactor must leave these unchanged. The pipeliner numbers
   its new registers from the program's generator, so these pins also
   fix how many fresh ids the passes before it take. *)
let pinned_schedules =
  [
    ("APS-1", "5963a28117f50320b9c893e5ce4064e5");
    ("APS-2", "19028547ca5a3718f204baa803b915c7");
    ("APS-3", "567d701ec395191e2cb4ebec35b6a8a7");
    ("CSS-1", "7a81da71675d9464feb937fca63dd7b0");
    ("LWS-1", "1e8109b9c5502c890a4391a55f897ca6");
    ("LWS-2", "afc2ebf026616b1b4638d2d54d6cfd36");
    ("MTS-1", "11f83f6b6689c66f4c304a7e49817bd5");
    ("MTS-2", "6349717830fb126438fc015c88639c8a");
    ("NAS-1", "adef5b2d5479d6841561c493aef010fd");
    ("NAS-2", "19bfbcf8d2e60a377dd75ed84a66dc15");
    ("NAS-3", "2fe0fc4b26970147a6d186d9861f399b");
    ("NAS-4", "987eb0f5033603a9476634c25b8ef1c8");
    ("NAS-5", "04be2a55cee7254e8b16168fe8089c1c");
    ("NAS-6", "6d493293eb7c5d84eb62c97bdf0a95df");
    ("SDS-1", "5aaa2d2f31d43dcf5dcf4334d0306a50");
    ("SDS-2", "303311f12e925a550d1455967e08d050");
    ("SDS-3", "580a6cc623a1e3d073a3eb653769d878");
    ("SDS-4", "f67d43739f73b9ec832c809e1fb64c88");
    ("SRS-1", "a66d5a9fe14d663ccee888251ac7720a");
    ("SRS-2", "6e7d38d5802b383fce7eaf716d7cf8a1");
    ("SRS-3", "5e287d1f6f2f13767e7b7ca0a2127810");
    ("SRS-4", "bce6e78ce1c2c9700e12460fe3d335c5");
    ("SRS-5", "66071ae1528cd0880ccf2c7c6f4eb672");
    ("SRS-6", "53a97ebb0b74ee1556294e475a5db502");
    ("TFS-1", "60583043ec5655982bfa8e4e98125109");
    ("TFS-2", "e87826a54e01b3b7cd361da62cf27e28");
    ("TFS-3", "db54efa61a91fe5472bd29ff37f02ccd");
    ("WSS-1", "633f618f3db0d26c69aede8da7846050");
    ("WSS-2", "2555513f12a7c24164c5da6f23716fe7");
    ("doduc-1", "b98f7f47b693ddac78811d1dfc3d0356");
    ("matrix300-1", "53538de9e75dd0ed4868d116b3289f63");
    ("nasa7-1", "fb481790e6122c49e13487c945398229");
    ("nasa7-2", "2259bccf62c30a9d20fa3bc87ceeed67");
    ("tomcatv-1", "5c1e34cfdfbb71d386a3f77d2ba4330a");
    ("tomcatv-2", "6188f99863eb37644b1b849f96dd4cee");
    ("add", "697f76cc51596e88ce068eea4039bfbf");
    ("dotprod", "e7b5c4ec4cb4624628e7d8161fd7caec");
    ("maxval", "d66cef48b8cb9a7056924f1ad3d6c77f");
    ("merge", "26ddd8943cc945fc264180d104a22f6f");
    ("sum", "6d2bb1a4963b0b2d6a7cd19c1d5e2ae1");
  ]

let scheduled_text (w : Suite.t) =
  String.concat ""
    (List.map
       (fun l ->
         let sb = Impact_sched.Superblock.run (Impact_core.Level.apply l (lower w.Suite.ast)) in
         let piped, pairs = Impact_pipe.Pipe.run_with_problems Machine.issue_8 sb in
         Pp.prog_to_string (Impact_sched.List_sched.run Machine.issue_8 sb)
         ^ Pp.prog_to_string piped
         ^ String.concat ""
             (List.map (fun (r, _) -> Impact_pipe.Pipe.report_to_string r ^ "\n") pairs))
       [ Impact_core.Level.Conv; Impact_core.Level.Lev4 ])

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
    test "every kernel's transform pipeline output is pinned" (fun () ->
      check_int "rows" 40 (List.length pinned_transforms);
      List.iter
        (fun (w : Suite.t) ->
          let text =
            String.concat ""
              (List.map
                 (fun l -> Pp.prog_to_string (Impact_core.Level.apply l (lower w.Suite.ast)))
                 Impact_core.Level.all)
          in
          check_string w.Suite.name
            (List.assoc w.Suite.name pinned_transforms)
            (Digest.to_hex (Digest.string text)))
        Suite.all);
    test "every kernel's scheduled code is pinned" (fun () ->
      check_int "rows" 40 (List.length pinned_schedules);
      List.iter
        (fun (w : Suite.t) ->
          check_string w.Suite.name
            (List.assoc w.Suite.name pinned_schedules)
            (Digest.to_hex (Digest.string (scheduled_text w))))
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
