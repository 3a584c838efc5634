(* Smaller-surface tests: pretty-printing, instruction cloning, the
   optimizer walk helpers and the AST metadata helpers. *)

open Impact_ir
open Helpers

let test name f = Alcotest.test_case name `Quick f

let pp_tests =
  [
    test "program printing round-trips the paper notation" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0 |];
      let r1 = reg b Reg.Int and f1 = reg b Reg.Float in
      let ctx = b.ctx in
      output b "x" f1;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r1 (Operand.Int 0));
            Block.Ins (Build.load ctx Reg.Float f1 ~disp:4 (Operand.Lab "A") (Operand.Reg r1));
          ]
      in
      let s = Pp.prog_to_string p in
      let contains needle =
        let nh = String.length s and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
        go 0
      in
      check_bool "array decl" true (contains ".array A : real[1]");
      check_bool "load with displacement" true
        (contains (Printf.sprintf "%s = MEM(A+%s+4)" (Reg.to_string f1) (Reg.to_string r1)));
      check_bool "output" true (contains ".output x"));
  ]

let build_tests =
  [
    test "clone assigns a fresh id and copies sources" (fun () ->
      let ctx = Prog.make_ctx () in
      let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let i = Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1) in
      let j = Build.clone ctx i in
      check_bool "new id" true (j.Insn.id <> i.Insn.id);
      check_bool "same op" true (j.Insn.op = i.Insn.op);
      (* Mutating the clone's sources must not affect the original. *)
      j.Insn.srcs.(1) <- Operand.Int 99;
      check_bool "deep srcs" true (Operand.equal i.Insn.srcs.(1) (Operand.Int 1)));
    test "clone can retarget" (fun () ->
      let ctx = Prog.make_ctx () in
      let i = Build.jmp ctx "A" in
      let j = Build.clone ctx ~target:"B" i in
      check_bool "retargeted" true (j.Insn.target = Some "B");
      check_bool "original intact" true (i.Insn.target = Some "A"));
  ]

let walk_tests =
  [
    test "fixpoint stops when nothing changes" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r1;
      let p = prog_of b [ Block.Ins (Build.imov ctx r1 (Operand.Int 1)) ] in
      let calls = ref 0 in
      let pass q =
        incr calls;
        q
      in
      (match Impact_opt.Walk.fixpoint ~max_rounds:5 pass p with
      | _, Impact_opt.Walk.Converged 1 -> ()
      | _ -> Alcotest.fail "expected convergence in one round");
      check_int "one call" 1 !calls);
    test "fixpoint reports the cap" (fun () ->
      (* Each round appends an instruction: round 3 converges under a
         cap of 3 only if it changes nothing, so two rounds of growth
         then stop converge at 3, and endless growth is capped. *)
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r1;
      let p = prog_of b [ Block.Ins (Build.imov ctx r1 (Operand.Int 1)) ] in
      let calls = ref 0 in
      let grow limit q =
        incr calls;
        if Helpers.insn_count q > limit then q
        else
          Prog.with_entry q (q.Prog.entry @ [ Block.Ins (Build.imov ctx r1 (Operand.Int 1)) ])
      in
      (match Impact_opt.Walk.fixpoint ~max_rounds:3 (grow 2) p with
      | q, Impact_opt.Walk.Converged 3 -> check_int "grown twice" 3 (Helpers.insn_count q)
      | _ -> Alcotest.fail "expected convergence in three rounds");
      calls := 0;
      (match Impact_opt.Walk.fixpoint ~max_rounds:3 (grow max_int) p with
      | q, Impact_opt.Walk.Capped -> check_int "grown three times" 4 (Helpers.insn_count q)
      | _ -> Alcotest.fail "expected the cap");
      check_int "three calls" 3 !calls);
    test "rewrite_innermost_with_preheader sees the right prefix" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let pre1 = Build.imov ctx r1 (Operand.Int 0) in
      let inc = Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 3) "L" in
      let p =
        prog_of b
          [
            Block.Ins pre1;
            Block.Loop
              { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta;
                body = [ Block.Ins inc; Block.Ins back ] };
          ]
      in
      let seen_pre = ref (-1) in
      let _ =
        Block.map_innermost_with_preheader
          (fun pre l ->
            seen_pre := List.length pre;
            pre @ [ Block.Loop l ])
          p.Prog.entry
      in
      check_int "one preheader item" 1 !seen_pre);
  ]

let ast_tests =
  let open Impact_fir.Ast in
  [
    test "stmt_count counts nested statements" (fun () ->
      let stmts =
        [
          assign "s" (r 0.0);
          do_ "j" (i 1) (i 4)
            [ assign "s" (v "s" +: r 1.0); if_ CGt (v "s") (r 2.0) [ SCycle ] [] ];
        ]
      in
      check_int "count" 5 (stmt_count stmts));
    test "loop_depth of straight-line code is zero" (fun () ->
      check_int "zero" 0 (loop_depth [ assign "s" (r 0.0) ]));
    test "has_conditional is false without ifs" (fun () ->
      check_bool "no" false
        (has_conditional [ do_ "j" (i 1) (i 2) [ assign "s" (r 0.0) ] ]));
  ]

let machine_tests =
  [
    test "unlimited machine has a huge issue width" (fun () ->
      check_bool "big" true (Machine.unlimited.Machine.issue > 1000));
    test "make names machines by issue rate" (fun () ->
      check_string "name" "issue-16" (Machine.make ~issue:16 ()).Machine.name);
  ]

(* ---- bench CLI contract ----

   The bench driver rejects unknown modes with exit 2 and prints the
   mode list, and that list names the oracle modes — the dune test
   stanza depends on ../bench/main.exe so the binary is always fresh. *)

let run_bench args =
  let cmd =
    Filename.quote_command "../bench/main.exe" args ~stderr:"bench_cli_err.tmp"
  in
  let status = Sys.command (cmd ^ " > /dev/null") in
  let ic = open_in "bench_cli_err.tmp" in
  let len = in_channel_length ic in
  let err = really_input_string ic len in
  close_in ic;
  Sys.remove "bench_cli_err.tmp";
  (status, err)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let bench_cli_tests =
  [
    test "unknown mode exits 2 with the mode list" (fun () ->
      let status, err = run_bench [ "no-such-mode" ] in
      check_int "exit code" 2 status;
      check_bool "names the offender" true (contains err "unknown argument no-such-mode");
      check_bool "prints usage" true (contains err "usage:");
      check_bool "usage lists oracle" true (contains err "oracle");
      check_bool "usage lists oracle-smoke" true (contains err "oracle-smoke");
      let status, err = run_bench [ "bechamel" ] in
      check_int "bechamel exit code" 2 status;
      check_bool "names bechamel" true (contains err "unknown argument bechamel"));
    test "malformed -j exits 2" (fun () ->
      let status, _ = run_bench [ "-j"; "zero" ] in
      check_int "exit code" 2 status);
  ]

let suite =
  [
    ("misc.pp", pp_tests);
    ("misc.build", build_tests);
    ("misc.walk", walk_tests);
    ("misc.ast", ast_tests);
    ("misc.machine", machine_tests);
    ("misc.bench-cli", bench_cli_tests);
  ]
