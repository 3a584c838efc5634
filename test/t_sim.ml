(* Tests for the execution-driven simulator: functional semantics of
   every opcode, interlock timing, issue-width limits, branch behaviour,
   and memory checking. *)

open Impact_ir
open Helpers

let test name f = Alcotest.test_case name `Quick f

(* A tiny straight-line program computing into an output register. *)
let straight ops =
  let b = irb () in
  let entry = List.map (fun i -> Block.Ins i) (ops b) in
  prog_of b entry

let semantics_tests =
  [
    test "integer arithmetic" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let ctx = b.ctx in
      let entry =
        List.map (fun i -> Block.Ins i)
          [
            Build.imov ctx r1 (Operand.Int 17);
            Build.ib ctx Insn.Mul r2 (Operand.Reg r1) (Operand.Int 3);
            Build.ib ctx Insn.Rem r2 (Operand.Reg r2) (Operand.Int 7);
            Build.ib ctx Insn.Shl r2 (Operand.Reg r2) (Operand.Int 4);
            Build.ib ctx Insn.Sub r2 (Operand.Reg r2) (Operand.Int 1);
          ]
      in
      output b "x" r2;
      let r = run (prog_of b entry) in
      check_int "17*3 mod 7 shl 4 - 1" (((51 mod 7) lsl 4) - 1) (out_int r "x"));
    test "float arithmetic and conversion" (fun () ->
      let b = irb () in
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float and r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let entry =
        List.map (fun i -> Block.Ins i)
          [
            Build.imov ctx r1 (Operand.Int 7);
            Build.itof ctx f1 (Operand.Reg r1);
            Build.fb ctx Insn.Fdiv f2 (Operand.Reg f1) (Operand.Flt 2.0);
            Build.fb ctx Insn.Fsub f2 (Operand.Reg f2) (Operand.Flt 0.5);
          ]
      in
      output b "y" f2;
      let r = run (prog_of b entry) in
      check_close "7/2-0.5" 3.0 (out_flt r "y"));
    test "ftoi truncates toward zero" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let entry =
        List.map (fun i -> Block.Ins i) [ Build.ftoi ctx r1 (Operand.Flt (-2.7)) ]
      in
      output b "x" r1;
      check_int "-2.7 -> -2" (-2) (out_int (run (prog_of b entry)) "x"));
    test "loads and stores round-trip" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.5; 2.5; 3.5 |];
      let f1 = reg b Reg.Float in
      let ctx = b.ctx in
      let entry =
        List.map (fun i -> Block.Ins i)
          [
            Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 4);
            Build.fb ctx Insn.Fmul f1 (Operand.Reg f1) (Operand.Flt 2.0);
            Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 8) (Operand.Reg f1);
          ]
      in
      let r = run (prog_of b entry) in
      let a = array_out r "A" in
      check_close "A[2] = 2*A[1]" 5.0 a.(2));
    test "store-to-load through memory" (fun () ->
      let b = irb () in
      int_array b "N" [| 0 |];
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let ctx = b.ctx in
      let entry =
        List.map (fun i -> Block.Ins i)
          [
            Build.imov ctx r1 (Operand.Int 42);
            Build.store ctx Reg.Int (Operand.Lab "N") (Operand.Int 0) (Operand.Reg r1);
            Build.load ctx Reg.Int r2 (Operand.Lab "N") (Operand.Int 0);
          ]
      in
      output b "x" r2;
      check_int "forwarded" 42 (out_int (run (prog_of b entry)) "x"));
    test "division by zero traps" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let entry =
        List.map (fun i -> Block.Ins i)
          [ Build.ib ctx Insn.Div r1 (Operand.Int 3) (Operand.Int 0) ]
      in
      (try
         ignore (run (prog_of b entry));
         Alcotest.fail "expected trap"
       with Impact_sim.Sim.Error _ -> ()));
    test "misaligned access traps" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0 |];
      let f1 = reg b Reg.Float in
      let ctx = b.ctx in
      let entry =
        List.map (fun i -> Block.Ins i)
          [ Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 2) ]
      in
      (try
         ignore (run (prog_of b entry));
         Alcotest.fail "expected trap"
       with Impact_sim.Sim.Error _ -> ()));
    test "out-of-bounds access traps" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0; 2.0 |];
      let f1 = reg b Reg.Float in
      let ctx = b.ctx in
      let entry =
        List.map (fun i -> Block.Ins i)
          [ Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 8) ]
      in
      (try
         ignore (run (prog_of b entry));
         Alcotest.fail "expected trap"
       with Impact_sim.Sim.Error _ -> ()));
    test "class confusion traps" (fun () ->
      let b = irb () in
      int_array b "N" [| 3 |];
      let f1 = reg b Reg.Float in
      let ctx = b.ctx in
      let entry =
        List.map (fun i -> Block.Ins i)
          [ Build.load ctx Reg.Float f1 (Operand.Lab "N") (Operand.Int 0) ]
      in
      (try
         ignore (run (prog_of b entry));
         Alcotest.fail "expected trap"
       with Impact_sim.Sim.Error _ -> ()));
  ]

(* Issue timing captured via the trace hook. *)
let issue_times ?(machine = Machine.issue_1) p =
  let times = ref [] in
  let trace i ~cycle = times := (i.Insn.id, cycle) :: !times in
  ignore (Impact_sim.Sim.run_ref ~trace machine p);
  List.rev !times

let timing_tests =
  [
    test "load-use interlock is 2 cycles" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0 |];
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float in
      let ctx = b.ctx in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0) in
      let add = Build.fb ctx Insn.Fadd f2 (Operand.Reg f1) (Operand.Flt 1.0) in
      let p = prog_of b [ Block.Ins ld; Block.Ins add ] in
      (match issue_times ~machine:Machine.unlimited p with
      | [ (_, t0); (_, t1) ] ->
        check_int "load at 0" 0 t0;
        check_int "use at 2" 2 t1
      | _ -> Alcotest.fail "trace size"));
    test "fp add latency is 3" (fun () ->
      let b = irb () in
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float in
      let ctx = b.ctx in
      let a1 = Build.fb ctx Insn.Fadd f1 (Operand.Flt 1.0) (Operand.Flt 2.0) in
      let a2 = Build.fb ctx Insn.Fadd f2 (Operand.Reg f1) (Operand.Flt 1.0) in
      let p = prog_of b [ Block.Ins a1; Block.Ins a2 ] in
      (match issue_times ~machine:Machine.unlimited p with
      | [ (_, 0); (_, 3) ] -> ()
      | l -> Alcotest.failf "unexpected times: %d entries" (List.length l)));
    test "independent ops dual-issue at width 2" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let ctx = b.ctx in
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let i2 = Build.imov ctx r2 (Operand.Int 2) in
      let p = prog_of b [ Block.Ins i1; Block.Ins i2 ] in
      (match issue_times ~machine:Machine.issue_2 p with
      | [ (_, 0); (_, 0) ] -> ()
      | _ -> Alcotest.fail "expected both at cycle 0"));
    test "issue width 1 serializes" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let ctx = b.ctx in
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let i2 = Build.imov ctx r2 (Operand.Int 2) in
      let p = prog_of b [ Block.Ins i1; Block.Ins i2 ] in
      (match issue_times ~machine:Machine.issue_1 p with
      | [ (_, 0); (_, 1) ] -> ()
      | _ -> Alcotest.fail "expected cycles 0 and 1"));
    test "taken branch redirects next cycle" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let j = Build.jmp ctx "T" in
      let skipped = Build.imov ctx r1 (Operand.Int 9) in
      let target = Build.imov ctx r1 (Operand.Int 5) in
      output b "x" r1;
      let p = prog_of b [ Block.Ins j; Block.Ins skipped; Block.Lbl "T"; Block.Ins target ] in
      let r = run ~machine:Machine.unlimited p in
      check_int "skipped store" 5 (out_int r "x");
      (match issue_times ~machine:Machine.unlimited p with
      | [ (_, 0); (_, 1) ] -> ()
      | _ -> Alcotest.fail "jump at 0, target at 1"));
    test "untaken branch allows same-cycle fall-through" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let br = Build.br ctx Reg.Int Insn.Lt (Operand.Int 2) (Operand.Int 1) "T" in
      let fall = Build.imov ctx r1 (Operand.Int 5) in
      let p = prog_of b [ Block.Ins br; Block.Ins fall; Block.Lbl "T" ] in
      (match issue_times ~machine:Machine.unlimited p with
      | [ (_, 0); (_, 0) ] -> ()
      | _ -> Alcotest.fail "expected same cycle"));
    test "one branch slot per cycle" (fun () ->
      let b = irb () in
      let ctx = b.ctx in
      let br1 = Build.br ctx Reg.Int Insn.Lt (Operand.Int 2) (Operand.Int 1) "T" in
      let br2 = Build.br ctx Reg.Int Insn.Lt (Operand.Int 2) (Operand.Int 1) "T" in
      let p = prog_of b [ Block.Ins br1; Block.Ins br2; Block.Lbl "T" ] in
      (match issue_times ~machine:Machine.unlimited p with
      | [ (_, 0); (_, 1) ] -> ()
      | _ -> Alcotest.fail "branches must take separate cycles"));
    test "figure 1b: 7 cycles per iteration" (fun () ->
      (* The paper's base vector-add loop, hand-coded. *)
      let b = irb () in
      let n = 32 in
      float_array b "A" (Array.init n (fun k -> float_of_int k));
      float_array b "B" (Array.init n (fun k -> float_of_int (2 * k)));
      float_array b "C" (Array.make n 0.0);
      let ctx = b.ctx in
      let r1 = reg b Reg.Int and r5 = reg b Reg.Int in
      let r2 = reg b Reg.Float and r3 = reg b Reg.Float and r4 = reg b Reg.Float in
      let body =
        [
          Build.load ctx Reg.Float r2 (Operand.Lab "A") (Operand.Reg r1);
          Build.load ctx Reg.Float r3 (Operand.Lab "B") (Operand.Reg r1);
          Build.fb ctx Insn.Fadd r4 (Operand.Reg r2) (Operand.Reg r3);
          Build.store ctx Reg.Float (Operand.Lab "C") (Operand.Reg r1) (Operand.Reg r4);
          Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 4);
          Build.br ctx Reg.Int Insn.Lt (Operand.Reg r1) (Operand.Reg r5) "L1";
        ]
      in
      let entry =
        [
          Block.Ins (Build.imov ctx r1 (Operand.Int 0));
          Block.Ins (Build.imov ctx r5 (Operand.Int (n * 4)));
          Block.Loop
            { Block.lid = 1; head = "L1"; exit_lbl = "X1"; meta = Block.no_meta;
              body = List.map (fun i -> Block.Ins i) body };
        ]
      in
      let p = prog_of b entry in
      let r = run ~machine:Machine.unlimited p in
      (* 7 cycles per iteration in steady state. *)
      let per_iter = float_of_int r.Impact_sim.Sim.cycles /. float_of_int n in
      if per_iter < 6.9 || per_iter > 7.2 then
        Alcotest.failf "expected ~7 cycles/iter, got %.2f" per_iter;
      let c = array_out r "C" in
      Array.iteri
        (fun k x -> check_close "C[k]" (float_of_int (3 * k)) x)
        c);
  ]

let fuel_tests =
  [
    test "infinite loop hits fuel" (fun () ->
      let b = irb () in
      let ctx = b.ctx in
      let j = Build.jmp ctx "L" in
      let p = prog_of b [ Block.Lbl "L"; Block.Ins j ] in
      (try
         ignore (run ~fuel:1000 p);
         Alcotest.fail "expected timeout"
       with Impact_sim.Sim.Timeout -> ()));
  ]

let suite =
  [
    ("sim.semantics", semantics_tests);
    ("sim.timing", timing_tests);
    ("sim.fuel", fuel_tests);
  ]

let _ = straight
