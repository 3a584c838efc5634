(* Tests for the classical optimizer: folding, propagation, CSE, DCE,
   LICM and the induction-variable optimizations. *)

open Impact_ir
open Impact_opt
open Helpers

let test name f = Alcotest.test_case name `Quick f

let insn_count = Helpers.insn_count

(* Count instructions matching a predicate anywhere in the program. *)
let count_if (p : Prog.t) f =
  List.length (List.filter f (Block.insns p.Prog.entry))

let is_mul (i : Insn.t) = i.Insn.op = Insn.IBin Insn.Mul

let is_load (i : Insn.t) = Insn.is_load i

(* One round of [Conv.cleanup]. *)
let sweep_round (p : Prog.t) = Dce.run (Cse.run p)

(* The folding, propagation and CSE groups pin each old single pass's
   output through [Cleanup_ref]; where an assertion holds for the
   combined sweep too, it also runs against [Cse.run]. The combined
   cases after them check what the old passes needed extra rounds for. *)

let fold_tests =
  [
    test "constant arithmetic folds to a move" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r1;
      let p =
        prog_of b [ Block.Ins (Build.ib ctx Insn.Mul r1 (Operand.Int 6) (Operand.Int 7)) ]
      in
      List.iter
        (fun pass ->
          let p = pass p in
          (match Block.insns p.Prog.entry with
          | [ { Insn.op = Insn.IMov; srcs = [| Operand.Int 42 |]; _ } ] -> ()
          | _ -> Alcotest.fail "expected mov 42");
          check_int "value" 42 (out_int (run p) "x"))
        [ Cleanup_ref.fold; Cse.run ]);
    test "x*1, x+0, x-0 simplify" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int and r4 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r4;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r1 (Operand.Int 5));
            Block.Ins (Build.ib ctx Insn.Mul r2 (Operand.Reg r1) (Operand.Int 1));
            Block.Ins (Build.ib ctx Insn.Add r3 (Operand.Reg r2) (Operand.Int 0));
            Block.Ins (Build.ib ctx Insn.Sub r4 (Operand.Reg r3) (Operand.Int 0));
          ]
      in
      List.iter
        (fun pass ->
          let p' = pass p in
          check_int "no arithmetic left" 0
            (count_if p' (fun i -> match i.Insn.op with Insn.IBin _ -> true | _ -> false));
          check_int "value preserved" 5 (out_int (run p') "x"))
        [ Cleanup_ref.fold; Cse.run ]);
    test "x*0 and float identities" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float in
      let ctx = b.ctx in
      output b "x" r2;
      output b "y" f2;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r1 (Operand.Int 5));
            Block.Ins (Build.ib ctx Insn.Mul r2 (Operand.Reg r1) (Operand.Int 0));
            Block.Ins (Build.fmov ctx f1 (Operand.Flt 2.5));
            Block.Ins (Build.fb ctx Insn.Fmul f2 (Operand.Reg f1) (Operand.Flt 1.0));
          ]
      in
      List.iter
        (fun pass ->
          let r = run (pass p) in
          check_int "x" 0 (out_int r "x");
          check_close "y" 2.5 (out_flt r "y"))
        [ Cleanup_ref.fold; Cse.run ]);
    test "constant-condition branch becomes jump or disappears" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r1;
      let p =
        prog_of b
          [
            Block.Ins (Build.br ctx Reg.Int Insn.Lt (Operand.Int 1) (Operand.Int 2) "T");
            Block.Ins (Build.imov ctx r1 (Operand.Int 9));
            Block.Lbl "T";
            Block.Ins (Build.imov ctx r1 (Operand.Int 5));
            Block.Ins (Build.br ctx Reg.Int Insn.Gt (Operand.Int 1) (Operand.Int 2) "U");
            Block.Lbl "U";
          ]
      in
      List.iter
        (fun pass ->
          let p' = pass p in
          check_int "one jump, no branches" 1 (count_if p' (fun i -> i.Insn.op = Insn.Jmp));
          check_int "taken" 5 (out_int (run p') "x"))
        [ Cleanup_ref.fold; Cse.run ]);
    test "self-move disappears" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let p = prog_of b [ Block.Ins (Build.imov ctx r1 (Operand.Reg r1)) ] in
      check_int "removed" 0 (insn_count (Cleanup_ref.fold p));
      check_int "removed in the sweep" 0 (insn_count (Cse.run p)));
  ]

let propagate_tests =
  [
    test "copies propagate into uses" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r3;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r1 (Operand.Int 7));
            Block.Ins (Build.imov ctx r2 (Operand.Reg r1));
            Block.Ins (Build.ib ctx Insn.Add r3 (Operand.Reg r2) (Operand.Reg r2));
          ]
      in
      let p' = Cleanup_ref.propagate p in
      (* The add now reads the constant directly. *)
      let add = List.nth (Block.insns p'.Prog.entry) 2 in
      check_bool "const operand" true (Operand.equal add.Insn.srcs.(0) (Operand.Int 7));
      check_int "value" 14 (out_int (run p') "x");
      check_int "value after the sweep" 14 (out_int (run (Cse.run p)) "x"));
    test "binding killed when source is redefined" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r3;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r1 (Operand.Int 7));
            Block.Ins (Build.imov ctx r2 (Operand.Reg r1));
            Block.Ins (Build.imov ctx r1 (Operand.Int 100));
            Block.Ins (Build.imov ctx r3 (Operand.Reg r2));
          ]
      in
      List.iter
        (fun pass -> check_int "old value survives" 7 (out_int (run (pass p)) "x"))
        [ Cleanup_ref.propagate; Cse.run ]);
    test "knowledge reset at labels" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int and g = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r2;
      (* r1 is 1 or 2 depending on the branch; after the join it must not
         be treated as the constant 1. *)
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx g (Operand.Int 1));
            Block.Ins (Build.imov ctx r1 (Operand.Int 1));
            Block.Ins (Build.br ctx Reg.Int Insn.Gt (Operand.Reg g) (Operand.Int 0) "J");
            Block.Ins (Build.imov ctx r1 (Operand.Int 2));
            Block.Lbl "J";
            Block.Ins (Build.imov ctx r2 (Operand.Reg r1));
          ]
      in
      List.iter
        (fun pass -> check_int "join-safe" 1 (out_int (run (pass p)) "x"))
        [ Cleanup_ref.propagate; Cse.run ]);
  ]

let cse_tests =
  [
    test "repeated expression collapses" (fun () ->
      let b = irb () in
      let r0 = reg b Reg.Int in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r3;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r0 (Operand.Int 3));
            Block.Ins (Build.ib ctx Insn.Mul r1 (Operand.Reg r0) (Operand.Int 4));
            Block.Ins (Build.ib ctx Insn.Mul r2 (Operand.Reg r0) (Operand.Int 4));
            Block.Ins (Build.ib ctx Insn.Add r3 (Operand.Reg r1) (Operand.Reg r2));
          ]
      in
      let p' = Cleanup_ref.cse p in
      check_int "one multiply left" 1 (count_if p' is_mul);
      check_int "value" 24 (out_int (run p') "x");
      (* The sweep propagates r0 = 3 first, so everything folds. *)
      let p' = Cse.run p in
      check_int "no multiply left after the sweep" 0 (count_if p' is_mul);
      check_int "value after the sweep" 24 (out_int (run p') "x"));
    test "commutative operands match" (fun () ->
      let b = irb () in
      let a = reg b Reg.Int and c = reg b Reg.Int in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r3;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx a (Operand.Int 3));
            Block.Ins (Build.imov ctx c (Operand.Int 9));
            Block.Ins (Build.ib ctx Insn.Add r1 (Operand.Reg a) (Operand.Reg c));
            Block.Ins (Build.ib ctx Insn.Add r2 (Operand.Reg c) (Operand.Reg a));
            Block.Ins (Build.ib ctx Insn.Sub r3 (Operand.Reg r1) (Operand.Reg r2));
          ]
      in
      let p' = Cleanup_ref.cse p in
      check_int "one add left" 1
        (count_if p' (fun i -> i.Insn.op = Insn.IBin Insn.Add));
      check_int "value" 0 (out_int (run p') "x");
      check_int "value after the sweep" 0 (out_int (run (Cse.run p)) "x"));
    test "commutative operands match in the sweep" (fun () ->
      (* As above with loaded operands, which do not fold. *)
      let b = irb () in
      int_array b "S" [| 3; 9 |];
      let a = reg b Reg.Int and c = reg b Reg.Int in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r3;
      let p =
        prog_of b
          [
            Block.Ins (Build.load ctx Reg.Int a (Operand.Lab "S") (Operand.Int 0));
            Block.Ins (Build.load ctx Reg.Int c (Operand.Lab "S") (Operand.Int 4));
            Block.Ins (Build.ib ctx Insn.Add r1 (Operand.Reg a) (Operand.Reg c));
            Block.Ins (Build.ib ctx Insn.Add r2 (Operand.Reg c) (Operand.Reg a));
            Block.Ins (Build.ib ctx Insn.Sub r3 (Operand.Reg r1) (Operand.Reg r2));
          ]
      in
      let p' = Cse.run p in
      check_int "one add left" 1 (count_if p' (fun i -> i.Insn.op = Insn.IBin Insn.Add));
      (* r2's copy of r1 reaches the subtraction in the same sweep. *)
      check_bool "r1 - r1" true
        (List.exists
           (fun (i : Insn.t) ->
             i.Insn.op = Insn.IBin Insn.Sub
             && Operand.equal i.Insn.srcs.(0) (Operand.Reg r1)
             && Operand.equal i.Insn.srcs.(1) (Operand.Reg r1))
           (Block.insns p'.Prog.entry));
      check_int "value" 0 (out_int (run p') "x"));
    test "redundant load eliminated; store kills same array only" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0; 2.0 |];
      float_array b "B" [| 5.0 |];
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float and f3 = reg b Reg.Float in
      let f4 = reg b Reg.Float in
      let ctx = b.ctx in
      output b "x" f4;
      let p =
        prog_of b
          [
            Block.Ins (Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0));
            Block.Ins (Build.load ctx Reg.Float f2 (Operand.Lab "A") (Operand.Int 0));
            Block.Ins (Build.store ctx Reg.Float (Operand.Lab "B") (Operand.Int 0) (Operand.Flt 9.0));
            (* The store to B must not kill knowledge of A. *)
            Block.Ins (Build.load ctx Reg.Float f3 (Operand.Lab "A") (Operand.Int 0));
            Block.Ins
              (Build.fb ctx Insn.Fadd f4 (Operand.Reg f2) (Operand.Reg f3));
          ]
      in
      List.iter
        (fun pass ->
          let p' = pass p in
          check_int "one load left" 1 (count_if p' is_load);
          check_close "value" 2.0 (out_flt (run p') "x"))
        [ Cleanup_ref.cse; Cse.run ]);
    test "store to same array kills loads" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0; 2.0 |];
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float and w = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" f2;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx w (Operand.Int 0));
            Block.Ins (Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0));
            Block.Ins (Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Reg w) (Operand.Flt 9.0));
            Block.Ins (Build.load ctx Reg.Float f2 (Operand.Lab "A") (Operand.Int 0));
          ]
      in
      let p' = Cleanup_ref.cse p in
      check_int "both loads survive" 2 (count_if p' is_load);
      check_close "sees the store" 9.0 (out_flt (run p') "x");
      (* The sweep propagates w = 0 into the store, which then forwards
         9.0 to the second load. *)
      let p' = Cse.run p in
      check_int "one load left after the sweep" 1 (count_if p' is_load);
      check_close "sees the store after the sweep" 9.0 (out_flt (run p') "x"));
    test "store-to-load forwarding" (fun () ->
      let b = irb () in
      float_array b "A" [| 0.0 |];
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float in
      let ctx = b.ctx in
      output b "x" f2;
      let p =
        prog_of b
          [
            Block.Ins (Build.fmov ctx f1 (Operand.Flt 3.5));
            Block.Ins (Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 0) (Operand.Reg f1));
            Block.Ins (Build.load ctx Reg.Float f2 (Operand.Lab "A") (Operand.Int 0));
          ]
      in
      List.iter
        (fun pass ->
          let p' = pass p in
          check_int "load forwarded away" 0 (count_if p' is_load);
          check_close "value" 3.5 (out_flt (run p') "x"))
        [ Cleanup_ref.cse; Cse.run ]);
    (* A store invalidates by array label: a store to [A] visits the
       entries of [A] and those with a non-label base; a store through a
       register base visits them all. The register base [rb] below is
       [A]'s address plus a loaded 0, so the sweep cannot fold it into a
       label. *)
    test "a store to A keeps B's available load and stored value" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0; 2.0 |];
      float_array b "B" [| 5.0; 6.0 |];
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float and f3 = reg b Reg.Float in
      let x = reg b Reg.Float and y = reg b Reg.Float in
      let ctx = b.ctx in
      output b "x" x;
      output b "y" y;
      let p =
        prog_of b
          [
            Block.Ins (Build.store ctx Reg.Float (Operand.Lab "B") (Operand.Int 4) (Operand.Flt 7.0));
            Block.Ins (Build.load ctx Reg.Float f1 (Operand.Lab "B") (Operand.Int 0));
            Block.Ins (Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 0) (Operand.Flt 9.0));
            Block.Ins (Build.load ctx Reg.Float f2 (Operand.Lab "B") (Operand.Int 0));
            Block.Ins (Build.load ctx Reg.Float f3 (Operand.Lab "B") (Operand.Int 4));
            Block.Ins (Build.fb ctx Insn.Fadd x (Operand.Reg f1) (Operand.Reg f2));
            Block.Ins (Build.fb ctx Insn.Fadd y (Operand.Reg f3) (Operand.Flt 0.5));
          ]
      in
      let p' = Cse.run p in
      check_int "only the first load of B is left" 1 (count_if p' is_load);
      check_close "x" 10.0 (out_flt (run p') "x");
      check_close "y" 7.5 (out_flt (run p') "y"));
    test "a store to A kills loads of A and loads through a register base" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0; 2.0 |];
      int_array b "Z" [| 0 |];
      let r = reg b Reg.Int and rb = reg b Reg.Int in
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float and f3 = reg b Reg.Float in
      let f4 = reg b Reg.Float and x = reg b Reg.Float in
      let ctx = b.ctx in
      output b "x" x;
      let p =
        prog_of b
          [
            Block.Ins (Build.load ctx Reg.Int r (Operand.Lab "Z") (Operand.Int 0));
            Block.Ins (Build.ib ctx Insn.Add rb (Operand.Reg r) (Operand.Lab "A"));
            Block.Ins (Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0));
            Block.Ins (Build.load ctx Reg.Float f2 (Operand.Reg rb) (Operand.Int 4));
            Block.Ins (Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 4) (Operand.Flt 9.0));
            Block.Ins (Build.load ctx Reg.Float f3 (Operand.Lab "A") (Operand.Int 0));
            Block.Ins (Build.load ctx Reg.Float f4 (Operand.Reg rb) (Operand.Int 4));
            Block.Ins (Build.fb ctx Insn.Fadd x (Operand.Reg f3) (Operand.Reg f4));
          ]
      in
      let p' = Cse.run p in
      let loads_from base =
        count_if p' (fun i -> is_load i && Operand.equal i.Insn.srcs.(0) base)
      in
      check_int "both loads of A[0]" 2 (loads_from (Operand.Lab "A"));
      check_int "both loads through rb" 2 (loads_from (Operand.Reg rb));
      check_close "value" 10.0 (out_flt (run p') "x"));
    test "a store through a register base kills every load and stored value" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0; 2.0 |];
      float_array b "B" [| 5.0 |];
      int_array b "Z" [| 0 |];
      let r = reg b Reg.Int and rb = reg b Reg.Int in
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float and f3 = reg b Reg.Float in
      let x = reg b Reg.Float in
      let ctx = b.ctx in
      output b "x" x;
      let p =
        prog_of b
          [
            Block.Ins (Build.load ctx Reg.Int r (Operand.Lab "Z") (Operand.Int 0));
            Block.Ins (Build.ib ctx Insn.Add rb (Operand.Reg r) (Operand.Lab "A"));
            Block.Ins (Build.store ctx Reg.Float (Operand.Lab "B") (Operand.Int 0) (Operand.Flt 7.0));
            Block.Ins (Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0));
            Block.Ins (Build.store ctx Reg.Float (Operand.Reg rb) (Operand.Int 0) (Operand.Flt 3.0));
            Block.Ins (Build.load ctx Reg.Float f2 (Operand.Lab "A") (Operand.Int 0));
            Block.Ins (Build.load ctx Reg.Float f3 (Operand.Lab "B") (Operand.Int 0));
            Block.Ins (Build.fb ctx Insn.Fadd x (Operand.Reg f2) (Operand.Reg f3));
          ]
      in
      let p' = Cse.run p in
      let loads_from base =
        count_if p' (fun i -> is_load i && Operand.equal i.Insn.srcs.(0) base)
      in
      check_int "A[0] is loaded again" 2 (loads_from (Operand.Lab "A"));
      check_int "B[0] is loaded, not forwarded" 1 (loads_from (Operand.Lab "B"));
      check_close "value" 10.0 (out_flt (run p') "x"));
    test "a store forwards to a load at its own address, label or register base" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0; 2.0 |];
      int_array b "Z" [| 0 |];
      let r = reg b Reg.Int and rb = reg b Reg.Int in
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float and x = reg b Reg.Float in
      let ctx = b.ctx in
      output b "x" x;
      let p =
        prog_of b
          [
            Block.Ins (Build.load ctx Reg.Int r (Operand.Lab "Z") (Operand.Int 0));
            Block.Ins (Build.ib ctx Insn.Add rb (Operand.Reg r) (Operand.Lab "A"));
            Block.Ins (Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 0) (Operand.Flt 1.5));
            Block.Ins (Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 0) (Operand.Flt 2.5));
            Block.Ins (Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0));
            Block.Ins (Build.store ctx Reg.Float (Operand.Reg rb) (Operand.Int 4) (Operand.Flt 4.5));
            Block.Ins (Build.load ctx Reg.Float f2 (Operand.Reg rb) (Operand.Int 4));
            Block.Ins (Build.fb ctx Insn.Fadd x (Operand.Reg f1) (Operand.Reg f2));
          ]
      in
      let p' = Cse.run p in
      check_int "only the load of Z is left" 1 (count_if p' is_load);
      check_close "value" 7.0 (out_flt (run p') "x"));
  ]

(* ---- the combined sweep: what the old passes needed extra rounds for,
   and its kills ---- *)

let count_op (p : Prog.t) op = count_if p (fun i -> i.Insn.op = op)

(* The instruction defining [d]; fails unless there is exactly one. *)
let def_of (p : Prog.t) (d : Reg.t) =
  match
    List.filter
      (fun (i : Insn.t) -> match i.Insn.dst with Some r -> Reg.equal r d | None -> false)
      (Block.insns p.Prog.entry)
  with
  | [ i ] -> i
  | l -> Alcotest.failf "%d definitions of %s" (List.length l) (Reg.to_string d)

let reads (i : Insn.t) (r : Reg.t) = Array.exists (Operand.equal (Operand.Reg r)) i.Insn.srcs

let load_s ctx r k = Block.Ins (Build.load ctx Reg.Int r (Operand.Lab "S") (Operand.Int (4 * k)))

let sweep_tests =
  [
    test "a CSE copy feeds a later use in the same sweep" (fun () ->
      (* APS-1's address arithmetic: r11 = r1 - 1 becomes the copy
         r11 = r3, and r11 * 4 must then read r3 and match r3 * 4. *)
      let b = irb () in
      int_array b "S" [| 5 |];
      let r1 = reg b Reg.Int and r3 = reg b Reg.Int and r11 = reg b Reg.Int in
      let r12 = reg b Reg.Int and r13 = reg b Reg.Int and x = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" x;
      let p =
        prog_of b
          [
            load_s ctx r1 0;
            Block.Ins (Build.ib ctx Insn.Sub r3 (Operand.Reg r1) (Operand.Int 1));
            Block.Ins (Build.ib ctx Insn.Sub r11 (Operand.Reg r1) (Operand.Int 1));
            Block.Ins (Build.ib ctx Insn.Mul r12 (Operand.Reg r11) (Operand.Int 4));
            Block.Ins (Build.ib ctx Insn.Mul r13 (Operand.Reg r3) (Operand.Int 4));
            Block.Ins (Build.ib ctx Insn.Add x (Operand.Reg r12) (Operand.Reg r13));
          ]
      in
      let p' = sweep_round p in
      check_int "one subtraction" 1 (count_op p' (Insn.IBin Insn.Sub));
      check_int "one multiply" 1 (count_op p' (Insn.IBin Insn.Mul));
      check_bool "the multiply reads r3" true (reads (def_of p' r12) r3);
      check_bool "the sum reads r12 twice" true
        (Array.for_all (Operand.equal (Operand.Reg r12)) (def_of p' x).Insn.srcs);
      check_int "value" 32 (out_int (run p') "x");
      let want, rounds = Cleanup_ref.fixpoint_uncapped p in
      check_bool "the reference takes more than two rounds" true (rounds > 2);
      check_bool "one round reaches the reference fixpoint" true (Helpers.insns_equal_prog p' want));
    test "a propagated constant folds in the same sweep" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r3;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r1 (Operand.Int 7));
            Block.Ins (Build.imov ctx r2 (Operand.Reg r1));
            Block.Ins (Build.ib ctx Insn.Add r3 (Operand.Reg r2) (Operand.Reg r2));
          ]
      in
      let p' = Cse.run p in
      (match List.nth (Block.insns p'.Prog.entry) 2 with
      | { Insn.op = Insn.IMov; srcs = [| Operand.Int 14 |]; _ } -> ()
      | i -> Alcotest.failf "expected r3 = 14, got %s" (Insn.to_string i));
      check_int "value" 14 (out_int (run p') "x"));
    test "a fold that ends in a self-move is deleted without a kill" (fun () ->
      (* r8 = r8 + 0 folds to r8 = r8, which is deleted; r2's binding to
         r8 survives it, so r2 + 1 reads r8. *)
      let b = irb () in
      int_array b "S" [| 5 |];
      let r8 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r3;
      let p =
        prog_of b
          [
            load_s ctx r8 0;
            Block.Ins (Build.imov ctx r2 (Operand.Reg r8));
            Block.Ins (Build.ib ctx Insn.Add r8 (Operand.Reg r8) (Operand.Int 0));
            Block.Ins (Build.ib ctx Insn.Add r3 (Operand.Reg r2) (Operand.Int 1));
          ]
      in
      let p' = Cse.run p in
      check_int "the add of 0 is gone" 3 (insn_count p');
      check_bool "r2 + 1 reads r8" true (reads (def_of p' r3) r8);
      check_int "value" 6 (out_int (run p') "x"));
    test "reloading a register's own stored value is deleted without a kill" (fun () ->
      (* r1 = MEM(S+4) right after MEM(S+4) = r1 would forward r1 = r1:
         it is deleted, and r2's binding to r1 survives it. *)
      let b = irb () in
      int_array b "S" [| 5; 0 |];
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r3;
      let p =
        prog_of b
          [
            load_s ctx r1 0;
            Block.Ins (Build.imov ctx r2 (Operand.Reg r1));
            Block.Ins (Build.store ctx Reg.Int (Operand.Lab "S") (Operand.Int 4) (Operand.Reg r1));
            load_s ctx r1 1;
            Block.Ins (Build.ib ctx Insn.Add r3 (Operand.Reg r2) (Operand.Int 1));
          ]
      in
      let p' = Cse.run p in
      check_int "one load" 1 (count_if p' is_load);
      check_int "the reload is gone" 4 (insn_count p');
      check_bool "r2 + 1 reads r1" true (reads (def_of p' r3) r1);
      check_int "value" 6 (out_int (run p') "x"));
    test "a copy dies when either side is redefined" (fun () ->
      (* [redef_src]: r1 is reloaded after r2 = r1; otherwise r2 is. The
         later r2 + 1 must read r2 either way. *)
      List.iter
        (fun redef_src ->
          let b = irb () in
          int_array b "S" [| 5; 7 |];
          let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int in
          let ctx = b.ctx in
          output b "x" r3;
          output b "y" r1;
          let p =
            prog_of b
              [
                load_s ctx r1 0;
                Block.Ins (Build.imov ctx r2 (Operand.Reg r1));
                load_s ctx (if redef_src then r1 else r2) 1;
                Block.Ins (Build.ib ctx Insn.Add r3 (Operand.Reg r2) (Operand.Int 1));
              ]
          in
          let p' = Cse.run p in
          check_bool "r2 + 1 reads r2" true (reads (def_of p' r3) r2);
          check_int "value" (if redef_src then 6 else 8) (out_int (run p') "x"))
        [ true; false ]);
    test "a CSE copy dies when either side is redefined" (fun () ->
      (* r4 = r1 * 3 becomes the copy r4 = r2; then r2 or r4 is
         reloaded, and r4 + 1 must read r4. *)
      List.iter
        (fun redef_src ->
          let b = irb () in
          int_array b "S" [| 5; 7 |];
          let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r4 = reg b Reg.Int in
          let r5 = reg b Reg.Int in
          let ctx = b.ctx in
          output b "x" r5;
          output b "y" r2;
          let p =
            prog_of b
              [
                load_s ctx r1 0;
                Block.Ins (Build.ib ctx Insn.Mul r2 (Operand.Reg r1) (Operand.Int 3));
                Block.Ins (Build.ib ctx Insn.Mul r4 (Operand.Reg r1) (Operand.Int 3));
                load_s ctx (if redef_src then r2 else r4) 1;
                Block.Ins (Build.ib ctx Insn.Add r5 (Operand.Reg r4) (Operand.Int 1));
              ]
          in
          let p' = Cse.run p in
          check_int "one multiply" 1 (count_op p' (Insn.IBin Insn.Mul));
          check_bool "r4 + 1 reads r4" true (reads (def_of p' r5) r4);
          check_int "value" (if redef_src then 16 else 8) (out_int (run p') "x"))
        [ true; false ]);
    test "copies and expressions do not cross labels or loops" (fun () ->
      (* r2 = r1 and r1 * 3 are known before the boundary; after it (and
         inside the loop body) r2 is read as r2 and r1 * 3 is
         recomputed. *)
      List.iter
        (fun loop ->
          let b = irb () in
          int_array b "S" [| 5 |];
          let r1 = reg b Reg.Int and r2 = reg b Reg.Int and r3 = reg b Reg.Int in
          let r5 = reg b Reg.Int and r6 = reg b Reg.Int and r7 = reg b Reg.Int in
          let v = reg b Reg.Int in
          let ctx = b.ctx in
          List.iter (fun (n, r) -> output b n r) [ ("x", r3); ("y", r5); ("z", r6); ("w", r7) ];
          let boundary =
            if loop then
              [
                Block.Loop
                  {
                    Block.lid = 1;
                    head = "L";
                    exit_lbl = "X";
                    meta = Block.no_meta;
                    body =
                      [
                        Block.Ins (Build.ib ctx Insn.Add r7 (Operand.Reg r2) (Operand.Int 2));
                        Block.Ins (Build.ib ctx Insn.Add v (Operand.Reg v) (Operand.Int 1));
                        Block.Ins
                          (Build.br ctx Reg.Int Insn.Le (Operand.Reg v) (Operand.Int 3) "L");
                      ];
                  };
              ]
            else
              [
                Block.Ins (Build.ib ctx Insn.Add r7 (Operand.Reg r2) (Operand.Int 2));
                Block.Lbl "J";
              ]
          in
          let p =
            prog_of b
              ([
                 load_s ctx r1 0;
                 Block.Ins (Build.imov ctx v (Operand.Int 1));
                 Block.Ins (Build.imov ctx r2 (Operand.Reg r1));
                 Block.Ins (Build.ib ctx Insn.Mul r5 (Operand.Reg r1) (Operand.Int 3));
               ]
              @ boundary
              @ [
                  Block.Ins (Build.ib ctx Insn.Add r3 (Operand.Reg r2) (Operand.Int 1));
                  Block.Ins (Build.ib ctx Insn.Mul r6 (Operand.Reg r1) (Operand.Int 3));
                ])
          in
          let p' = Cse.run p in
          check_bool "r2 + 1 reads r2" true (reads (def_of p' r3) r2);
          check_int "both multiplies" 2 (count_op p' (Insn.IBin Insn.Mul));
          if loop then check_bool "the body reads r2" true (reads (def_of p' r7) r2)
          else check_bool "r2 + 2 before the label reads r1" true (reads (def_of p' r7) r1);
          let r = run p' in
          check_int "x" 6 (out_int r "x");
          check_int "z" 15 (out_int r "z");
          check_int "w" 7 (out_int r "w"))
        [ false; true ]);
  ]

let dce_tests =
  [
    test "dead arithmetic removed, outputs kept" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and dead = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r1;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r1 (Operand.Int 1));
            Block.Ins (Build.ib ctx Insn.Mul dead (Operand.Reg r1) (Operand.Int 10));
          ]
      in
      let p' = Dce.run p in
      check_int "only the output def" 1 (insn_count p');
      check_int "value" 1 (out_int (run p') "x"));
    test "self-feeding dead cycle removed" (fun () ->
      let b = irb () in
      let live = reg b Reg.Int and cyc = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" live;
      let body =
        [
          Block.Ins (Build.ib ctx Insn.Add cyc (Operand.Reg cyc) (Operand.Int 1));
          Block.Ins (Build.ib ctx Insn.Add live (Operand.Reg live) (Operand.Int 2));
          Block.Ins (Build.br ctx Reg.Int Insn.Le (Operand.Reg live) (Operand.Int 10) "L");
        ]
      in
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx cyc (Operand.Int 0));
            Block.Ins (Build.imov ctx live (Operand.Int 0));
            Block.Loop { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta; body };
          ]
      in
      let p' = Dce.run p in
      check_int "cycle gone" 0
        (count_if p' (fun i ->
           match i.Insn.dst with Some d -> Reg.equal d cyc | None -> false));
      check_int "value" 12 (out_int (run p') "x"));
    test "liveness rounds stop after six" (fun () ->
      (* r1 = 1; r2 = r1 + 1; ...; r8 = r7 + 1, then every register is
         redefined. Each round can only drop the last first-definition
         of the chain, so six rounds leave r1's and r2's. *)
      let b = irb () in
      let ctx = b.ctx in
      let rs = List.init 8 (fun _ -> reg b Reg.Int) in
      List.iteri (fun k r -> output b (Printf.sprintf "r%d" k) r) rs;
      let chain =
        List.mapi
          (fun k r ->
            if k = 0 then Build.imov ctx r (Operand.Int 1)
            else Build.ib ctx Insn.Add r (Operand.Reg (List.nth rs (k - 1))) (Operand.Int 1))
          rs
      in
      let redefs = List.map (fun r -> Build.imov ctx r (Operand.Int 0)) rs in
      let p = prog_of b (List.map (fun i -> Block.Ins i) (chain @ redefs)) in
      (match Dce_ref.disagreement p with
      | None -> ()
      | Some why -> Alcotest.fail why);
      let counted p = Dce_ref.counting [ "dce.rounds"; "dce.capped" ] (fun () -> Dce.run p) in
      let p', counts = counted p in
      check_bool "first two chain defs survive" true
        (List.equal Helpers.equal_content
           ([ List.nth chain 0; List.nth chain 1 ] @ redefs)
           (Block.insns p'.Prog.entry));
      check_bool "six rounds, the last still removing: capped" true (counts = [ 6; 1 ]);
      (* Two chain definitions left: two rounds remove one each, a
         third finds nothing. *)
      check_bool "three rounds, not capped" true (snd (counted p') = [ 3; 0 ]));
    test "a removal in one block exposes a dead definition in an earlier one" (fun () ->
      (* r0 = 5; r1 = 1; br r0 < 0 L | L: r2 = r1 + 1; r1 = 0; r2 = 0.
         Round 1 removes [r2 = r1 + 1]; only the re-summarised second
         block shows round 2 that [r1 = 1] is dead; round 3 finds
         nothing. *)
      let b = irb () in
      let ctx = b.ctx in
      let r0 = reg b Reg.Int and r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      output b "a" r1;
      output b "b" r2;
      let br = Build.br ctx Reg.Int Insn.Lt (Operand.Reg r0) (Operand.Int 0) "L" in
      let kept = [ Build.imov ctx r1 (Operand.Int 0); Build.imov ctx r2 (Operand.Int 0) ] in
      let r0_def = Build.imov ctx r0 (Operand.Int 5) in
      let p =
        prog_of b
          ([
             Block.Ins r0_def;
             Block.Ins (Build.imov ctx r1 (Operand.Int 1));
             Block.Ins br;
             Block.Lbl "L";
             Block.Ins (Build.ib ctx Insn.Add r2 (Operand.Reg r1) (Operand.Int 1));
           ]
          @ List.map (fun i -> Block.Ins i) kept)
      in
      (match Dce_ref.disagreement p with
      | None -> ()
      | Some why -> Alcotest.fail why);
      let p', counts = Dce_ref.counting [ "dce.rounds" ] (fun () -> Dce.run p) in
      check_bool "three rounds" true (counts = [ 3 ]);
      check_bool "both chain definitions removed" true
        (List.equal Helpers.equal_content (r0_def :: br :: kept) (Block.insns p'.Prog.entry)));
    test "stores are never removed" (fun () ->
      let b = irb () in
      float_array b "A" [| 0.0 |];
      let ctx = b.ctx in
      let p =
        prog_of b
          [ Block.Ins (Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 0) (Operand.Flt 1.0)) ]
      in
      check_int "kept" 1 (insn_count (Dce.run p)));
  ]

(* ---- DCE against the reference on every cleanup-round input ----

   Every program [Dce.run] sees while the 40 kernels go through the five
   levels (replayed by [Dce_ref.cleanup_inputs], whose final output must
   equal [Level.apply]'s). *)

let dce_corpus_tests =
  [
    test "Dce.run = reference DCE on every cleanup-round input" (fun () ->
      let inputs = ref 0 in
      List.iter
        (fun (w : Impact_workloads.Suite.t) ->
          (* A fresh lowering per run: the passes draw fresh ids from
             the program's context. *)
          let fresh () = lower w.Impact_workloads.Suite.ast in
          List.iter
            (fun lvl ->
              let name =
                Printf.sprintf "%s/%s" w.Impact_workloads.Suite.name
                  (Impact_core.Level.to_string lvl)
              in
              let seen, out = Dce_ref.cleanup_inputs lvl (fresh ()) in
              check_bool (name ^ ": replay = Level.apply") true
                (Helpers.insns_equal_prog out (Impact_core.Level.apply lvl (fresh ())));
              List.iteri
                (fun k q ->
                  incr inputs;
                  match Dce_ref.disagreement q with
                  | None -> ()
                  | Some why -> Alcotest.failf "%s, input %d: %s" name k why)
                seen)
            Impact_core.Level.all)
        Impact_workloads.Suite.all;
      check_bool "thousands of inputs" true (!inputs > 1000));
    test "no call on the corpus reaches the round cap" (fun () ->
      let (), counts =
        Dce_ref.counting [ "dce.rounds"; "dce.capped" ] (fun () ->
          List.iter
            (fun (w : Impact_workloads.Suite.t) ->
              List.iter
                (fun lvl -> ignore (Impact_core.Level.apply lvl (lower w.Impact_workloads.Suite.ast)))
                Impact_core.Level.all)
            Impact_workloads.Suite.all)
      in
      match counts with
      | [ rounds; capped ] ->
        check_bool "rounds were counted" true (rounds > 0);
        check_int "dce.capped" 0 capped
      | _ -> assert false);
    test "duplicate instruction ids are marked together" (fun () ->
      (* [a] and [t] share an id. Marking [t] (it defines the output)
         marks the id, so [a] is kept without being traced: the def of
         [z] it reads is swept, as in the by-id reference. *)
      let b = irb () in
      let ctx = b.ctx in
      let x = reg b Reg.Int and y = reg b Reg.Int and z = reg b Reg.Int in
      output b "x" x;
      let a = Build.ib ctx Insn.Add y (Operand.Reg z) (Operand.Int 1) in
      let t =
        { (Build.ib ctx Insn.Add x (Operand.Reg y) (Operand.Int 1)) with Insn.id = a.Insn.id }
      in
      let p = prog_of b [ Block.Ins (Build.imov ctx z (Operand.Int 3)); Block.Ins a; Block.Ins t ] in
      (match Dce_ref.disagreement p with
      | None -> ()
      | Some why -> Alcotest.fail why);
      let p', pushes = Dce_ref.dce_counted p in
      check_int "one push for the shared id" 1 pushes;
      check_bool "both instances kept, the def of z swept" true
        (List.equal Helpers.equal_content [ a; t ] (Block.insns p'.Prog.entry)));
  ]

(* ---- the one-sweep cleanup against the old round ----

   [Level.apply] against a replay whose cleanup is [Cleanup_ref]'s
   round under the same six-round cap, and the combined round's
   convergence on every cleanup input of the corpus. *)

(* Level Conv's pass list (unrolling and everything after it left out),
   then Lev4's list without each transformation Lev2..Lev4 add. *)
let leave_one_out =
  let open Impact_core.Level in
  let lev1 = pipeline Lev1 and lev4 = pipeline Lev4 in
  ("Conv", pipeline Conv)
  :: List.filter_map
       (fun (name, _) ->
         if List.mem_assoc name lev1 then None
         else Some ("no " ^ name, List.filter (fun (n, _) -> n <> name) lev4))
       lev4

let cleanup_corpus_tests =
  let each_kernel f =
    List.iter
      (fun (w : Impact_workloads.Suite.t) ->
        f w.Impact_workloads.Suite.name (fun () -> lower w.Impact_workloads.Suite.ast))
      Impact_workloads.Suite.all
  in
  [
    test "Level.apply = replay with the reference cleanup" (fun () ->
      each_kernel (fun name fresh ->
        List.iter
          (fun lvl ->
            check_bool
              (Printf.sprintf "%s/%s" name (Impact_core.Level.to_string lvl))
              true
              (Helpers.insns_equal_prog
                 (Impact_core.Level.apply lvl (fresh ()))
                 (Cleanup_ref.replay ~cleanup:Cleanup_ref.cleanup lvl (fresh ()))))
          Impact_core.Level.all;
        check_int "Conv and seven leave-one-out lists" 8 (List.length leave_one_out);
        List.iter
          (fun (variant, passes) ->
            check_bool
              (Printf.sprintf "%s, %s" name variant)
              true
              (Helpers.insns_equal_prog
                 (Impact_core.Level.run passes (fresh ()))
                 (Impact_core.Level.run
                    (Cleanup_ref.with_cleanup Cleanup_ref.cleanup passes)
                    (fresh ()))))
          leave_one_out));
    test "one round reaches the fixpoint on every cleanup input" (fun () ->
      let inputs = ref 0 in
      each_kernel (fun name fresh ->
        List.iter
          (fun lvl ->
            List.iteri
              (fun k p ->
                incr inputs;
                let once = sweep_round p in
                if not (Helpers.insns_equal_prog (sweep_round once) once) then
                  Alcotest.failf "%s/%s, cleanup %d: a second round changed the program"
                    name (Impact_core.Level.to_string lvl) k)
              (Cleanup_ref.inputs lvl (fresh ())))
          Impact_core.Level.all);
      (* 40 kernels x 19 cleanups: three in Conv's steps, one more at
         each of Lev1..Lev4. *)
      check_int "every cleanup input of the corpus" 760 !inputs);
    test "cse_order.f: the sweep's output, pinned" (fun () ->
      (* mod(int(A(j)), 1) folds to 0, so r4..r9 die. The sweep matches
         the second address r10..r12 against the first before DCE
         removes it, and keeps the first load; the old round, whose DCE
         ran first, keeps the second. Both compute the same values; the
         sweep's output is the contract. *)
      let p = lower (Impact_fir.Parse.parse_file "../examples/kernels/cse_order.f") in
      let first = List.hd (Cleanup_ref.inputs Impact_core.Level.Conv p) in
      let want =
        String.concat "\n"
          [
            ".array A : real[8]";
            "r2i = 0";
            "r3f = 0";
            "r1i = 1";
            "L1:";
            "  r4i = r1i - 1";
            "  r6i = r4i * 4";
            "  r7f = MEM(A+r6i)";
            "  r14f = r7f * 0.5";
            "  r3f = r3f + r14f";
            "T1:";
            "  r1i = r1i + 1";
            "  ble (r1i 8) L1";
            "X1:";
            ".output s = r3f";
            ".output t = r2i";
            "";
          ]
      in
      let got = Conv.cleanup first in
      check_string "sweep" want (Pp.prog_to_string got);
      check_bool "the old round keeps the second load" false
        (Helpers.insns_equal_prog got (fst (Cleanup_ref.fixpoint_uncapped first)));
      check_bool "same values" true
        (compare (run got).Impact_sim.Sim.outputs
           (run (fst (Cleanup_ref.fixpoint_uncapped first))).Impact_sim.Sim.outputs
        = 0));
  ]

(* ---- CSE keys: monomorphic equal/hash agree with the polymorphic ones ---- *)

let gen_operand : Operand.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map2 (fun id f -> Operand.Reg { Reg.id; cls = (if f then Reg.Float else Reg.Int) })
          (int_range 0 4) bool;
        map (fun n -> Operand.Int n) (int_range (-2) 2);
        map (fun x -> Operand.Flt x) (oneofl [ 0.0; -0.0; 1.5; -1.5; Float.nan; -.Float.nan; Float.infinity ]);
        map Operand.lab (oneofl [ "A"; "B"; "" ]);
      ])

(* A structurally rebuilt operand that [compare] equates with [o]:
   -0.0 for 0.0 and another NaN for a NaN. *)
let twin_operand (o : Operand.t) : Operand.t =
  match o with
  | Operand.Reg r -> Operand.Reg { Reg.id = r.Reg.id; cls = r.Reg.cls }
  | Operand.Int n -> Operand.Int n
  | Operand.Flt x when Float.is_nan x ->
    Operand.Flt (Int64.float_of_bits (Int64.logxor (Int64.bits_of_float x) 1L))
  | Operand.Flt x when x = 0.0 -> Operand.Flt (-.x)
  | Operand.Flt x -> Operand.Flt (x +. 0.0)
  | Operand.Lab s -> Operand.Lab (String.init (String.length s) (String.get s))

let gen_ibin = QCheck.Gen.oneofl Insn.[ Add; Sub; Mul; Div; Rem; Shl; Shr; And; Or; Xor ]

let gen_fbin = QCheck.Gen.oneofl Insn.[ Fadd; Fsub; Fmul; Fdiv ]

let gen_vkey : Cse.Vkey.t QCheck.Gen.t =
  let o = gen_operand in
  QCheck.Gen.(
    oneof
      [
        map3 (fun op a b -> Cse.Vkey.KI (op, a, b)) gen_ibin o o;
        map3 (fun op a b -> Cse.Vkey.KF (op, a, b)) gen_fbin o o;
        map (fun a -> Cse.Vkey.KItoF a) o;
        map (fun a -> Cse.Vkey.KFtoI a) o;
        map2 (fun c (a, b, d) -> Cse.Vkey.KLoad (c, a, b, d)) (oneofl [ Reg.Int; Reg.Float ])
          (triple o o o);
      ])

let twin_vkey (k : Cse.Vkey.t) : Cse.Vkey.t =
  let t = twin_operand in
  match k with
  | Cse.Vkey.KI (op, a, b) -> Cse.Vkey.KI (op, t a, t b)
  | Cse.Vkey.KF (op, a, b) -> Cse.Vkey.KF (op, t a, t b)
  | Cse.Vkey.KItoF a -> Cse.Vkey.KItoF (t a)
  | Cse.Vkey.KFtoI a -> Cse.Vkey.KFtoI (t a)
  | Cse.Vkey.KLoad (c, a, b, d) -> Cse.Vkey.KLoad (c, t a, t b, t d)

(* The twin of [k] with one component (operator, class or operand)
   redrawn, so unequal keys mostly differ in one place. *)
let gen_near_vkey (k : Cse.Vkey.t) : Cse.Vkey.t QCheck.Gen.t =
  let open QCheck.Gen in
  let o = gen_operand and t = twin_operand in
  int_range 0 3 >>= fun which ->
  match k with
  | Cse.Vkey.KI (op, a, b) -> (
    match which with
    | 0 -> map (fun op -> Cse.Vkey.KI (op, t a, t b)) gen_ibin
    | 1 -> map (fun a -> Cse.Vkey.KI (op, a, t b)) o
    | _ -> map (fun b -> Cse.Vkey.KI (op, t a, b)) o)
  | Cse.Vkey.KF (op, a, b) -> (
    match which with
    | 0 -> map (fun op -> Cse.Vkey.KF (op, t a, t b)) gen_fbin
    | 1 -> map (fun a -> Cse.Vkey.KF (op, a, t b)) o
    | _ -> map (fun b -> Cse.Vkey.KF (op, t a, b)) o)
  | Cse.Vkey.KItoF a ->
    if which = 0 then return (Cse.Vkey.KFtoI (t a)) else map (fun a -> Cse.Vkey.KItoF a) o
  | Cse.Vkey.KFtoI a ->
    if which = 0 then return (Cse.Vkey.KItoF (t a)) else map (fun a -> Cse.Vkey.KFtoI a) o
  | Cse.Vkey.KLoad (c, a, b, d) -> (
    match which with
    | 0 -> return (Cse.Vkey.KLoad ((if c = Reg.Int then Reg.Float else Reg.Int), t a, t b, t d))
    | 1 -> map (fun a -> Cse.Vkey.KLoad (c, a, t b, t d)) o
    | 2 -> map (fun b -> Cse.Vkey.KLoad (c, t a, b, t d)) o
    | _ -> map (fun d -> Cse.Vkey.KLoad (c, t a, t b, d)) o)

let gen_near_mkey ((a, b, c) : Cse.Mkey.t) : Cse.Mkey.t QCheck.Gen.t =
  let open QCheck.Gen in
  let t = twin_operand in
  int_range 0 2 >>= fun which ->
  map
    (fun x ->
      match which with
      | 0 -> (x, t b, t c)
      | 1 -> (t a, x, t c)
      | _ -> (t a, t b, x))
    gen_operand

(* A pair of keys: a key and its rebuilt twin, a near variant (one
   component redrawn), or two independent draws. *)
let gen_pair gen twin near =
  QCheck.Gen.(
    gen >>= fun a ->
    int_range 0 2 >>= function
    | 0 -> return (a, twin a)
    | 1 -> map (fun b -> (a, b)) (near a)
    | _ -> map (fun b -> (a, b)) gen)

let agrees equal hash (a, b) =
  let eq = equal a b in
  eq = (Stdlib.compare a b = 0) && ((not eq) || hash a = hash b)

let cse_key_tests =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xC5E |]))
    [
      QCheck.Test.make ~name:"Vkey.equal = (compare = 0), equal keys hash equally"
        ~count:3000
        (QCheck.make (gen_pair gen_vkey twin_vkey gen_near_vkey))
        (agrees Cse.Vkey.equal Cse.Vkey.hash);
      QCheck.Test.make ~name:"Mkey.equal = (compare = 0), equal keys hash equally"
        ~count:3000
        (QCheck.make
           (gen_pair
              QCheck.Gen.(triple gen_operand gen_operand gen_operand)
              (fun (a, b, c) -> (twin_operand a, twin_operand b, twin_operand c))
              gen_near_mkey))
        (agrees Cse.Mkey.equal Cse.Mkey.hash);
    ]

let licm_tests =
  let loop_with body =
    { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta; body }
  in
  [
    test "invariant computation hoisted" (fun () ->
      let b = irb () in
      let inv = reg b Reg.Int and t = reg b Reg.Int and v = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" t;
      let body =
        [
          Block.Ins (Build.ib ctx Insn.Mul t (Operand.Reg inv) (Operand.Int 3));
          Block.Ins (Build.ib ctx Insn.Add v (Operand.Reg v) (Operand.Int 1));
          Block.Ins (Build.br ctx Reg.Int Insn.Le (Operand.Reg v) (Operand.Int 5) "L");
        ]
      in
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx inv (Operand.Int 7));
            Block.Ins (Build.imov ctx v (Operand.Int 1));
            Block.Loop (loop_with body);
          ]
      in
      let p' = Licm.run p in
      let l = List.hd (Block.loops p'.Prog.entry) in
      check_int "body shrank" 2 (List.length (Block.body_insns l));
      check_int "value" 21 (out_int (run p') "x"));
    test "load not hoisted past a may-alias store" (fun () ->
      let b = irb () in
      float_array b "A" [| 1.0; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |];
      let f1 = reg b Reg.Float and v = reg b Reg.Int and w = reg b Reg.Int in
      let ctx = b.ctx in
      output b "y" f1;
      let body =
        [
          (* load A[0] is "invariant" syntactically but A is stored to. *)
          Block.Ins (Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0));
          Block.Ins (Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Reg w) (Operand.Flt 5.0));
          Block.Ins (Build.ib ctx Insn.Add w (Operand.Reg w) (Operand.Int 4));
          Block.Ins (Build.ib ctx Insn.Add v (Operand.Reg v) (Operand.Int 1));
          Block.Ins (Build.br ctx Reg.Int Insn.Le (Operand.Reg v) (Operand.Int 4) "L");
        ]
      in
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx v (Operand.Int 1));
            Block.Ins (Build.imov ctx w (Operand.Int 0));
            Block.Loop (loop_with body);
          ]
      in
      let p' = Licm.run p in
      let l = List.hd (Block.loops p'.Prog.entry) in
      check_int "load stays" 5 (List.length (Block.body_insns l));
      check_close "sees stores" 5.0 (out_flt (run p') "y"));
    test "carried scalar not hoisted" (fun () ->
      let b = irb () in
      let s = reg b Reg.Int and v = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" s;
      let body =
        [
          Block.Ins (Build.ib ctx Insn.Add s (Operand.Reg s) (Operand.Int 2));
          Block.Ins (Build.ib ctx Insn.Add v (Operand.Reg v) (Operand.Int 1));
          Block.Ins (Build.br ctx Reg.Int Insn.Le (Operand.Reg v) (Operand.Int 4) "L");
        ]
      in
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx s (Operand.Int 0));
            Block.Ins (Build.imov ctx v (Operand.Int 1));
            Block.Loop (loop_with body);
          ]
      in
      let p' = Licm.run p in
      check_int "accumulates" 8 (out_int (run p') "x"));
  ]

let ivopt_tests =
  [
    test "subscript arithmetic becomes pointer increments" (fun () ->
      let p = Conv.run (lower (vecadd_ast 32)) in
      let l = List.hd (Block.loops p.Prog.entry) in
      let body = Block.body_insns l in
      check_int "no multiplies in the loop" 0
        (List.length (List.filter is_mul body));
      (* Paper Figure 1b shape: 2 loads, 1 add, 1 store, 1 increment,
         1 branch. *)
      check_int "six instructions" 6 (List.length body));
    test "loop exit test moved to the derived induction variable" (fun () ->
      let p = Conv.run (lower (vecadd_ast 32)) in
      let l = List.hd (Block.loops p.Prog.entry) in
      let body = Block.body_insns l in
      let back = List.nth body (List.length body - 1) in
      (* The branch operand is the same register some load uses as its
         offset. *)
      let load_offsets =
        List.filter_map
          (fun (i : Insn.t) ->
            if Insn.is_load i then Operand.as_reg i.Insn.srcs.(1) else None)
          body
      in
      (match Operand.as_reg back.Insn.srcs.(0) with
      | Some r -> check_bool "tests a pointer" true (List.exists (Reg.equal r) load_offsets)
      | None -> Alcotest.fail "branch operand not a register");
      (* meta stays consistent with the rewritten loop *)
      match l.Block.meta.Block.counter with
      | Some c ->
        check_bool "meta counter is the derived iv" true
          (Operand.equal back.Insn.srcs.(0) (Operand.Reg c))
      | None -> Alcotest.fail "no counter in meta");
    test "conv preserves semantics on all helper kernels" (fun () ->
      List.iter
        (fun ast ->
          let naive = run (lower ast) in
          let opt = run (Conv.run (lower ast)) in
          same_observables "conv" naive opt)
        [ vecadd_ast 19; dotprod_ast 23; maxval_ast 31; recurrence_ast 17 ]);
    test "conv shrinks dynamic instruction count substantially" (fun () ->
      let naive = run (lower (vecadd_ast 64)) in
      let opt = run (Conv.run (lower (vecadd_ast 64))) in
      check_bool "at least 2x fewer instructions" true
        (opt.Impact_sim.Sim.dyn_insns * 2 < naive.Impact_sim.Sim.dyn_insns));
  ]

let suite =
  [
    ("opt.fold", fold_tests);
    ("opt.propagate", propagate_tests);
    ("opt.cse", cse_tests);
    ("opt.cse.sweep", sweep_tests);
    ("opt.dce", dce_tests);
    ("opt.dce.corpus", dce_corpus_tests);
    ("opt.cleanup.corpus", cleanup_corpus_tests);
    ("opt.cse.keys", cse_key_tests);
    ("opt.licm", licm_tests);
    ("opt.ivopt", ivopt_tests);
  ]
