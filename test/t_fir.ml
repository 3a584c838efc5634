(* Tests for the mini-Fortran frontend: type checking and lowering
   semantics (validated through simulation against OCaml references). *)

open Impact_fir
open Helpers

let test name f = Alcotest.test_case name `Quick f

let expect_type_error name prog =
  test name (fun () ->
    try
      ignore (Typecheck.check prog);
      Alcotest.fail "expected type error"
    with Typecheck.Type_error _ -> ())

let typecheck_tests =
  let open Ast_build in
  [
    expect_type_error "undeclared scalar"
      { decls = []; stmts = [ assign "x" (i 1) ]; outs = [] };
    expect_type_error "undeclared array"
      { decls = [ scalar "j" TInt ]; stmts = [ assign "j" (idx "A" [ i 1 ]) ]; outs = [] };
    expect_type_error "wrong arity"
      {
        decls = [ scalar "j" TInt; array1 "A" TReal 4 (fun _ -> 0.0) ];
        stmts = [ assign "j" (ECvt (TInt, idx "A" [ i 1; i 2 ])) ];
        outs = [];
      };
    expect_type_error "real subscript"
      {
        decls = [ scalar "x" TReal; array1 "A" TReal 4 (fun _ -> 0.0) ];
        stmts = [ assign "x" (idx "A" [ v "x" ]) ];
        outs = [];
      };
    expect_type_error "implicit real->int assignment"
      {
        decls = [ scalar "j" TInt ];
        stmts = [ assign "j" (r 1.5) ];
        outs = [];
      };
    expect_type_error "real loop variable"
      {
        decls = [ scalar "x" TReal ];
        stmts = [ do_ "x" (i 1) (i 3) [] ];
        outs = [];
      };
    expect_type_error "cycle outside loop"
      { decls = []; stmts = [ SCycle ]; outs = [] };
    expect_type_error "duplicate declaration"
      {
        decls = [ scalar "x" TReal; scalar "x" TInt ];
        stmts = [];
        outs = [];
      };
    expect_type_error "undeclared output"
      { decls = []; stmts = []; outs = [ "nope" ] };
    expect_type_error "mod on reals"
      {
        decls = [ scalar "x" TReal ];
        stmts = [ assign "x" (rem (v "x") (r 2.0)) ];
        outs = [];
      };
    test "valid program passes" (fun () ->
      ignore (Typecheck.check (dotprod_ast 4)));
    test "metadata helpers" (fun () ->
      let open Ast_build in
      let p = maxval_ast 4 in
      check_int "depth" 1 (loop_depth p.stmts);
      check_bool "has cond" true (has_conditional p.stmts);
      check_bool "vecadd no cond" false (has_conditional (vecadd_ast 4).stmts));
  ]

let run_ast ?machine ast = run ?machine (lower ast)

let lowering_tests =
  let open Ast_build in
  [
    test "vector add computes correctly" (fun () ->
      let n = 9 in
      let r = run_ast (vecadd_ast n) in
      let a = array_out r "A" and b = array_out r "B" and c = array_out r "C" in
      Array.iteri (fun k x -> check_close "C" (a.(k) +. b.(k)) x) c);
    test "dot product matches reference" (fun () ->
      let n = 13 in
      let r = run_ast (dotprod_ast n) in
      let a = array_out r "A" and b = array_out r "B" in
      let expected = ref 0.0 in
      Array.iteri (fun k x -> expected := !expected +. (x *. b.(k))) a;
      check_close "s" !expected (out_flt r "s"));
    test "maxval matches reference" (fun () ->
      let n = 17 in
      let r = run_ast (maxval_ast n) in
      let a = array_out r "A" in
      check_close "mx" (Array.fold_left max neg_infinity a) (out_flt r "mx"));
    test "column-major 2d indexing" (fun () ->
      (* A(i,j) at linear index (i-1) + d1*(j-1). *)
      let p =
        {
          decls = [ scalar "x" TReal; array2 "A" TReal 3 4 (fun k -> float_of_int k) ];
          stmts = [ assign "x" (idx "A" [ i 2; i 3 ]) ];
          outs = [ "x" ];
        }
      in
      (* (2-1) + 3*(3-1) = 7 *)
      check_close "A(2,3)" 7.0 (out_flt (run_ast p) "x"));
    test "3d indexing" (fun () ->
      let p =
        {
          decls = [ scalar "x" TReal; array3 "A" TReal 2 3 4 (fun k -> float_of_int k) ];
          stmts = [ assign "x" (idx "A" [ i 2; i 1; i 3 ]) ];
          outs = [ "x" ];
        }
      in
      (* (2-1) + 2*((1-1) + 3*(3-1)) = 1 + 2*6 = 13 *)
      check_close "A(2,1,3)" 13.0 (out_flt (run_ast p) "x"));
    test "nested loops (matrix sum)" (fun () ->
      let p =
        {
          decls =
            [
              scalar "i_" TInt; scalar "j" TInt; scalar "s" TReal;
              array2 "A" TReal 5 6 (fun k -> float_of_int (k mod 7));
            ];
          stmts =
            [
              assign "s" (r 0.0);
              do_ "j" (i 1) (i 6)
                [ do_ "i_" (i 1) (i 5) [ assign "s" (v "s" +: idx "A" [ v "i_"; v "j" ]) ] ];
            ];
          outs = [ "s" ];
        }
      in
      let r = run_ast p in
      let a = array_out r "A" in
      check_close "sum" (Array.fold_left ( +. ) 0.0 a) (out_flt r "s"));
    test "if/else" (fun () ->
      let p =
        {
          decls = [ scalar "j" TInt; scalar "acc" TInt; array1 "A" TInt 10 (fun k -> float_of_int k) ];
          stmts =
            [
              assign "acc" (i 0);
              do_ "j" (i 1) (i 10)
                [
                  if_ CGt (idx "A" [ v "j" ]) (i 4)
                    [ assign "acc" (v "acc" +: i 1) ]
                    [ assign "acc" (v "acc" -: i 1) ];
                ];
            ];
          outs = [ "acc" ];
        }
      in
      (* A = 0..9; 5 elements > 4, 5 not: 5 - 5 = 0. *)
      check_int "acc" 0 (out_int (run_ast p) "acc"));
    test "cycle skips rest of iteration" (fun () ->
      let p =
        {
          decls = [ scalar "j" TInt; scalar "acc" TInt ];
          stmts =
            [
              assign "acc" (i 0);
              do_ "j" (i 1) (i 10)
                [
                  if_ CLe (v "j") (i 5) [ SCycle ] [];
                  assign "acc" (v "acc" +: v "j");
                ];
            ];
          outs = [ "acc" ];
        }
      in
      (* 6+7+8+9+10 = 40 *)
      check_int "acc" 40 (out_int (run_ast p) "acc"));
    test "negative step loop" (fun () ->
      let p =
        {
          decls = [ scalar "j" TInt; scalar "acc" TInt ];
          stmts =
            [
              assign "acc" (i 0);
              do_step "j" (i 10) (i 2) (i (-2)) [ assign "acc" (v "acc" +: v "j") ];
            ];
          outs = [ "acc" ];
        }
      in
      (* 10+8+6+4+2 = 30 *)
      check_int "acc" 30 (out_int (run_ast p) "acc"));
    test "zero-trip loop is guarded" (fun () ->
      let p =
        {
          decls = [ scalar "j" TInt; scalar "n" TInt; scalar "acc" TInt ~init:7.0 ];
          stmts =
            [
              assign "n" (i 0);
              do_ "j" (i 1) (v "n") [ assign "acc" (v "acc" +: i 100) ];
            ];
          outs = [ "acc" ];
        }
      in
      check_int "acc unchanged" 7 (out_int (run_ast p) "acc"));
    test "runtime bound loop" (fun () ->
      let p =
        {
          decls = [ scalar "j" TInt; scalar "n" TInt; scalar "acc" TInt ];
          stmts =
            [
              assign "n" (i 6);
              assign "acc" (i 0);
              do_ "j" (i 1) (v "n") [ assign "acc" (v "acc" +: v "j") ];
            ];
          outs = [ "acc" ];
        }
      in
      check_int "acc" 21 (out_int (run_ast p) "acc"));
    test "int to real promotion" (fun () ->
      let p =
        {
          decls = [ scalar "j" TInt; scalar "x" TReal ];
          stmts = [ assign "j" (i 3); assign "x" (v "j" *: r 1.5) ];
          outs = [ "x" ];
        }
      in
      check_close "x" 4.5 (out_flt (run_ast p) "x"));
    test "negation on both types" (fun () ->
      let p =
        {
          decls = [ scalar "j" TInt; scalar "x" TReal ];
          stmts =
            [
              assign "j" (neg (i 5));
              assign "x" (neg (r 2.5) -: r 1.0);
            ];
          outs = [ "j"; "x" ];
        }
      in
      let r = run_ast p in
      check_int "j" (-5) (out_int r "j");
      check_close "x" (-3.5) (out_flt r "x"));
  ]

let suite = [ ("fir.typecheck", typecheck_tests); ("fir.lowering", lowering_tests) ]
