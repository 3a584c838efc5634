(* Tests for the mini-Fortran text front-end. *)

open Impact_fir
open Helpers

let test name f = Alcotest.test_case name `Quick f

let run_src ?machine src = run ?machine (lower (Parse.parse_program src))

let expect_parse_error name src =
  test name (fun () ->
    try
      ignore (Parse.parse_program src);
      Alcotest.fail "expected parse error"
    with Parse.Parse_error _ -> ())

let lexer_tests =
  [
    test "numbers, floats and .op. boundaries" (fun () ->
      let r =
        run_src
          {|
integer j
real x = 0.0
real y = 0.0
do j = 1, 3
  x = x + 2.5
  if (x .gt. 2.0) then
    y = y + 1.0e1
  end
end
output x, y
|}
      in
      check_close "x" 7.5 (out_flt r "x");
      check_close "y" 30.0 (out_flt r "y"));
    test "symbolic relational operators" (fun () ->
      let r =
        run_src
          {|
integer j
integer a = 0
integer b = 0
do j = 1, 10
  if (j >= 6) then
    a = a + 1
  end
  if (j /= 5) then
    b = b + 1
  end
end
output a, b
|}
      in
      check_int "a" 5 (out_int r "a");
      check_int "b" 9 (out_int r "b"));
    test "comments and blank lines ignored" (fun () ->
      let r =
        run_src
          {|
! leading comment
integer j

real s = 0.0   ! trailing comment
do j = 1, 4
  s = s + 1.5
end
output s
|}
      in
      check_close "s" 6.0 (out_flt r "s"));
  ]

let syntax_tests =
  [
    test "array declarations with initializers" (fun () ->
      let r =
        run_src
          {|
integer j
real s = 0.0
real A(8) linear 1.0 0.5
real B(8) zero
do j = 1, 8
  s = s + A(j) + B(j)
end
output s
|}
      in
      (* sum of 1.0 + 0.5k for k=0..7 = 8 + 0.5*28 = 22 *)
      check_close "s" 22.0 (out_flt r "s"));
    test "do with step" (fun () ->
      let r =
        run_src
          {|
integer j
integer acc = 0
do j = 10, 2, -2
  acc = acc + j
end
output acc
|}
      in
      check_int "acc" 30 (out_int r "acc"));
    test "one-line if cycle" (fun () ->
      let r =
        run_src
          {|
integer j
integer acc = 0
do j = 1, 10
  if (j .le. 5) cycle
  acc = acc + j
end
output acc
|}
      in
      check_int "acc" 40 (out_int r "acc"));
    test "one-line if assignment" (fun () ->
      let r =
        run_src
          {|
integer j
real s = 0.0
real A(10) linear 0.0 1.0
do j = 1, 10
  if (A(j) .gt. 4.0) s = s + A(j)
end
output s
|}
      in
      (* A = 0..9; elements > 4: 5+6+7+8+9 = 35 *)
      check_close "s" 35.0 (out_flt r "s"));
    test "if / else blocks" (fun () ->
      let r =
        run_src
          {|
integer j
integer pos = 0
integer neg = 0
do j = 1, 9
  if (mod(j, 2) .eq. 0) then
    pos = pos + 1
  else
    neg = neg + 1
  end
end
output pos, neg
|}
      in
      check_int "pos" 4 (out_int r "pos");
      check_int "neg" 5 (out_int r "neg"));
    test "2-d arrays and nested loops" (fun () ->
      let r =
        run_src
          {|
integer j
integer t
real s = 0.0
real M(4,3) linear 1.0 1.0
do t = 1, 3
  do j = 1, 4
    s = s + M(j,t)
  end
end
output s
|}
      in
      (* linear index 0..11, values 1..12, sum = 78 *)
      check_close "s" 78.0 (out_flt r "s"));
    test "int()/float() conversions and unary minus" (fun () ->
      let r =
        run_src
          {|
integer k
real x = 3.9
k = int(x) + int(-2.5)
x = float(7) / 2.0
output k, x
|}
      in
      check_int "k" 1 (out_int r "k");
      check_close "x" 3.5 (out_flt r "x"));
    test "integer array with mask, read in integer context" (fun () ->
      (* M = 2 1 0 -1 6 5 4 3. k and r are integers, so M(j) must be one:
         a real would be an implicit real->int assignment, and mod
         takes integer operands only. *)
      let r =
        run_src
          {|
integer j
integer k = 0
integer r = 0
integer npos = 0
integer M(8) mask 21
do j = 1, 8
  k = k + M(j) * j
  r = r + mod(M(j) + 1, 4)
  if (M(j) .le. 0) cycle
  npos = npos + 1
end
output k, r, npos
|}
      in
      check_int "k" 112 (out_int r "k");
      check_int "r" 12 (out_int r "r");
      check_int "npos" 6 (out_int r "npos"));
    test "initializer declarations: types, dimensions and contents" (fun () ->
      let decls =
        (Parse.parse_program
           {|
integer M(8) mask 21
real G(2, 2) pos 12
INTEGER Z(3) Zero
|})
          .Ast.decls
      in
      let values f n = List.init n f in
      match decls with
      | [ Ast.DArray ("M", Ast.TInt, [ 8 ], m); Ast.DArray ("G", Ast.TReal, [ 2; 2 ], g);
          Ast.DArray ("Z", Ast.TInt, [ 3 ], z) ] ->
        check_bool "mask 21" true
          (values m 8 = [ 2.; 1.; 0.; -1.; 6.; 5.; 4.; 3. ]);
        (* seed 12 shifted up by 0.5, bit for bit. *)
        check_bool "pos 12" true
          (List.map Int64.bits_of_float (values g 4)
          = List.map Int64.bits_of_float
              [ 0x1.ed0e560418937p+0; 0x1.bc6a7ef9db22dp+0; 0x1.19374bc6a7efap+2;
                0x1.0d0e560418938p+2 ]);
        check_bool "zero" true (values z 3 = [ 0.; 0.; 0. ])
      | _ -> Alcotest.fail "expected three array declarations");
    test "negative literals, negation and case" (fun () ->
      (* A minus sign before a number is part of the literal; -(1)
         negates. Keywords ignore case, names do not: t and T differ. *)
      let p =
        Parse.parse_program
          {|
Integer t
Real T(4) Linear 1 1
Real x
x = T(t + -1) * -2.5 + -(1)
|}
      in
      check_bool "ast" true
        (p.Ast.stmts
        = [
            Ast.SAssign
              ( Ast.LVar "x",
                Ast.EBin
                  ( Ast.BAdd,
                    Ast.EBin
                      ( Ast.BMul,
                        Ast.EIdx ("T", [ Ast.EBin (Ast.BAdd, Ast.EVar "t", Ast.EInt (-1)) ]),
                        Ast.EReal (-2.5) ),
                    Ast.ENeg (Ast.EInt 1) ) );
          ]));
    test "operator precedence" (fun () ->
      let r =
        run_src {|
real x = 0.0
x = 2.0 + 3.0 * 4.0 - 6.0 / 3.0
output x
|}
      in
      check_close "x" 12.0 (out_flt r "x"));
    test "parenthesized expressions" (fun () ->
      let r = run_src {|
real x = 0.0
x = (2.0 + 3.0) * (4.0 - 6.0)
output x
|} in
      check_close "x" (-10.0) (out_flt r "x"));
  ]

let error_tests =
  [
    expect_parse_error "unterminated do" {|
integer j
do j = 1, 4
  j = j
|};
    expect_parse_error "bad operator" {|
real x = 0.0
x = 1.0 .foo. 2.0
|};
    expect_parse_error "missing paren" {|
real x = 0.0
x = (1.0 + 2.0
|};
    expect_parse_error "garbage character" {|
real x = 0.0
x = 1.0 # 2.0
|};
    expect_parse_error "bad array initializer" {|
real A(8) sauce 3
A(1) = 0.0
|};
    test "bad array initializer: the message lists every form" (fun () ->
      match Parse.parse_program "integer j\nreal A(8) sauce 3\n" with
      | _ -> Alcotest.fail "expected parse error"
      | exception Parse.Parse_error msg ->
        check_string "message"
          "line 2: bad array initializer (use zero | seed N | pos N | mask N | linear A B)"
          msg);
    expect_parse_error "dangling else" {|
integer j
do j = 1, 2
  else
end
|};
  ]

let file_tests =
  [
    test "example kernel files parse, run and transform" (fun () ->
      List.iter
        (fun path ->
          let ast = Parse.parse_file path in
          let base = run (lower ast) in
          let m = measure Impact_core.Level.Lev4 Impact_ir.Machine.issue_8 ast in
          same_observables path base m.Impact_core.Compile.result)
        [
          "../examples/kernels/saxpy.f";
          "../examples/kernels/dotprod.f";
          "../examples/kernels/clipsum.f";
          "../examples/kernels/cse_order.f";
          "../examples/kernels/tree_height.f";
          "../examples/kernels/runtime_trip.f";
        ]);
    (* No Table 2 loop has a run-time trip count, so this file is the one
       input that takes unrolling's div/rem preconditioning path with its
       zero-trip guards. MD5 of the printed Lev1 and Lev4 programs and of
       the issue-8 pipelined schedule (loop reports, then code); a
       refactor of loop construction must leave them unchanged. *)
    test "runtime_trip.f output is pinned" (fun () ->
      let ast = Parse.parse_file "../examples/kernels/runtime_trip.f" in
      let md5 s = Digest.to_hex (Digest.string s) in
      let printed l = md5 (Impact_ir.Pp.prog_to_string (Impact_core.Level.apply l (lower ast))) in
      check_string "Lev1" "39dc05be11a942fdbf182620e525c04b" (printed Impact_core.Level.Lev1);
      check_string "Lev4" "9abf9085f2d227d052e16feaaba0dece" (printed Impact_core.Level.Lev4);
      let opts = Impact_core.Opts.make ~sched:`Pipe () in
      let p, reports =
        Impact_core.Compile.schedule_with opts Impact_ir.Machine.issue_8
          (Impact_core.Compile.transform_with opts Impact_core.Level.Lev4 (lower ast))
      in
      let text =
        String.concat ""
          (List.map (fun (r, _) -> Impact_pipe.Pipe.report_to_string r ^ "\n") reports)
        ^ Impact_ir.Pp.prog_to_string p
      in
      check_string "pipe issue 8" "9aeb2f31e6348829837fe5ea29d1f6bd" (md5 text));
  ]

let suite =
  [
    ("parse.lexer", lexer_tests);
    ("parse.syntax", syntax_tests);
    ("parse.errors", error_tests);
    ("parse.files", file_tests);
  ]
