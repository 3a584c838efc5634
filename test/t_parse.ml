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
        ]);
  ]

let suite =
  [
    ("parse.lexer", lexer_tests);
    ("parse.syntax", syntax_tests);
    ("parse.errors", error_tests);
    ("parse.files", file_tests);
  ]
