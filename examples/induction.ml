(* Induction variable expansion (paper Figure 5): a strided update loop
   whose address computations chain through a single induction variable.
   Renaming (Lev2) breaks the anti-dependences but the increments stay
   flow-dependent; induction variable expansion (Lev4) gives each
   unrolled body its own induction register.

   Run with: dune exec examples/induction.exe *)

open Impact_core

let n = 512

(* DO 10 i = 1,n : C(j) = A(j)*B(j) ; j = j + 3 *)
let kernel =
  let m = (3 * n) + 2 in
  Impact_fir.Parse.parse_program
    (Printf.sprintf
       {|
integer i_
integer j
real A(%d) seed 1
real B(%d) seed 2
real C(%d) zero

j = 1
do i_ = 1, %d
  C(j) = A(j) * B(j)
  j = j + 3
end

output j
|}
       m m m n)

let () =
  print_endline "Figure 5 walk-through: strided product loop, unroll factor 3,";
  print_endline "unlimited issue (paper: Conv 6.0, Lev2 2.67, +induction expansion 2.0";
  print_endline "cycles/iteration).";
  print_newline ();
  let base =
    Compile.measure_with Opts.default Level.Conv Impact_ir.Machine.issue_1 (Impact_fir.Lower.lower kernel)
  in
  Printf.printf "%-5s %12s %9s\n" "level" "cycles/iter" "speedup";
  List.iter
    (fun level ->
      let m =
        Compile.measure_with (Opts.make ~unroll:3 ()) level Impact_ir.Machine.unlimited
          (Impact_fir.Lower.lower kernel)
      in
      Printf.printf "%-5s %12.2f %9.2f\n" (Level.to_string level)
        (float_of_int m.Compile.cycles /. float_of_int n)
        (Compile.speedup ~base ~this:m))
    Level.all;
  print_newline ();
  print_endline "Lev4 inner loop (independent induction registers per body):";
  let p = Level.apply ~unroll_factor:3 Level.Lev4 (Impact_fir.Lower.lower kernel) in
  print_string (Impact_ir.Pp.prog_to_string p)
