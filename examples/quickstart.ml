(* Quickstart: write a kernel in mini-Fortran, compile it at each
   transformation level, and simulate it — reproducing the paper's
   Figure 1 walk-through (vector add at 7.0 / 6.3 / 2.7 cycles per
   iteration for Conv / unrolling / unrolling+renaming on a machine with
   unbounded issue).

   Run with: dune exec examples/quickstart.exe *)

open Impact_core

let n = 768

(* DO 10 j = 1,n : C(j) = A(j) + B(j), with A(k) = k and B(k) = 2k
   (0-based k). *)
let kernel =
  Impact_fir.Parse.parse_program
    (Printf.sprintf
       {|
integer j
real A(%d) linear 0 1
real B(%d) linear 0 2
real C(%d) zero

do j = 1, %d
  C(j) = A(j) + B(j)
end
|}
       n n n n)

let () =
  print_endline "Figure 1 walk-through: vector add, unroll factor 3, unlimited issue";
  print_endline "(paper: Conv 7.0, Lev1 6.33, Lev2 2.67 cycles/iteration)";
  print_newline ();
  let machine = Impact_ir.Machine.unlimited in
  let base = Compile.measure_with Opts.default Level.Conv Impact_ir.Machine.issue_1 (Impact_fir.Lower.lower kernel) in
  Printf.printf "%-5s %10s %12s %9s\n" "level" "cycles" "cycles/iter" "speedup";
  List.iter
    (fun level ->
      let m =
        Compile.measure_with (Opts.make ~unroll:3 ()) level machine (Impact_fir.Lower.lower kernel)
      in
      Printf.printf "%-5s %10d %12.2f %9.2f\n" (Level.to_string level) m.Compile.cycles
        (float_of_int m.Compile.cycles /. float_of_int n)
        (Compile.speedup ~base ~this:m))
    Level.all;
  print_newline ();
  print_endline "Lev2 code (after unrolling and renaming):";
  let p =
    Level.apply ~unroll_factor:3 Level.Lev2 (Impact_fir.Lower.lower kernel)
  in
  print_string (Impact_ir.Pp.prog_to_string p)
