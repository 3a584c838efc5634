(* Operation combining and tree height reduction (paper Figures 6 and 7).

   Figure 6: a guarded early-continue loop whose address computation and
   comparison both hang off constant-operand instructions; combining
   eliminates the flow dependences (paper: 7 -> 5 cycles per iteration).

   Figure 7: the expression A = B*(C+D)*E*F/G, evaluated serially by
   conventional code generation (22 cycles) and rebalanced by tree height
   reduction so the divide overlaps the multiply tree (13 cycles).

   Run with: dune exec examples/combine_thr.exe *)

open Impact_core

let n = 512

(* Figure 6's loop shape: t = A(i+2) - 3.2; IF (t .LT. 10.0) CYCLE; ...
   The source gives the code; A's contents, k mod 29 (0-based k), are
   data no initializer spells, so they come from OCaml. *)
let fig6_kernel =
  let p =
    Impact_fir.Parse.parse_program
      (Printf.sprintf
         {|
integer i_
integer cnt
real A(%d) zero

cnt = 0
do i_ = 1, %d
  if (A(i_ + 2) - 3.2 .lt. 10.0) cycle
  cnt = cnt + 1
end

output cnt
|}
         (n + 4) n)
  in
  let data = function
    | Impact_fir.Ast.DArray ("A", ty, dims, _) ->
      Impact_fir.Ast.DArray ("A", ty, dims, fun k -> float_of_int (k mod 29))
    | d -> d
  in
  { p with Impact_fir.Ast.decls = List.map data p.Impact_fir.Ast.decls }

(* Figure 7's expression, with runtime operands so nothing constant-folds
   (V(k) = k + 2, 0-based k). *)
let fig7_kernel =
  Impact_fir.Parse.parse_program
    {|
real a
real b
real c
real d
real e
real f
real g
real V(8) linear 2 1

b = V(1)
c = V(2)
d = V(3)
e = V(4)
f = V(5)
g = V(6)
a = b * (c + d) * e * f / g

output a
|}

let cycles level kernel =
  let m = Compile.measure_with Opts.default level Impact_ir.Machine.unlimited (Impact_fir.Lower.lower kernel) in
  m

let () =
  print_endline "Figure 6: operation combining on a guarded early-continue loop";
  print_endline "(paper: 7 -> 5 cycles/iteration before unrolling effects)";
  let m2 = cycles Level.Lev2 fig6_kernel in
  let m3 = cycles Level.Lev3 fig6_kernel in
  Printf.printf "  Lev2 (no combining):  %.2f cycles/iter\n"
    (float_of_int m2.Compile.cycles /. float_of_int n);
  Printf.printf "  Lev3 (with combining): %.2f cycles/iter\n"
    (float_of_int m3.Compile.cycles /. float_of_int n);
  print_newline ();
  print_endline "Figure 7: tree height reduction on A = B*(C+D)*E*F/G";
  print_endline "(paper: expression latency 22 -> 13 cycles)";
  let before = Impact_opt.Conv.run (Impact_fir.Lower.lower fig7_kernel) in
  let after = Impact_opt.Conv.cleanup (Tree_height.run before) in
  let run p =
    let p = Impact_sched.Superblock.run p in
    let p = Impact_sched.List_sched.run Impact_ir.Machine.unlimited p in
    Impact_sim.Sim.run Impact_ir.Machine.unlimited p
  in
  let rb = run before and ra = run after in
  Printf.printf "  conventional: %d cycles total\n" rb.Impact_sim.Sim.cycles;
  Printf.printf "  tree height reduced: %d cycles total\n" ra.Impact_sim.Sim.cycles;
  Printf.printf "  value: %s = %s (unchanged up to rounding)\n"
    (fst (List.hd ra.Impact_sim.Sim.outputs))
    (Impact_sim.Sim.value_to_string (snd (List.hd ra.Impact_sim.Sim.outputs)));
  print_newline ();
  print_endline "Rebalanced expression code:";
  print_string (Impact_ir.Pp.prog_to_string after)
