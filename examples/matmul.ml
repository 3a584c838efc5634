(* Matrix multiplication and accumulator variable expansion (paper
   Figure 3): the innermost dot-product loop is limited by the
   floating-point accumulation chain until Lev4 splits the accumulator
   into independent temporaries.

   Run with: dune exec examples/matmul.exe *)

open Impact_core

let size = 24

(* The contents of A and B by column-major linear index q. *)
let a q = float_of_int ((q mod 11) - 5) /. 3.0

let b q = float_of_int ((q mod 7) - 3) /. 2.0

(* Full matrix multiply: C(i,j) = sum_k A(i,k)*B(k,j). The source gives
   the code; A's and B's contents come from [a] and [b], data no
   initializer spells. *)
let kernel =
  let p =
    Impact_fir.Parse.parse_program
      (Printf.sprintf
         {|
integer i_
integer j
integer k
real s
real A(%d, %d) zero
real B(%d, %d) zero
real C(%d, %d) zero

do j = 1, %d
  do i_ = 1, %d
    s = 0.0
    do k = 1, %d
      s = s + A(i_, k) * B(k, j)
    end
    C(i_, j) = s
  end
end
|}
         size size size size size size size size size)
  in
  let data = function
    | Impact_fir.Ast.DArray ("A", ty, dims, _) -> Impact_fir.Ast.DArray ("A", ty, dims, a)
    | Impact_fir.Ast.DArray ("B", ty, dims, _) -> Impact_fir.Ast.DArray ("B", ty, dims, b)
    | d -> d
  in
  { p with Impact_fir.Ast.decls = List.map data p.Impact_fir.Ast.decls }

(* OCaml reference for validation. *)
let reference () =
  let c = Array.make (size * size) 0.0 in
  for j = 0 to size - 1 do
    for i = 0 to size - 1 do
      let s = ref 0.0 in
      for k = 0 to size - 1 do
        s := !s +. (a (i + (k * size)) *. b (k + (j * size)))
      done;
      c.(i + (j * size)) <- !s
    done
  done;
  c

let () =
  print_endline "Matrix multiply (Figure 3): accumulator expansion removes the";
  print_endline "floating-point reduction chain of the inner product.";
  print_newline ();
  let iters = size * size * size in
  let base =
    Compile.measure_with Opts.default Level.Conv Impact_ir.Machine.issue_1 (Impact_fir.Lower.lower kernel)
  in
  Printf.printf "%-5s %-9s %10s %12s %9s\n" "level" "machine" "cycles" "cyc/inner-it"
    "speedup";
  List.iter
    (fun level ->
      List.iter
        (fun machine ->
          let m = Compile.measure_with Opts.default level machine (Impact_fir.Lower.lower kernel) in
          Printf.printf "%-5s %-9s %10d %12.2f %9.2f\n" (Level.to_string level)
            machine.Impact_ir.Machine.name m.Compile.cycles
            (float_of_int m.Compile.cycles /. float_of_int iters)
            (Compile.speedup ~base ~this:m))
        [ Impact_ir.Machine.issue_8 ])
    Level.all;
  (* Validate against the OCaml reference. *)
  let m = Compile.measure_with Opts.default Level.Lev4 Impact_ir.Machine.issue_8 (Impact_fir.Lower.lower kernel) in
  let c = List.assoc "C" m.Compile.result.Impact_sim.Sim.arrays_out in
  let expect = reference () in
  let max_err = ref 0.0 in
  Array.iteri (fun q x -> max_err := max !max_err (abs_float (x -. expect.(q)))) c;
  Printf.printf "\nmax |C - reference| at Lev4: %g\n" !max_err;
  if !max_err > 1e-6 then failwith "validation failed"
