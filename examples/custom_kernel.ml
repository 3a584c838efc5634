(* Bringing your own kernel: write a workload in mini-Fortran and
   explore the machine-configuration space — issue rates and unroll
   factors — the way the paper's Section 3 does for its 40 loops.

   The kernel here is a 1-d three-point stencil smoother, a DOALL loop
   (reads and writes touch different arrays). The same text in a file
   runs with [impactc run-file].

   Run with: dune exec examples/custom_kernel.exe *)

open Impact_core

let n = 512

let stencil =
  Impact_fir.Parse.parse_program
    (Printf.sprintf
       {|
integer j
real U(%d) seed 1
real V(%d) zero

do j = 2, %d
  V(j) = (U(j - 1) + U(j) * 2.0 + U(j + 1)) * 0.25
end
|}
       (n + 4) (n + 4) n)

let () =
  print_endline "Three-point stencil: Lev4 speedup across issue rates and unroll factors";
  print_endline "(speedup vs. issue-1 Conv)";
  print_newline ();
  let base =
    Compile.measure_with Opts.default Level.Conv Impact_ir.Machine.issue_1 (Impact_fir.Lower.lower stencil)
  in
  let unrolls = [ 2; 4; 8 ] in
  Printf.printf "%-9s" "issue\\unr";
  List.iter (fun u -> Printf.printf " %8d" u) unrolls;
  print_newline ();
  List.iter
    (fun issue ->
      let machine = Impact_ir.Machine.make ~issue () in
      Printf.printf "%-9d" issue;
      List.iter
        (fun u ->
          let m =
            Compile.measure_with (Opts.make ~unroll:u ()) Level.Lev4 machine
              (Impact_fir.Lower.lower stencil)
          in
          Printf.printf " %8.2f" (Compile.speedup ~base ~this:m))
        unrolls;
      print_newline ())
    [ 1; 2; 4; 8; 16 ];
  print_newline ();
  (* Sanity-check the DOALL classification of this kernel. *)
  let p = Impact_opt.Conv.run (Impact_fir.Lower.lower stencil) in
  (match List.filter Impact_ir.Block.is_innermost (Impact_ir.Block.loops p.Impact_ir.Prog.entry) with
  | l :: _ ->
    Printf.printf "classification: %s\n"
      (Impact_analysis.Classify.to_string (Impact_analysis.Classify.classify l))
  | [] -> ())
