(* The 40 loop nests of the paper's Table 2, as synthetic mini-Fortran
   kernels. Each entry reproduces the published characteristics of the
   innermost loop: source-line count (approximately), average iteration
   count, nesting depth, KAP classification and presence of
   conditionals. Iteration counts above [sim_cap] are capped for
   simulation (steady-state cycles/iteration are reached within a few
   iterations, so speedups are insensitive to the cap). *)

open Impact_fir.Ast
open Kernels

type ltype = Doall | Doacross | Serial

let ltype_to_string = function
  | Doall -> "doall"
  | Doacross -> "doacross"
  | Serial -> "serial"

type t = {
  name : string;
  origin : string;  (* PERFECT | SPEC | VECTOR *)
  size : int;  (* paper: FORTRAN lines in the innermost loop *)
  iters : int;  (* paper: average innermost iteration count *)
  sim_iters : int;  (* iteration count actually simulated *)
  nest : int;
  ltype : ltype;
  conds : bool;
  ast : program;
}

let sim_cap = 512

let entry ~name ~origin ~size ~iters ~nest ~ltype ~conds ast_of_n =
  let sim_iters = min iters sim_cap in
  {
    name;
    origin;
    size;
    iters;
    sim_iters;
    nest;
    ltype;
    conds;
    ast = ast_of_n sim_iters;
  }

(* ---------- PERFECT club loop nests ---------- *)

(* APS-1: 2-line elementwise update, nest 2, DOALL. *)
let aps1 n =
  {
    decls =
      scalar "j" TInt :: scalar "t" TInt
      :: decls2 [ "A"; "B"; "C"; "D" ] (n + 2) 3;
    stmts =
      [
        do_ "t" (i 1) (i 3)
          [
            do_ "j" (i 1) (i n)
              [
                astore "C" [ v "j"; v "t" ]
                  ((idx "A" [ v "j"; v "t" ] *: r 1.5) +: idx "B" [ v "j"; v "t" ]);
                astore "D" [ v "j"; v "t" ]
                  (idx "A" [ v "j"; v "t" ] -: idx "B" [ v "j"; v "t" ]);
              ];
          ];
      ];
    outs = [];
  }

(* APS-2: 8-line multi-array elementwise, nest 2, DOALL. *)
let aps2 n =
  let dsts = [| "Q"; "W"; "E"; "T" |] in
  let srcs = [| "A"; "B"; "C"; "D" |] in
  {
    decls =
      scalar "j" TInt :: scalar "t" TInt
      :: (decls2 (Array.to_list dsts) (n + 2) 3 @ decls2 (Array.to_list srcs) (n + 2) 3);
    stmts =
      [
        do_ "t" (i 1) (i 3)
          [
            do_ "j" (i 1) (i n)
              (elementwise_lines2 ~dsts ~srcs ~j:(v "j") ~t:(v "t") 8);
          ];
      ];
    outs = [];
  }

(* APS-3: saxpy-like, nest 1, DOALL. *)
let aps3 n =
  {
    decls = (scalar "j" TInt :: scalar "a" TReal ~init:1.75 :: decls1 [ "X"; "Y"; "Z" ] (n + 2));
    stmts =
      [
        do_ "j" (i 1) (i n)
          [
            astore "Y" [ v "j" ] (idx "Y" [ v "j" ] +: (v "a" *: idx "X" [ v "j" ]));
            astore "Z" [ v "j" ] (idx "X" [ v "j" ] *: r 0.5);
          ];
      ];
    outs = [];
  }

(* CSS-1: conditional damped accumulation, nest 1, serial, conds. *)
let css1 n =
  {
    decls =
      (scalar "j" TInt :: scalar "s" TReal :: scalar "cnt" TInt
      :: scalar "tmp" TReal :: decls1 [ "A"; "B" ] (n + 2));
    stmts =
      [
        assign "s" (r 0.0);
        assign "cnt" (i 0);
        do_ "j" (i 1) (i n)
          [
            assign "tmp" (idx "A" [ v "j" ] -: r 2.0);
            if_ CLt (v "tmp") (r 0.0) [ SCycle ] [];
            assign "s" ((v "s" *: r 0.9) +: v "tmp");
            assign "cnt" (v "cnt" +: i 1);
            astore "B" [ v "j" ] (v "s");
            astore "A" [ v "j" ] (v "tmp" *: r 1.125);
          ];
      ];
    outs = [ "s"; "cnt" ];
  }

(* LWS-1: two-line product accumulation, nest 2, serial. *)
let lws1 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt :: scalar "s" TReal :: scalar "w" TReal
      :: decls2 [ "A"; "B" ] (n + 2) 3);
    stmts =
      [
        assign "s" (r 0.0);
        do_ "t" (i 1) (i 3)
          [
            do_ "j" (i 1) (i n)
              [
                assign "w" (idx "A" [ v "j"; v "t" ] *: idx "B" [ v "j"; v "t" ]);
                assign "s" (v "s" +: v "w");
              ];
          ];
      ];
    outs = [ "s" ];
  }

(* LWS-2: single-line sum, nest 2, serial. *)
let lws2 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt :: scalar "s" TReal :: decls2 [ "A" ] (n + 2) 2);
    stmts =
      [
        assign "s" (r 0.0);
        do_ "t" (i 1) (i 2)
          [ do_ "j" (i 1) (i n) [ assign "s" (v "s" +: idx "A" [ v "j"; v "t" ]) ] ];
      ];
    outs = [ "s" ];
  }

(* MTS-1: running maximum, nest 2, serial, conds. *)
let mts1 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt :: scalar "mx" TReal ~init:(-1e30)
      :: decls2 [ "A" ] (n + 2) 2);
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              [
                if_ CGt (idx "A" [ v "j"; v "t" ]) (v "mx")
                  [ assign "mx" (idx "A" [ v "j"; v "t" ]) ]
                  [];
              ];
          ];
      ];
    outs = [ "mx" ];
  }

(* MTS-2: running minimum over a 3-deep nest, serial, conds. *)
let mts2 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt :: scalar "u" TInt
      :: scalar "mn" TReal ~init:1e30
      :: [ array3 "A" TReal (n + 2) 2 2 (init 3) ]);
    stmts =
      [
        do_ "u" (i 1) (i 2)
          [
            do_ "t" (i 1) (i 2)
              [
                do_ "j" (i 1) (i n)
                  [
                    if_ CLt (idx "A" [ v "j"; v "t"; v "u" ]) (v "mn")
                      [ assign "mn" (idx "A" [ v "j"; v "t"; v "u" ]) ]
                      [];
                  ];
              ];
          ];
      ];
    outs = [ "mn" ];
  }

(* NAS-1: 22-line elementwise block, nest 1, DOALL. *)
let nas1 n =
  let dsts = [| "P"; "Q"; "W"; "E"; "S1"; "S2" |] in
  let srcs = [| "A"; "B"; "C"; "D"; "E2"; "F" |] in
  {
    decls =
      scalar "j" TInt
      :: (decls1 (Array.to_list dsts) (n + 2) @ decls1 (Array.to_list srcs) (n + 2));
    stmts = [ do_ "j" (i 1) (i n) (elementwise_lines ~dsts ~srcs ~j:(v "j") 22) ];
    outs = [];
  }

(* NAS-2: 5-line neighbourhood smoother, nest 1, DOALL. *)
let nas2 n =
  {
    decls = (scalar "j" TInt :: decls1 [ "A"; "B"; "C"; "D" ] (n + 4));
    stmts =
      [
        do_ "j" (i 2) (i n)
          [
            astore "B" [ v "j" ]
              ((idx "A" [ v "j" -: i 1 ] +: idx "A" [ v "j" ] +: idx "A" [ v "j" +: i 1 ])
              *: r 0.3333);
            astore "C" [ v "j" ] (idx "A" [ v "j" ] *: idx "A" [ v "j" ]);
            astore "D" [ v "j" ]
              ((idx "A" [ v "j" +: i 1 ] -: idx "A" [ v "j" -: i 1 ]) *: r 0.5);
          ];
      ];
    outs = [];
  }

(* NAS-3: 6-line elementwise, nest 1, DOALL. *)
let nas3 n =
  let dsts = [| "P"; "Q"; "W" |] in
  let srcs = [| "A"; "B"; "C" |] in
  {
    decls =
      scalar "j" TInt
      :: (decls1 (Array.to_list dsts) (n + 2) @ decls1 (Array.to_list srcs) (n + 2));
    stmts = [ do_ "j" (i 1) (i n) (elementwise_lines ~dsts ~srcs ~j:(v "j") 6) ];
    outs = [];
  }

(* NAS-4: first-order linear recurrence, nest 1, serial. *)
let nas4 n =
  {
    decls = (scalar "j" TInt :: scalar "s" TReal ~init:0.5 :: decls1 [ "A"; "B" ] (n + 2));
    stmts =
      [
        do_ "j" (i 1) (i n)
          [
            assign "s" ((v "s" *: r 0.875) +: idx "A" [ v "j" ]);
            astore "B" [ v "j" ] (v "s");
          ];
      ];
    outs = [ "s" ];
  }

(* NAS-5: 71-line body: a large block of independent updates plus three
   sum accumulators, nest 2, serial. *)
let nas5 n =
  let dsts = [| "P"; "Q"; "W"; "E"; "T2"; "Y"; "U"; "I2" |] in
  let srcs = [| "A"; "B"; "C"; "D"; "E2"; "F"; "G"; "H" |] in
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt :: scalar "s1" TReal :: scalar "s2" TReal
      :: scalar "s3" TReal
      :: (decls2 (Array.to_list dsts) (n + 2) 2 @ decls2 (Array.to_list srcs) (n + 2) 2));
    stmts =
      [
        assign "s1" (r 0.0);
        assign "s2" (r 0.0);
        assign "s3" (r 1.0);
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              (elementwise_lines2 ~dsts ~srcs ~j:(v "j") ~t:(v "t") 65
              @ [
                  assign "s1" (v "s1" +: idx "A" [ v "j"; v "t" ]);
                  assign "s2" (v "s2" +: (idx "B" [ v "j"; v "t" ] *: idx "C" [ v "j"; v "t" ]));
                  assign "s3" (v "s3" +: (idx "D" [ v "j"; v "t" ] *: r 0.001));
                ]);
          ];
      ];
    outs = [ "s1"; "s2"; "s3" ];
  }

(* NAS-6: 24-line body with a distance-4 memory recurrence, nest 2,
   DOACROSS. *)
let nas6 n =
  let dsts = [| "P"; "Q"; "W" |] in
  let srcs = [| "B"; "C"; "D" |] in
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt
      :: array2 "A" TReal (n + 8) 2 (init 9)
      :: (decls2 (Array.to_list dsts) (n + 8) 2 @ decls2 (Array.to_list srcs) (n + 8) 2));
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              (astore "A"
                 [ v "j" +: i 4; v "t" ]
                 ((idx "A" [ v "j"; v "t" ] *: r 0.5) +: idx "B" [ v "j"; v "t" ])
              :: elementwise_lines2 ~dsts ~srcs ~j:(v "j") ~t:(v "t") 23);
          ];
      ];
    outs = [];
  }

(* SDS-1: sum of squares, nest 2, serial. *)
let sds1 n =
  {
    decls = (scalar "j" TInt :: scalar "t" TInt :: scalar "s" TReal :: decls2 [ "A" ] (n + 2) 2);
    stmts =
      [
        assign "s" (r 0.0);
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              [ assign "s" (v "s" +: (idx "A" [ v "j"; v "t" ] *: idx "A" [ v "j"; v "t" ])) ];
          ];
      ];
    outs = [ "s" ];
  }

(* SDS-2: 3-deep nest sum, serial. *)
let sds2 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt :: scalar "u" TInt :: scalar "s" TReal
      :: [ array3 "A" TReal (n + 2) 2 2 (init 4) ]);
    stmts =
      [
        assign "s" (r 0.0);
        do_ "u" (i 1) (i 2)
          [
            do_ "t" (i 1) (i 2)
              [
                do_ "j" (i 1) (i n)
                  [ assign "s" (v "s" +: idx "A" [ v "j"; v "t"; v "u" ]) ];
              ];
          ];
      ];
    outs = [ "s" ];
  }

(* SDS-3: dot-product accumulation, nest 2, serial. *)
let sds3 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt :: scalar "p" TReal :: decls2 [ "B"; "C" ] (n + 2) 2);
    stmts =
      [
        assign "p" (r 0.0);
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              [ assign "p" (v "p" +: (idx "B" [ v "j"; v "t" ] *: idx "C" [ v "j"; v "t" ])) ];
          ];
      ];
    outs = [ "p" ];
  }

(* SDS-4: distance-4 memory recurrence, nest 2, DOACROSS. *)
let sds4 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt
      :: array2 "A" TReal (n + 8) 2 (init 5)
      :: decls2 [ "B"; "C" ] (n + 8) 2);
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              [
                astore "A"
                  [ v "j" +: i 4; v "t" ]
                  ((idx "A" [ v "j"; v "t" ] *: r 0.5) +: idx "B" [ v "j"; v "t" ]);
                astore "C" [ v "j"; v "t" ] (idx "B" [ v "j"; v "t" ] *: r 2.0);
                astore "B" [ v "j"; v "t" ] (idx "C" [ v "j"; v "t" ] +: r 1.0);
              ];
          ];
      ];
    outs = [];
  }

(* SRS-1: 3-line elementwise, nest 1, DOALL. *)
let srs1 n =
  let dsts = [| "P"; "Q"; "W" |] in
  let srcs = [| "A"; "B" |] in
  {
    decls =
      scalar "j" TInt
      :: (decls1 (Array.to_list dsts) (n + 2) @ decls1 (Array.to_list srcs) (n + 2));
    stmts = [ do_ "j" (i 1) (i n) (elementwise_lines ~dsts ~srcs ~j:(v "j") 3) ];
    outs = [];
  }

(* SRS-2: 5-line body with a distance-5 memory recurrence, nest 2,
   DOACROSS. *)
let srs2 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt
      :: array2 "A" TReal (n + 10) 2 (init 6)
      :: decls2 [ "B"; "C"; "D" ] (n + 10) 2);
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              [
                astore "A"
                  [ v "j" +: i 5; v "t" ]
                  ((idx "A" [ v "j"; v "t" ] +: idx "B" [ v "j"; v "t" ]) *: r 0.5);
                astore "C" [ v "j"; v "t" ]
                  (idx "B" [ v "j"; v "t" ] *: idx "B" [ v "j"; v "t" ]);
                astore "D" [ v "j"; v "t" ] (idx "C" [ v "j"; v "t" ] +: r 2.5);
              ];
          ];
      ];
    outs = [];
  }

(* SRS-3: single-line scale, nest 2, DOALL. *)
let srs3 n =
  {
    decls = (scalar "j" TInt :: scalar "t" TInt :: decls2 [ "A"; "C" ] (n + 2) 2);
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              [ astore "C" [ v "j"; v "t" ] (idx "A" [ v "j"; v "t" ] *: r 1.5) ];
          ];
      ];
    outs = [];
  }

(* SRS-4: 9-line body over a 3-deep nest, DOALL. *)
let srs4 n =
  let arr name = array3 name TReal (n + 2) 2 2 (init 7) in
  {
    decls =
      [ scalar "j" TInt; scalar "t" TInt; scalar "u" TInt; arr "A"; arr "B"; arr "P";
        arr "Q"; arr "W" ];
    stmts =
      [
        do_ "u" (i 1) (i 2)
          [
            do_ "t" (i 1) (i 2)
              [
                do_ "j" (i 1) (i n)
                  [
                    astore "P" [ v "j"; v "t"; v "u" ]
                      ((idx "A" [ v "j"; v "t"; v "u" ] *: r 0.5)
                      +: idx "B" [ v "j"; v "t"; v "u" ]);
                    astore "Q" [ v "j"; v "t"; v "u" ]
                      (idx "A" [ v "j"; v "t"; v "u" ] -: idx "B" [ v "j"; v "t"; v "u" ]);
                    astore "W" [ v "j"; v "t"; v "u" ]
                      ((idx "A" [ v "j"; v "t"; v "u" ] +: idx "B" [ v "j"; v "t"; v "u" ])
                      *: r 0.25);
                    astore "A" [ v "j"; v "t"; v "u" ]
                      (idx "P" [ v "j"; v "t"; v "u" ] *: r 1.125);
                    astore "B" [ v "j"; v "t"; v "u" ]
                      (idx "Q" [ v "j"; v "t"; v "u" ] +: r 0.375);
                  ];
              ];
          ];
      ];
    outs = [];
  }

(* SRS-5: 21-line elementwise block, nest 2, DOALL. *)
let srs5 n =
  let dsts = [| "P"; "Q"; "W"; "E"; "Y" |] in
  let srcs = [| "A"; "B"; "C"; "D" |] in
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt
      :: (decls2 (Array.to_list dsts) (n + 2) 2 @ decls2 (Array.to_list srcs) (n + 2) 2));
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [ do_ "j" (i 1) (i n) (elementwise_lines2 ~dsts ~srcs ~j:(v "j") ~t:(v "t") 21) ];
      ];
    outs = [];
  }

(* SRS-6: single-line decrementing accumulator, nest 2, serial. *)
let srs6 n =
  {
    decls = (scalar "j" TInt :: scalar "t" TInt :: scalar "s" TReal ~init:1000.0 :: decls2 [ "A" ] (n + 2) 2);
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [ do_ "j" (i 1) (i n) [ assign "s" (v "s" -: idx "A" [ v "j"; v "t" ]) ] ];
      ];
    outs = [ "s" ];
  }

(* TFS-1: 11-line elementwise block, nest 2, DOALL. *)
let tfs1 n =
  let dsts = [| "P"; "Q"; "W"; "E" |] in
  let srcs = [| "A"; "B"; "C" |] in
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt
      :: (decls2 (Array.to_list dsts) (n + 2) 2 @ decls2 (Array.to_list srcs) (n + 2) 2));
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [ do_ "j" (i 1) (i n) (elementwise_lines2 ~dsts ~srcs ~j:(v "j") ~t:(v "t") 11) ];
      ];
    outs = [];
  }

(* TFS-2: 7-line body with a distance-3 memory recurrence, nest 2,
   DOACROSS. *)
let tfs2 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt
      :: array2 "A" TReal (n + 6) 2 (init 8)
      :: decls2 [ "B"; "C"; "D"; "E2" ] (n + 6) 2);
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              [
                astore "A"
                  [ v "j" +: i 3; v "t" ]
                  ((idx "A" [ v "j"; v "t" ] *: r 0.25) +: idx "B" [ v "j"; v "t" ]);
                astore "C" [ v "j"; v "t" ]
                  ((idx "B" [ v "j"; v "t" ] +: idx "D" [ v "j"; v "t" ]) *: r 0.5);
                astore "E2" [ v "j"; v "t" ]
                  (idx "C" [ v "j"; v "t" ] -: (idx "D" [ v "j"; v "t" ] *: r 0.125));
                astore "D" [ v "j"; v "t" ] (idx "B" [ v "j"; v "t" ] /: r 2.0);
              ];
          ];
      ];
    outs = [];
  }

(* TFS-3: 2-line body over a 3-deep nest, DOALL. *)
let tfs3 n =
  let arr name seed = array3 name TReal (n + 2) 2 2 (init seed) in
  {
    decls =
      [ scalar "j" TInt; scalar "t" TInt; scalar "u" TInt; arr "A" 1; arr "B" 2;
        arr "P" 3; arr "Q" 4 ];
    stmts =
      [
        do_ "u" (i 1) (i 2)
          [
            do_ "t" (i 1) (i 2)
              [
                do_ "j" (i 1) (i n)
                  [
                    astore "P" [ v "j"; v "t"; v "u" ]
                      (idx "A" [ v "j"; v "t"; v "u" ] *: idx "B" [ v "j"; v "t"; v "u" ]);
                    astore "Q" [ v "j"; v "t"; v "u" ]
                      (idx "A" [ v "j"; v "t"; v "u" ] +: idx "B" [ v "j"; v "t"; v "u" ]);
                  ];
              ];
          ];
      ];
    outs = [];
  }

(* WSS-1: single-line scaled copy, nest 2, DOALL. *)
let wss1 n =
  {
    decls = (scalar "j" TInt :: scalar "t" TInt :: decls2 [ "A"; "B" ] (n + 2) 2);
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              [
                astore "B" [ v "j"; v "t" ]
                  ((idx "A" [ v "j"; v "t" ] *: r 0.625) +: r 1.0);
              ];
          ];
      ];
    outs = [];
  }

(* WSS-2: 4-line body with a distance-6 memory recurrence, nest 2,
   DOACROSS. *)
let wss2 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt
      :: array2 "A" TReal (n + 12) 2 (init 10)
      :: decls2 [ "B"; "C" ] (n + 12) 2);
    stmts =
      [
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              [
                astore "A"
                  [ v "j" +: i 6; v "t" ]
                  (idx "A" [ v "j"; v "t" ] +: (idx "B" [ v "j"; v "t" ] *: r 0.75));
                astore "C" [ v "j"; v "t" ]
                  (idx "B" [ v "j"; v "t" ] *: idx "B" [ v "j"; v "t" ]);
              ];
          ];
      ];
    outs = [];
  }

(* ---------- SPEC loop nests ---------- *)

(* doduc-1: 38-line serial body with conditionals, deep expression trees
   (tree-height-reduction fodder) and accumulators. *)
let doduc1 n =
  let dsts = [| "P"; "Q"; "W" |] in
  let srcs = [| "A"; "B"; "C"; "D" |] in
  {
    decls =
      (scalar "j" TInt :: scalar "s" TReal :: scalar "x" TReal :: scalar "y" TReal
      :: scalar "zc" TReal :: scalar "hi" TReal ~init:50.0
      :: (decls1 (Array.to_list dsts) (n + 2) @ decls1 (Array.to_list srcs) (n + 2)
         @ [ array1 "G" TReal (n + 2) (init_pos 12) ]));
    stmts =
      [
        assign "s" (r 0.0);
        do_ "j" (i 1) (i n)
          ([
             (* A deep arithmetic expression: B*(C+D)*E*F/G shape. *)
             assign "x"
               (idx "B" [ v "j" ]
               *: (idx "C" [ v "j" ] +: idx "D" [ v "j" ])
               *: idx "A" [ v "j" ] *: idx "B" [ v "j" ] /: idx "G" [ v "j" ]);
             if_ CGt (v "x") (v "hi") [ assign "y" (v "hi") ] [ assign "y" (v "x") ];
             assign "zc" ((v "y" *: r 0.5) +: idx "A" [ v "j" ]);
             if_ CLt (v "zc") (r 0.0) [ assign "zc" (r 0.0) ] [];
             assign "s" (v "s" +: v "zc");
           ]
          @ elementwise_lines ~dsts ~srcs ~j:(v "j") 14
          @ [
              astore "P" [ v "j" ] (v "zc" *: r 2.0);
              astore "Q" [ v "j" ] (v "y" -: v "x");
            ]);
      ];
    outs = [ "s" ];
  }

(* matrix300-1: daxpy row update, nest 1, DOALL. *)
let matrix300_1 n =
  {
    decls = (scalar "j" TInt :: scalar "a" TReal ~init:1.25 :: decls1 [ "B"; "C" ] (n + 2));
    stmts =
      [
        do_ "j" (i 1) (i n)
          [ astore "C" [ v "j" ] (idx "C" [ v "j" ] +: (v "a" *: idx "B" [ v "j" ])) ];
      ];
    outs = [];
  }

(* nasa7-1: single-line scale over a 3-deep nest, DOALL. *)
let nasa7_1 n =
  {
    decls =
      [ scalar "j" TInt; scalar "t" TInt; scalar "u" TInt;
        array3 "A" TReal (n + 2) 2 2 (init 13) ];
    stmts =
      [
        do_ "u" (i 1) (i 2)
          [
            do_ "t" (i 1) (i 2)
              [
                do_ "j" (i 1) (i n)
                  [
                    astore "A" [ v "j"; v "t"; v "u" ]
                      (idx "A" [ v "j"; v "t"; v "u" ] *: r 1.0625);
                  ];
              ];
          ];
      ];
    outs = [];
  }

(* nasa7-2: 3-line body with a distance-1 memory recurrence over a
   3-deep nest, DOACROSS. *)
let nasa7_2 n =
  let arr name seed = array3 name TReal (n + 4) 2 2 (init seed) in
  {
    decls =
      [ scalar "j" TInt; scalar "t" TInt; scalar "u" TInt; arr "A" 14; arr "B" 15;
        arr "C" 16 ];
    stmts =
      [
        do_ "u" (i 1) (i 2)
          [
            do_ "t" (i 1) (i 2)
              [
                do_ "j" (i 1) (i n)
                  [
                    astore "A"
                      [ v "j" +: i 1; v "t"; v "u" ]
                      ((idx "A" [ v "j"; v "t"; v "u" ] *: r 0.5)
                      +: idx "B" [ v "j"; v "t"; v "u" ]);
                    astore "C" [ v "j"; v "t"; v "u" ]
                      (idx "B" [ v "j"; v "t"; v "u" ] *: r 0.75);
                  ];
              ];
          ];
      ];
    outs = [];
  }

(* tomcatv-1: 21-line stencil block, nest 2, DOALL. *)
let tomcatv1 n =
  let at name dx dy = idx name [ v "j" +: i dx; v "t" +: i dy ] in
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt
      :: decls2
           [ "X"; "Y"; "RX"; "RY"; "XX"; "YY"; "XY"; "YX"; "AA"; "DD"; "PXX"; "PYY";
             "QXX"; "QYY" ]
           (n + 4) 4);
    stmts =
      [
        do_ "t" (i 2) (i 3)
          [
            do_ "j" (i 2) (i n)
              [
                astore "XX" [ v "j"; v "t" ] ((at "X" 1 0 -: at "X" (-1) 0) *: r 0.5);
                astore "YY" [ v "j"; v "t" ] ((at "Y" 1 0 -: at "Y" (-1) 0) *: r 0.5);
                astore "XY" [ v "j"; v "t" ] ((at "X" 0 1 -: at "X" 0 (-1)) *: r 0.5);
                astore "YX" [ v "j"; v "t" ] ((at "Y" 0 1 -: at "Y" 0 (-1)) *: r 0.5);
                astore "AA" [ v "j"; v "t" ]
                  ((at "XY" 0 0 *: at "XY" 0 0) +: (at "YX" 0 0 *: at "YX" 0 0));
                astore "DD" [ v "j"; v "t" ]
                  ((at "XX" 0 0 *: at "XX" 0 0) +: (at "YY" 0 0 *: at "YY" 0 0));
                astore "PXX" [ v "j"; v "t" ]
                  (at "X" 1 0 -: (at "X" 0 0 *: r 2.0) +: at "X" (-1) 0);
                astore "PYY" [ v "j"; v "t" ]
                  (at "Y" 1 0 -: (at "Y" 0 0 *: r 2.0) +: at "Y" (-1) 0);
                astore "QXX" [ v "j"; v "t" ]
                  (at "X" 0 1 -: (at "X" 0 0 *: r 2.0) +: at "X" 0 (-1));
                astore "QYY" [ v "j"; v "t" ]
                  (at "Y" 0 1 -: (at "Y" 0 0 *: r 2.0) +: at "Y" 0 (-1));
                astore "RX" [ v "j"; v "t" ]
                  ((at "AA" 0 0 *: at "PXX" 0 0)
                  +: (at "DD" 0 0 *: at "QXX" 0 0)
                  -: (at "XY" 0 0 *: at "PYY" 0 0 *: r 0.5));
                astore "RY" [ v "j"; v "t" ]
                  ((at "AA" 0 0 *: at "PYY" 0 0)
                  +: (at "DD" 0 0 *: at "QYY" 0 0)
                  -: (at "YX" 0 0 *: at "QXX" 0 0 *: r 0.5));
              ];
          ];
      ];
    outs = [];
  }

(* tomcatv-2: residual reduction with a running maximum, nest 2, serial,
   conds. *)
let tomcatv2 n =
  {
    decls =
      (scalar "j" TInt :: scalar "t" TInt :: scalar "rmax" TReal ~init:0.0
      :: scalar "s" TReal :: scalar "rr" TReal :: decls2 [ "RX"; "RY" ] (n + 2) 2);
    stmts =
      [
        assign "s" (r 0.0);
        do_ "t" (i 1) (i 2)
          [
            do_ "j" (i 1) (i n)
              [
                assign "rr"
                  ((idx "RX" [ v "j"; v "t" ] *: idx "RX" [ v "j"; v "t" ])
                  +: (idx "RY" [ v "j"; v "t" ] *: idx "RY" [ v "j"; v "t" ]));
                if_ CGt (v "rr") (v "rmax") [ assign "rmax" (v "rr") ] [];
                assign "s" (v "s" +: v "rr");
              ];
          ];
      ];
    outs = [ "rmax"; "s" ];
  }

(* ---------- Vector library routines ---------- *)

let vadd n =
  {
    decls = (scalar "j" TInt :: decls1 [ "A"; "B"; "C" ] (n + 2));
    stmts =
      [
        do_ "j" (i 1) (i n)
          [ astore "C" [ v "j" ] (idx "A" [ v "j" ] +: idx "B" [ v "j" ]) ];
      ];
    outs = [];
  }

let vdotprod n =
  {
    decls = (scalar "j" TInt :: scalar "s" TReal :: decls1 [ "A"; "B" ] (n + 2));
    stmts =
      [
        assign "s" (r 0.0);
        do_ "j" (i 1) (i n)
          [ assign "s" (v "s" +: (idx "A" [ v "j" ] *: idx "B" [ v "j" ])) ];
      ];
    outs = [ "s" ];
  }

let vmaxval n =
  {
    decls = (scalar "j" TInt :: scalar "mx" TReal ~init:(-1e30) :: decls1 [ "A" ] (n + 2));
    stmts =
      [
        do_ "j" (i 1) (i n)
          [
            if_ CGt (idx "A" [ v "j" ]) (v "mx") [ assign "mx" (idx "A" [ v "j" ]) ] [];
          ];
      ];
    outs = [ "mx" ];
  }

let vmerge n =
  {
    decls =
      (scalar "j" TInt
      :: array1 "M" TInt (n + 2) (init_mask 21)
      :: decls1 [ "A"; "B"; "C" ] (n + 2));
    stmts =
      [
        do_ "j" (i 1) (i n)
          [
            if_ CGt (idx "M" [ v "j" ]) (i 0)
              [ astore "C" [ v "j" ] (idx "A" [ v "j" ]) ]
              [ astore "C" [ v "j" ] (idx "B" [ v "j" ]) ];
          ];
      ];
    outs = [];
  }

let vsum n =
  {
    decls = (scalar "j" TInt :: scalar "s" TReal :: decls1 [ "A" ] (n + 2));
    stmts =
      [
        assign "s" (r 0.0);
        do_ "j" (i 1) (i n) [ assign "s" (v "s" +: idx "A" [ v "j" ]) ];
      ];
    outs = [ "s" ];
  }

(* ---------- The Table 2 suite ---------- *)

let all : t list =
  [
    entry ~name:"APS-1" ~origin:"PERFECT" ~size:2 ~iters:64 ~nest:2 ~ltype:Doall
      ~conds:false aps1;
    entry ~name:"APS-2" ~origin:"PERFECT" ~size:8 ~iters:31 ~nest:2 ~ltype:Doall
      ~conds:false aps2;
    entry ~name:"APS-3" ~origin:"PERFECT" ~size:2 ~iters:776 ~nest:1 ~ltype:Doall
      ~conds:false aps3;
    entry ~name:"CSS-1" ~origin:"PERFECT" ~size:6 ~iters:67 ~nest:1 ~ltype:Serial
      ~conds:true css1;
    entry ~name:"LWS-1" ~origin:"PERFECT" ~size:2 ~iters:343 ~nest:2 ~ltype:Serial
      ~conds:false lws1;
    entry ~name:"LWS-2" ~origin:"PERFECT" ~size:1 ~iters:3087 ~nest:2 ~ltype:Serial
      ~conds:false lws2;
    entry ~name:"MTS-1" ~origin:"PERFECT" ~size:2 ~iters:423 ~nest:2 ~ltype:Serial
      ~conds:true mts1;
    entry ~name:"MTS-2" ~origin:"PERFECT" ~size:2 ~iters:24 ~nest:3 ~ltype:Serial
      ~conds:true mts2;
    entry ~name:"NAS-1" ~origin:"PERFECT" ~size:22 ~iters:1500 ~nest:1 ~ltype:Doall
      ~conds:false nas1;
    entry ~name:"NAS-2" ~origin:"PERFECT" ~size:5 ~iters:1520 ~nest:1 ~ltype:Doall
      ~conds:false nas2;
    entry ~name:"NAS-3" ~origin:"PERFECT" ~size:6 ~iters:6000 ~nest:1 ~ltype:Doall
      ~conds:false nas3;
    entry ~name:"NAS-4" ~origin:"PERFECT" ~size:2 ~iters:1204 ~nest:1 ~ltype:Serial
      ~conds:false nas4;
    entry ~name:"NAS-5" ~origin:"PERFECT" ~size:71 ~iters:1500 ~nest:2 ~ltype:Serial
      ~conds:false nas5;
    entry ~name:"NAS-6" ~origin:"PERFECT" ~size:24 ~iters:635 ~nest:2 ~ltype:Doacross
      ~conds:false nas6;
    entry ~name:"SDS-1" ~origin:"PERFECT" ~size:1 ~iters:25 ~nest:2 ~ltype:Serial
      ~conds:false sds1;
    entry ~name:"SDS-2" ~origin:"PERFECT" ~size:1 ~iters:32 ~nest:3 ~ltype:Serial
      ~conds:false sds2;
    entry ~name:"SDS-3" ~origin:"PERFECT" ~size:1 ~iters:25 ~nest:2 ~ltype:Serial
      ~conds:false sds3;
    entry ~name:"SDS-4" ~origin:"PERFECT" ~size:3 ~iters:25 ~nest:2 ~ltype:Doacross
      ~conds:false sds4;
    entry ~name:"SRS-1" ~origin:"PERFECT" ~size:3 ~iters:287 ~nest:1 ~ltype:Doall
      ~conds:false srs1;
    entry ~name:"SRS-2" ~origin:"PERFECT" ~size:5 ~iters:287 ~nest:2 ~ltype:Doacross
      ~conds:false srs2;
    entry ~name:"SRS-3" ~origin:"PERFECT" ~size:1 ~iters:287 ~nest:2 ~ltype:Doall
      ~conds:false srs3;
    entry ~name:"SRS-4" ~origin:"PERFECT" ~size:9 ~iters:87 ~nest:3 ~ltype:Doall
      ~conds:false srs4;
    entry ~name:"SRS-5" ~origin:"PERFECT" ~size:21 ~iters:287 ~nest:2 ~ltype:Doall
      ~conds:false srs5;
    entry ~name:"SRS-6" ~origin:"PERFECT" ~size:1 ~iters:287 ~nest:2 ~ltype:Serial
      ~conds:false srs6;
    entry ~name:"TFS-1" ~origin:"PERFECT" ~size:11 ~iters:89 ~nest:2 ~ltype:Doall
      ~conds:false tfs1;
    entry ~name:"TFS-2" ~origin:"PERFECT" ~size:7 ~iters:120 ~nest:2 ~ltype:Doacross
      ~conds:false tfs2;
    entry ~name:"TFS-3" ~origin:"PERFECT" ~size:2 ~iters:49 ~nest:3 ~ltype:Doall
      ~conds:false tfs3;
    entry ~name:"WSS-1" ~origin:"PERFECT" ~size:1 ~iters:96 ~nest:2 ~ltype:Doall
      ~conds:false wss1;
    entry ~name:"WSS-2" ~origin:"PERFECT" ~size:4 ~iters:39 ~nest:2 ~ltype:Doacross
      ~conds:false wss2;
    entry ~name:"doduc-1" ~origin:"SPEC" ~size:38 ~iters:13 ~nest:1 ~ltype:Serial
      ~conds:true doduc1;
    entry ~name:"matrix300-1" ~origin:"SPEC" ~size:1 ~iters:300 ~nest:1 ~ltype:Doall
      ~conds:false matrix300_1;
    entry ~name:"nasa7-1" ~origin:"SPEC" ~size:1 ~iters:256 ~nest:3 ~ltype:Doall
      ~conds:false nasa7_1;
    entry ~name:"nasa7-2" ~origin:"SPEC" ~size:3 ~iters:1000 ~nest:3 ~ltype:Doacross
      ~conds:false nasa7_2;
    entry ~name:"tomcatv-1" ~origin:"SPEC" ~size:21 ~iters:255 ~nest:2 ~ltype:Doall
      ~conds:false tomcatv1;
    entry ~name:"tomcatv-2" ~origin:"SPEC" ~size:8 ~iters:255 ~nest:2 ~ltype:Serial
      ~conds:true tomcatv2;
    entry ~name:"add" ~origin:"VECTOR" ~size:1 ~iters:1024 ~nest:1 ~ltype:Doall
      ~conds:false vadd;
    entry ~name:"dotprod" ~origin:"VECTOR" ~size:1 ~iters:1024 ~nest:1 ~ltype:Serial
      ~conds:false vdotprod;
    entry ~name:"maxval" ~origin:"VECTOR" ~size:3 ~iters:1024 ~nest:1 ~ltype:Serial
      ~conds:true vmaxval;
    entry ~name:"merge" ~origin:"VECTOR" ~size:4 ~iters:1024 ~nest:1 ~ltype:Doall
      ~conds:true vmerge;
    entry ~name:"sum" ~origin:"VECTOR" ~size:1 ~iters:1024 ~nest:1 ~ltype:Serial
      ~conds:false vsum;
  ]

(* Alternate names accepted by the command-line tools. *)
let aliases = [ ("vecadd", "add") ]

let find name =
  let name = Option.value ~default:name (List.assoc_opt name aliases) in
  List.find_opt (fun w -> w.name = name) all
