(* Tests for the paper's eight ILP transformations: loop unrolling,
   register renaming, accumulator / induction / search variable
   expansion, operation combining, strength reduction and tree height
   reduction — including the worked examples of Figures 1, 3, 5, 6 and
   7, whose cycle counts the paper states explicitly. *)

open Impact_ir
open Impact_core
open Helpers

let test name f = Alcotest.test_case name `Quick f

let cycles_per_iter ?unroll_factor level machine n ast =
  let m = measure ?unroll_factor level machine ast in
  float_of_int m.Compile.cycles /. float_of_int n

let check_range msg lo hi x =
  if x < lo || x > hi then Alcotest.failf "%s: %.2f not in [%.2f, %.2f]" msg x lo hi

let inner_loop (p : Prog.t) =
  match List.filter Block.is_innermost (Block.loops p.Prog.entry) with
  | l :: _ -> l
  | [] -> Alcotest.fail "no innermost loop"

(* A parameterized accumulation kernel used by several tests. *)
let param_sum lo hi =
  let open Ast_build in
  {
    decls = [ scalar "j" TInt; scalar "s" TReal; array1 "A" TReal (hi + 2) (pseudo 11) ];
    stmts =
      [
        assign "s" (r 0.0);
        do_ "j" (i lo) (i hi) [ assign "s" (v "s" +: idx "A" [ v "j" ]) ];
      ];
    outs = [ "s" ];
  }

let unroll_tests =
  [
    test "figure 1: 7.0 / 6.33 / 2.67 cycles per iteration" (fun () ->
      let n = 768 in
      let ast = vecadd_ast n in
      let conv = cycles_per_iter Level.Conv Machine.unlimited n ast in
      let lev1 = cycles_per_iter ~unroll_factor:3 Level.Lev1 Machine.unlimited n ast in
      let lev2 = cycles_per_iter ~unroll_factor:3 Level.Lev2 Machine.unlimited n ast in
      check_range "Conv" 6.9 7.1 conv;
      check_range "Lev1" 6.2 6.5 lev1;
      check_range "Lev2" 2.6 2.8 lev2);
    test "unrolled body contains N copies" (fun () ->
      let p = Level.apply ~unroll_factor:4 Level.Lev1 (lower (vecadd_ast 64)) in
      let l = inner_loop p in
      check_int "unroll factor recorded" 4 l.Block.meta.Block.unrolled;
      (* 4 loads of A in the main body *)
      let loads_a =
        List.filter
          (fun (i : Insn.t) ->
            Insn.is_load i && Operand.equal i.Insn.srcs.(0) (Operand.Lab "A"))
          (Block.body_insns l)
      in
      check_int "four A loads" 4 (List.length loads_a));
    test "intermediate back-branches removed" (fun () ->
      let p = Level.apply ~unroll_factor:4 Level.Lev1 (lower (vecadd_ast 64)) in
      let l = inner_loop p in
      let backs =
        List.filter (fun (i : Insn.t) -> i.Insn.target = Some l.Block.head)
          (Block.body_insns l)
      in
      check_int "single back-branch" 1 (List.length backs));
    test "exact-multiple trip count needs no preconditioning loop" (fun () ->
      let p = Level.apply ~unroll_factor:4 Level.Lev1 (lower (param_sum 1 64)) in
      check_int "one loop" 1 (List.length (Block.loops p.Prog.entry)));
    test "remainder trip count adds a preconditioning loop" (fun () ->
      let p = Level.apply ~unroll_factor:4 Level.Lev1 (lower (param_sum 1 66)) in
      check_int "two loops" 2 (List.length (Block.loops p.Prog.entry)));
    test "semantics across trip counts and factors" (fun () ->
      List.iter
        (fun n ->
          List.iter
            (fun factor ->
              let base = run (lower (param_sum 1 n)) in
              let m = measure ~unroll_factor:factor Level.Lev1 Machine.issue_4 (param_sum 1 n) in
              same_observables
                (Printf.sprintf "sum n=%d factor=%d" n factor)
                base m.Compile.result)
            [ 2; 3; 5; 8 ])
        [ 1; 2; 3; 7; 8; 9; 16; 23 ]);
    test "runtime trip count unrolls with div/rem preconditioning" (fun () ->
      let open Ast_build in
      let ast =
        {
          decls =
            [ scalar "j" TInt; scalar "n" TInt; scalar "s" TReal;
              array1 "A" TReal 40 (pseudo 12) ];
          stmts =
            [
              assign "n" (ECvt (TInt, idx "A" [ i 1 ] *: r 0.0) +: i 37);
              assign "s" (r 0.0);
              do_ "j" (i 1) (v "n") [ assign "s" (v "s" +: idx "A" [ v "j" ]) ];
            ];
          outs = [ "s" ];
        }
      in
      let base = run (lower ast) in
      let p = Level.apply ~unroll_factor:8 Level.Lev2 (lower ast) in
      check_bool "has a rem instruction" true
        (List.exists (fun (i : Insn.t) -> i.Insn.op = Insn.IBin Insn.Rem)
           (Block.insns p.Prog.entry));
      same_observables "runtime trip" base (run p));
    test "oversized bodies are not unrolled" (fun () ->
      let w = Option.get (Impact_workloads.Suite.find "NAS-5") in
      let p = Level.apply Level.Lev1 (lower w.Impact_workloads.Suite.ast) in
      let inner =
        List.filter Block.is_innermost (Block.loops p.Prog.entry)
      in
      List.iter
        (fun (l : Block.loop) -> check_int "not unrolled" 1 l.Block.meta.Block.unrolled)
        inner);
  ]

let rename_tests =
  [
    test "multiply-defined registers get fresh names, last def keeps" (fun () ->
      let b = irb () in
      let v = reg b Reg.Int and u = reg b Reg.Int in
      let ctx = b.ctx in
      let body =
        [
          Block.Ins (Build.ib ctx Insn.Add v (Operand.Reg v) (Operand.Int 4));
          Block.Ins (Build.ib ctx Insn.Add u (Operand.Reg v) (Operand.Int 1));
          Block.Ins (Build.ib ctx Insn.Add v (Operand.Reg v) (Operand.Int 4));
          Block.Ins (Build.br ctx Reg.Int Insn.Le (Operand.Reg v) (Operand.Int 99) "L");
        ]
      in
      let l = { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta; body } in
      output b "x" u;
      let p =
        prog_of b [ Block.Ins (Build.imov ctx v (Operand.Int 0)); Block.Loop l ]
      in
      let p' = Rename.run p in
      let l' = inner_loop p' in
      let insns = Block.body_insns l' in
      let first_def = List.nth insns 0 in
      let second_use = List.nth insns 1 in
      let last_def = List.nth insns 2 in
      (match first_def.Insn.dst with
      | Some d -> check_bool "first def renamed" false (Reg.equal d v)
      | None -> Alcotest.fail "no dst");
      (match last_def.Insn.dst with
      | Some d -> check_bool "last def keeps name" true (Reg.equal d v)
      | None -> Alcotest.fail "no dst");
      (* The intermediate use reads the renamed def. *)
      (match first_def.Insn.dst, Operand.as_reg second_use.Insn.srcs.(0) with
      | Some d, Some s -> check_bool "use rewritten" true (Reg.equal d s)
      | _ -> Alcotest.fail "shape");
      same_observables "rename semantics" (run p) (run p'));
    test "conditionally defined registers are left alone" (fun () ->
      let p0 = lower (maxval_ast 16) in
      let p0 = Impact_opt.Conv.run p0 in
      let l_before = inner_loop p0 in
      let defs_before =
        List.concat_map Insn.defs (Block.body_insns l_before)
        |> List.filter (fun (r : Reg.t) -> r.Reg.cls = Reg.Float)
      in
      let p' = Rename.run p0 in
      let l_after = inner_loop p' in
      let defs_after =
        List.concat_map Insn.defs (Block.body_insns l_after)
        |> List.filter (fun (r : Reg.t) -> r.Reg.cls = Reg.Float)
      in
      check_bool "float defs unchanged" true
        (List.for_all2 Reg.equal defs_before defs_after));
    test "renaming after unrolling preserves all kernels" (fun () ->
      List.iter
        (fun ast -> check_levels_preserve ~unroll_factor:4 "rename" ast)
        [ vecadd_ast 37 ]);
  ]

let accum_tests =
  [
    test "figure 3 shape: accumulator chain broken at Lev4" (fun () ->
      let n = 512 in
      let ast = dotprod_ast n in
      let lev2 = cycles_per_iter Level.Lev2 Machine.unlimited n ast in
      let lev4 = cycles_per_iter Level.Lev4 Machine.unlimited n ast in
      (* Lev2 is bound by the 3-cycle fadd chain; Lev4 runs k chains in
         parallel. *)
      check_bool "at least 2x better" true (lev4 *. 2.0 <= lev2));
    test "temporaries are summed at exit" (fun () ->
      let p = Level.apply ~unroll_factor:4 Level.Lev4 (lower (param_sum 1 64)) in
      let base = run (lower (param_sum 1 64)) in
      same_observables ~tol:1e-9 "accum" base (run p));
    test "subtraction accumulators expand too" (fun () ->
      let open Ast_build in
      let ast =
        {
          decls = [ scalar "j" TInt; scalar "s" TReal ~init:100.0; array1 "A" TReal 34 (pseudo 13) ];
          stmts = [ do_ "j" (i 1) (i 32) [ assign "s" (v "s" -: idx "A" [ v "j" ]) ] ];
          outs = [ "s" ];
        }
      in
      let base = run (lower ast) in
      let m = measure Level.Lev4 Machine.issue_8 ast in
      same_observables "sub accum" base m.Compile.result);
    test "conditionally accumulated sums expand" (fun () ->
      let open Ast_build in
      let ast =
        {
          decls = [ scalar "j" TInt; scalar "s" TReal; array1 "A" TReal 66 (pseudo 14) ];
          stmts =
            [
              assign "s" (r 0.0);
              do_ "j" (i 1) (i 64)
                [
                  if_ CGt (idx "A" [ v "j" ]) (r 1.0)
                    [ assign "s" (v "s" +: idx "A" [ v "j" ]) ]
                    [];
                ];
            ];
          outs = [ "s" ];
        }
      in
      let base = run (lower ast) in
      let m = measure Level.Lev4 Machine.issue_8 ast in
      same_observables "cond accum" base m.Compile.result);
    test "a multiplicative recurrence is not an accumulator" (fun () ->
      (* s = s*c + x must not be touched (only inc/dec qualifies). *)
      let open Ast_build in
      let ast =
        {
          decls = [ scalar "j" TInt; scalar "s" TReal ~init:0.5; array1 "A" TReal 34 (pseudo 15) ];
          stmts =
            [
              do_ "j" (i 1) (i 32)
                [ assign "s" ((v "s" *: r 0.5) +: idx "A" [ v "j" ]) ];
            ];
          outs = [ "s" ];
        }
      in
      let base = run (lower ast) in
      let m = measure Level.Lev4 Machine.issue_8 ast in
      (* Exact equality: the recurrence order must be untouched. *)
      let a = out_flt base "s" and b = out_flt m.Compile.result "s" in
      check_bool "bitwise equal" true (a = b));
  ]

let ind_tests =
  [
    test "figure 5 shape: induction chains broken at Lev4" (fun () ->
      let open Ast_build in
      let n = 512 in
      let ast =
        {
          decls =
            [
              scalar "i_" TInt; scalar "j" TInt;
              array1 "A" TReal (3 * n + 4) (pseudo 16);
              array1 "B" TReal (3 * n + 4) (pseudo 17);
              array1 "C" TReal (3 * n + 4) (fun _ -> 0.0);
            ];
          stmts =
            [
              assign "j" (i 1);
              do_ "i_" (i 1) (i n)
                [
                  astore "C" [ v "j" ] (idx "A" [ v "j" ] *: idx "B" [ v "j" ]);
                  assign "j" (v "j" +: i 3);
                ];
            ];
          outs = [ "j" ];
        }
      in
      let base = run (lower ast) in
      let m = measure ~unroll_factor:8 Level.Lev4 Machine.issue_8 ast in
      same_observables "fig5 semantics" base m.Compile.result;
      let lev1 = cycles_per_iter ~unroll_factor:8 Level.Lev1 Machine.issue_8 n ast in
      let lev4 = cycles_per_iter ~unroll_factor:8 Level.Lev4 Machine.issue_8 n ast in
      check_bool "improved" true (lev4 < lev1));
    test "increments move to the loop end" (fun () ->
      let b = irb () in
      float_array b "A" (Array.init 40 (fun k -> float_of_int k));
      let w = reg b Reg.Int and f = reg b Reg.Float and s = reg b Reg.Float in
      let ctx = b.ctx in
      output b "s" s;
      (* Two increments of w in the body (as if unrolled twice). *)
      let body =
        [
          Block.Ins (Build.load ctx Reg.Float f (Operand.Lab "A") (Operand.Reg w));
          Block.Ins (Build.fb ctx Insn.Fadd s (Operand.Reg s) (Operand.Reg f));
          Block.Ins (Build.ib ctx Insn.Add w (Operand.Reg w) (Operand.Int 4));
          Block.Ins (Build.load ctx Reg.Float f (Operand.Lab "A") (Operand.Reg w));
          Block.Ins (Build.fb ctx Insn.Fadd s (Operand.Reg s) (Operand.Reg f));
          Block.Ins (Build.ib ctx Insn.Add w (Operand.Reg w) (Operand.Int 4));
          Block.Ins (Build.br ctx Reg.Int Insn.Lt (Operand.Reg w) (Operand.Int 128) "L");
        ]
      in
      let p =
        prog_of b
          [
            Block.Ins (Build.fmov ctx s (Operand.Flt 0.0));
            Block.Ins (Build.imov ctx w (Operand.Int 0));
            Block.Loop { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta; body };
          ]
      in
      let base = run p in
      let p' = Expand.induction p in
      let l = inner_loop p' in
      let insns = Block.body_insns l in
      (* Original increments of w removed; temporary bumps precede the
         back-branch. *)
      check_bool "no def of w in body" true
        (List.for_all
           (fun (i : Insn.t) -> not (List.exists (Reg.equal w) (Insn.defs i)))
           insns);
      let back = List.nth insns (List.length insns - 1) in
      check_bool "last is the back-branch" true (Insn.is_branch back);
      same_observables "ind semantics" base (run p'));
    test "mixed-step updates are not expanded" (fun () ->
      let b = irb () in
      let w = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" w;
      let body =
        [
          Block.Ins (Build.ib ctx Insn.Add w (Operand.Reg w) (Operand.Int 4));
          Block.Ins (Build.ib ctx Insn.Add w (Operand.Reg w) (Operand.Int 8));
          Block.Ins (Build.br ctx Reg.Int Insn.Lt (Operand.Reg w) (Operand.Int 96) "L");
        ]
      in
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx w (Operand.Int 0));
            Block.Loop { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta; body };
          ]
      in
      let p' = Expand.induction p in
      same_observables "unchanged semantics" (run p) (run p');
      let l = inner_loop p' in
      check_int "body unchanged" 3 (List.length (Block.body_insns l)));
  ]

let search_tests =
  [
    test "search variable expansion preserves the maximum" (fun () ->
      let base = run (lower (maxval_ast 97)) in
      let m = measure Level.Lev4 Machine.issue_8 (maxval_ast 97) in
      same_observables "max" base m.Compile.result);
    test "minimum searches expand as well" (fun () ->
      let open Ast_build in
      let ast =
        {
          decls = [ scalar "j" TInt; scalar "mn" TReal ~init:1e30; array1 "A" TReal 99 (pseudo 18) ];
          stmts =
            [
              do_ "j" (i 1) (i 97)
                [ if_ CLt (idx "A" [ v "j" ]) (v "mn") [ assign "mn" (idx "A" [ v "j" ]) ] [] ];
            ];
          outs = [ "mn" ];
        }
      in
      let base = run (lower ast) in
      let m = measure Level.Lev4 Machine.issue_8 ast in
      same_observables "min" base m.Compile.result);
    test "temporaries appear per unrolled copy" (fun () ->
      let p = Level.apply ~unroll_factor:4 Level.Lev4 (lower (maxval_ast 64)) in
      (* After expansion there are >= 4 float-compare branches against
         distinct registers in the body. *)
      let l = inner_loop p in
      let guards =
        List.filter_map
          (fun (i : Insn.t) ->
            match i.Insn.op with
            | Insn.Br (Reg.Float, _) -> Operand.as_reg i.Insn.srcs.(1)
            | _ -> None)
          (Block.body_insns l)
      in
      let distinct = List.sort_uniq Reg.compare guards in
      check_bool "at least 4 distinct search registers" true (List.length distinct >= 4));
    test "index-of-max style updates are not expanded" (fun () ->
      (* The guarded move writes a DIFFERENT value than the compared one:
         the transformation must not fire (combining the temporaries by
         comparison would be wrong). *)
      let open Ast_build in
      let ast =
        {
          decls =
            [
              scalar "j" TInt; scalar "best" TReal ~init:(-1e30); scalar "arg" TReal;
              array1 "A" TReal 34 (pseudo 19); array1 "B" TReal 34 (pseudo 20);
            ];
          stmts =
            [
              do_ "j" (i 1) (i 32)
                [
                  if_ CGt (idx "A" [ v "j" ]) (v "best")
                    [
                      assign "best" (idx "A" [ v "j" ]);
                      assign "arg" (idx "B" [ v "j" ]);
                    ]
                    [];
                ];
            ];
          outs = [ "best"; "arg" ];
        }
      in
      let base = run (lower ast) in
      let m = measure Level.Lev4 Machine.issue_8 ast in
      same_observables "argmax" base m.Compile.result);
  ]

let combine_tests =
  [
    test "address increments fold into displacements" (fun () ->
      let p = Level.apply ~unroll_factor:4 Level.Lev3 (lower (vecadd_ast 64)) in
      let l = inner_loop p in
      let disps =
        List.filter_map
          (fun (i : Insn.t) ->
            match Insn.mem_addr i with Some (_, _, d) -> Some d | None -> None)
          (Block.body_insns l)
      in
      check_bool "nonzero displacements appear" true (List.exists (fun d -> d > 0) disps));
    test "figure 6: guarded continue loop improves with combining" (fun () ->
      let open Ast_build in
      let n = 256 in
      let ast =
        {
          decls =
            [ scalar "i_" TInt; scalar "cnt" TInt; array1 "A" TReal (n + 4) (pseudo 21) ];
          stmts =
            [
              assign "cnt" (i 0);
              do_ "i_" (i 1) (i n)
                [
                  if_ CLt (idx "A" [ v "i_" +: i 2 ] -: r 3.2) (r 10.0) [ SCycle ] [];
                  assign "cnt" (v "cnt" +: i 1);
                ];
            ];
          outs = [ "cnt" ];
        }
      in
      let base = run (lower ast) in
      let m2 = measure Level.Lev2 Machine.unlimited ast in
      let m3 = measure Level.Lev3 Machine.unlimited ast in
      same_observables "fig6 semantics" base m3.Compile.result;
      check_bool "combining helps" true (m3.Compile.cycles < m2.Compile.cycles));
    test "float subtraction feeds the branch constant (13.2 pattern)" (fun () ->
      let b = irb () in
      float_array b "A" [| 20.0 |];
      let f1 = reg b Reg.Float and f2 = reg b Reg.Float and r1 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r1;
      let body =
        [
          Block.Ins (Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0));
          Block.Ins (Build.fb ctx Insn.Fsub f2 (Operand.Reg f1) (Operand.Flt 3.2));
          Block.Ins (Build.br ctx Reg.Float Insn.Lt (Operand.Reg f2) (Operand.Flt 10.0) "X");
          Block.Ins (Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1));
          Block.Ins (Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 0));
          Block.Ins (Build.br ctx Reg.Int Insn.Lt (Operand.Reg r1) (Operand.Int 1) "L");
        ]
      in
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r1 (Operand.Int 0));
            Block.Loop { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta; body };
          ]
      in
      let p' = Combine.run p in
      let l = inner_loop p' in
      let combined =
        List.exists
          (fun (i : Insn.t) ->
            match i.Insn.op, i.Insn.srcs with
            | Insn.Br (Reg.Float, Insn.Lt), [| Operand.Reg r; Operand.Flt c |] ->
              Reg.equal r f1 && abs_float (c -. 13.2) < 1e-9
            | _ -> false)
          (Block.body_insns l)
      in
      check_bool "branch constant adjusted to 13.2" true combined;
      same_observables "semantics" (run p) (run p'));
    test "integer multiply chains combine" (fun () ->
      let b = irb () in
      let r0 = reg b Reg.Int and r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r2;
      let body =
        [
          Block.Ins (Build.ib ctx Insn.Mul r1 (Operand.Reg r0) (Operand.Int 3));
          Block.Ins (Build.ib ctx Insn.Mul r2 (Operand.Reg r1) (Operand.Int 5));
          Block.Ins (Build.ib ctx Insn.Add r0 (Operand.Reg r0) (Operand.Int 1));
          Block.Ins (Build.br ctx Reg.Int Insn.Lt (Operand.Reg r0) (Operand.Int 4) "L");
        ]
      in
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r0 (Operand.Int 1));
            Block.Loop { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta; body };
          ]
      in
      let p' = Combine.run p in
      let l = inner_loop p' in
      let mul15 =
        List.exists
          (fun (i : Insn.t) ->
            match i.Insn.op, i.Insn.srcs with
            | Insn.IBin Insn.Mul, [| _; Operand.Int 15 |] -> true
            | _ -> false)
          (Block.body_insns l)
      in
      check_bool "x*3*5 -> x*15" true mul15;
      same_observables "semantics" (run p) (run p'));
    test "adjacent self-increment exchanges with its consumer" (fun () ->
      let b = irb () in
      float_array b "A" (Array.init 40 (fun k -> float_of_int k));
      let w = reg b Reg.Int and f = reg b Reg.Float and s = reg b Reg.Float in
      let ctx = b.ctx in
      output b "s" s;
      let body =
        [
          Block.Ins (Build.ib ctx Insn.Add w (Operand.Reg w) (Operand.Int 4));
          Block.Ins (Build.load ctx Reg.Float f ~disp:8 (Operand.Lab "A") (Operand.Reg w));
          Block.Ins (Build.fb ctx Insn.Fadd s (Operand.Reg s) (Operand.Reg f));
          Block.Ins (Build.br ctx Reg.Int Insn.Lt (Operand.Reg w) (Operand.Int 64) "L");
        ]
      in
      let p =
        prog_of b
          [
            Block.Ins (Build.fmov ctx s (Operand.Flt 0.0));
            Block.Ins (Build.imov ctx w (Operand.Int 0));
            Block.Loop { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta; body };
          ]
      in
      let p' = Combine.run p in
      let l = inner_loop p' in
      let insns = Block.body_insns l in
      (* The load now precedes the increment with displacement 12. *)
      (match insns with
      | ld :: inc :: _ ->
        check_bool "load first" true (Insn.is_load ld);
        (match Insn.mem_addr ld with
        | Some (_, _, 12) -> ()
        | _ -> Alcotest.fail "displacement should be 12");
        check_bool "increment second" true
          (match inc.Insn.op with Insn.IBin Insn.Add -> true | _ -> false)
      | _ -> Alcotest.fail "shape");
      same_observables "semantics" (run p) (run p'));
  ]

let strength_tests =
  [
    test "multiply by 10 becomes two shifts and an add" (fun () ->
      let b = irb () in
      let r0 = reg b Reg.Int and r1 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r1;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r0 (Operand.Int 7));
            Block.Ins (Build.ib ctx Insn.Mul r1 (Operand.Reg r0) (Operand.Int 10));
          ]
      in
      let p' = Strength.run p in
      check_int "two shifts" 2
        (List.length
           (List.filter
              (fun (i : Insn.t) -> i.Insn.op = Insn.IBin Insn.Shl)
              (Block.insns p'.Prog.entry)));
      check_int "no multiply" 0
        (List.length
           (List.filter
              (fun (i : Insn.t) -> i.Insn.op = Insn.IBin Insn.Mul)
              (Block.insns p'.Prog.entry)));
      check_int "value" 70 (out_int (run p') "x"));
    test "powers of two become single shifts" (fun () ->
      let b = irb () in
      let r0 = reg b Reg.Int and r1 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r1;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r0 (Operand.Int 5));
            Block.Ins (Build.ib ctx Insn.Mul r1 (Operand.Reg r0) (Operand.Int 16));
          ]
      in
      let p' = Strength.run p in
      check_int "one shift" 1
        (List.length
           (List.filter (fun (i : Insn.t) -> i.Insn.op = Insn.IBin Insn.Shl)
              (Block.insns p'.Prog.entry)));
      check_int "value" 80 (out_int (run p') "x"));
    test "2^k - 1 becomes shift and subtract" (fun () ->
      let b = irb () in
      let r0 = reg b Reg.Int and r1 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r1;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r0 (Operand.Int 9));
            Block.Ins (Build.ib ctx Insn.Mul r1 (Operand.Reg r0) (Operand.Int 31));
          ]
      in
      let p' = Strength.run p in
      check_int "no multiply" 0
        (List.length
           (List.filter (fun (i : Insn.t) -> i.Insn.op = Insn.IBin Insn.Mul)
              (Block.insns p'.Prog.entry)));
      check_int "value" 279 (out_int (run p') "x"));
    test "unprofitable constants are left as multiplies" (fun () ->
      let b = irb () in
      let r0 = reg b Reg.Int and r1 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "x" r1;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r0 (Operand.Int 3));
            (* 11 = 1011b: three set bits, not 2^k +/- 1 *)
            Block.Ins (Build.ib ctx Insn.Mul r1 (Operand.Reg r0) (Operand.Int 11));
          ]
      in
      let p' = Strength.run p in
      check_int "multiply kept" 1
        (List.length
           (List.filter (fun (i : Insn.t) -> i.Insn.op = Insn.IBin Insn.Mul)
              (Block.insns p'.Prog.entry)));
      check_int "value" 33 (out_int (run p') "x"));
    test "nonneg division by power of two becomes a shift" (fun () ->
      let b = irb () in
      int_array b "S" [| 117 |];
      let r0 = reg b Reg.Int and r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "q" r1;
      output b "m" r2;
      let p =
        prog_of b
          [
            (* r0 = |load| via and: provably nonneg *)
            Block.Ins (Build.load ctx Reg.Int r0 (Operand.Lab "S") (Operand.Int 0));
            Block.Ins (Build.ib ctx Insn.And r0 (Operand.Reg r0) (Operand.Int 0xFFFF));
            Block.Ins (Build.ib ctx Insn.Div r1 (Operand.Reg r0) (Operand.Int 8));
            Block.Ins (Build.ib ctx Insn.Rem r2 (Operand.Reg r0) (Operand.Int 8));
          ]
      in
      (* r0 is multiply-defined (load then and): the chain walk must
         reject it, so the div/rem survive unchanged. *)
      let p' = Strength.run p in
      check_int "div kept (multi-def dividend)" 1
        (List.length
           (List.filter (fun (i : Insn.t) -> i.Insn.op = Insn.IBin Insn.Div)
              (Block.insns p'.Prog.entry)));
      let r = run p' in
      check_int "q" (117 / 8) (out_int r "q");
      check_int "m" (117 mod 8) (out_int r "m"));
    test "single-def nonneg dividend reduces div and rem" (fun () ->
      let b = irb () in
      int_array b "S" [| 117 |];
      let r0 = reg b Reg.Int and m = reg b Reg.Int in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "q" r1;
      output b "m" r2;
      let p =
        prog_of b
          [
            Block.Ins (Build.load ctx Reg.Int r0 (Operand.Lab "S") (Operand.Int 0));
            Block.Ins (Build.ib ctx Insn.And m (Operand.Reg r0) (Operand.Int 0xFFFF));
            Block.Ins (Build.ib ctx Insn.Div r1 (Operand.Reg m) (Operand.Int 8));
            Block.Ins (Build.ib ctx Insn.Rem r2 (Operand.Reg m) (Operand.Int 8));
          ]
      in
      let p' = Strength.run p in
      check_int "no div/rem left" 0
        (List.length
           (List.filter
              (fun (i : Insn.t) ->
                i.Insn.op = Insn.IBin Insn.Div || i.Insn.op = Insn.IBin Insn.Rem)
              (Block.insns p'.Prog.entry)));
      let r = run p' in
      check_int "q" (117 / 8) (out_int r "q");
      check_int "m" (117 mod 8) (out_int r "m"));
    test "possibly-negative dividends keep the divide" (fun () ->
      let b = irb () in
      int_array b "S" [| -117 |];
      let r0 = reg b Reg.Int and r1 = reg b Reg.Int in
      let ctx = b.ctx in
      output b "q" r1;
      let p =
        prog_of b
          [
            Block.Ins (Build.load ctx Reg.Int r0 (Operand.Lab "S") (Operand.Int 0));
            Block.Ins (Build.ib ctx Insn.Div r1 (Operand.Reg r0) (Operand.Int 8));
          ]
      in
      let p' = Strength.run p in
      check_int "div kept" 1
        (List.length
           (List.filter (fun (i : Insn.t) -> i.Insn.op = Insn.IBin Insn.Div)
              (Block.insns p'.Prog.entry)));
      check_int "q" (-117 / 8) (out_int (run p') "q"));
    test "exhaustive equivalence for small constants" (fun () ->
      for c = -17 to 65 do
        let b = irb () in
        let r0 = reg b Reg.Int and r1 = reg b Reg.Int in
        let ctx = b.ctx in
        output b "x" r1;
        let p =
          prog_of b
            [
              Block.Ins (Build.imov ctx r0 (Operand.Int 123));
              Block.Ins (Build.ib ctx Insn.Mul r1 (Operand.Reg r0) (Operand.Int c));
            ]
        in
        let p' = Strength.run p in
        check_int (Printf.sprintf "x*%d" c) (123 * c) (out_int (run p') "x")
      done);
  ]

let thr_tests =
  [
    test "figure 7: divide overlaps the multiply tree" (fun () ->
      let b = irb () in
      float_array b "V" (Array.init 8 (fun k -> float_of_int (k + 2)));
      let ctx = b.ctx in
      let regs = Array.init 6 (fun _ -> reg b Reg.Float) in
      let loads =
        List.init 6 (fun k ->
          Block.Ins (Build.load ctx Reg.Float regs.(k) (Operand.Lab "V") (Operand.Int (4 * k))))
      in
      let t1 = reg b Reg.Float and t2 = reg b Reg.Float and t3 = reg b Reg.Float in
      let t4 = reg b Reg.Float and a = reg b Reg.Float in
      output b "a" a;
      (* a = ((((c+d)*b)*e)*f)/g *)
      let chain =
        [
          Block.Ins (Build.fb ctx Insn.Fadd t1 (Operand.Reg regs.(1)) (Operand.Reg regs.(2)));
          Block.Ins (Build.fb ctx Insn.Fmul t2 (Operand.Reg t1) (Operand.Reg regs.(0)));
          Block.Ins (Build.fb ctx Insn.Fmul t3 (Operand.Reg t2) (Operand.Reg regs.(3)));
          Block.Ins (Build.fb ctx Insn.Fmul t4 (Operand.Reg t3) (Operand.Reg regs.(4)));
          Block.Ins (Build.fb ctx Insn.Fdiv a (Operand.Reg t4) (Operand.Reg regs.(5)));
        ]
      in
      let p = prog_of b (loads @ chain) in
      let before = run ~machine:Machine.unlimited p in
      let p' = Impact_opt.Conv.cleanup (Tree_height.run p) in
      let after = run ~machine:Machine.unlimited p' in
      (* Paper: 22 -> 13 cycles for the expression; with the 2-cycle loads
         in front, 24 -> 15 total. *)
      check_int "before" 24 before.Impact_sim.Sim.cycles;
      check_int "after" 15 after.Impact_sim.Sim.cycles;
      check_close "same value" (out_flt before "a") (out_flt after "a"));
    test "integer chains are exact" (fun () ->
      let b = irb () in
      int_array b "V" (Array.init 8 (fun k -> (k * 17) - 31));
      let ctx = b.ctx in
      let regs = Array.init 6 (fun _ -> reg b Reg.Int) in
      let loads =
        List.init 6 (fun k ->
          Block.Ins (Build.load ctx Reg.Int regs.(k) (Operand.Lab "V") (Operand.Int (4 * k))))
      in
      let acc = ref (Operand.Reg regs.(0)) in
      let chain = ref [] in
      for k = 1 to 5 do
        let d = reg b Reg.Int in
        let op = if k mod 2 = 0 then Insn.Sub else Insn.Add in
        chain := Block.Ins (Build.ib ctx op d !acc (Operand.Reg regs.(k))) :: !chain;
        acc := Operand.Reg d
      done;
      let final = match !acc with Operand.Reg r -> r | _ -> assert false in
      output b "x" final;
      let p = prog_of b (loads @ List.rev !chain) in
      let before = run p in
      let p' = Impact_opt.Conv.cleanup (Tree_height.run p) in
      let after = run p' in
      check_int "identical value" (out_int before "x") (out_int after "x");
      check_bool "faster or equal" true
        (after.Impact_sim.Sim.cycles <= before.Impact_sim.Sim.cycles));
    test "short chains are left alone" (fun () ->
      let b = irb () in
      let x = reg b Reg.Float and y = reg b Reg.Float and z = reg b Reg.Float in
      let ctx = b.ctx in
      output b "z" z;
      let p =
        prog_of b
          [
            Block.Ins (Build.fmov ctx x (Operand.Flt 2.0));
            Block.Ins (Build.fb ctx Insn.Fadd y (Operand.Reg x) (Operand.Flt 1.0));
            Block.Ins (Build.fb ctx Insn.Fadd z (Operand.Reg y) (Operand.Flt 1.0));
          ]
      in
      let p' = Tree_height.run p in
      check_int "unchanged" (Helpers.insn_count p) (Helpers.insn_count p'));
  ]

let level_tests =
  [
    test "levels are cumulative by rank" (fun () ->
      (* The passes a level runs, read off the pass telemetry counters. *)
      let module Obs = Impact_obs.Obs in
      let passes level =
        let c0 = Obs.collecting () in
        Obs.set_collecting true;
        Fun.protect ~finally:(fun () -> Obs.set_collecting c0) @@ fun () ->
        Obs.reset ();
        ignore (Level.apply level (lower (dotprod_ast 16)));
        List.filter_map
          (fun (k, _) ->
            if String.ends_with ~suffix:".runs" k then Some k else None)
          (Obs.report ()).Obs.r_counters
      in
      let runs = List.map passes Level.all in
      List.iteri
        (fun k (lower, upper) ->
          check_bool (Printf.sprintf "rank %d runs every pass of rank %d" (k + 1) k) true
            (List.for_all (fun p -> List.mem p upper) lower && upper <> lower))
        (List.combine (List.filteri (fun k _ -> k < 4) runs) (List.tl runs));
      check_bool "conv does not unroll" false
        (List.mem "pass.unroll.runs" (List.hd runs));
      check_int "five levels" 5 (List.length Level.all));
    test "of_string / to_string round-trip" (fun () ->
      List.iter
        (fun l ->
          check_bool "round trip" true (Level.of_string (Level.to_string l) = Some l))
        Level.all);
    test "all levels preserve all helper kernels (issue 1..8)" (fun () ->
      List.iter
        (fun ast -> check_levels_preserve "levels" ast)
        [ vecadd_ast 33; dotprod_ast 41; maxval_ast 29; recurrence_ast 21 ]);
  ]

let suite =
  [
    ("trans.unroll", unroll_tests);
    ("trans.rename", rename_tests);
    ("trans.accum", accum_tests);
    ("trans.induction", ind_tests);
    ("trans.search", search_tests);
    ("trans.combine", combine_tests);
    ("trans.strength", strength_tests);
    ("trans.treeheight", thr_tests);
    ("trans.level", level_tests);
  ]
