(* Tests for the measurement register allocator. *)

open Impact_ir
open Impact_regalloc
open Helpers

let test name f = Alcotest.test_case name `Quick f

(* k simultaneously live values need k registers. *)
let ladder k =
  let b = irb () in
  let ctx = b.ctx in
  let regs = List.init k (fun _ -> reg b Reg.Int) in
  let defs =
    List.mapi (fun j r -> Block.Ins (Build.imov ctx r (Operand.Int j))) regs
  in
  let sum = reg b Reg.Int in
  let init = Block.Ins (Build.imov ctx sum (Operand.Int 0)) in
  let uses =
    List.map
      (fun r -> Block.Ins (Build.ib ctx Insn.Add sum (Operand.Reg sum) (Operand.Reg r)))
      regs
  in
  output b "x" sum;
  (prog_of b ((init :: defs) @ uses), k)

let tests =
  [
    test "k overlapping live ranges need k colors" (fun () ->
      List.iter
        (fun k ->
          let p, _ = ladder k in
          let u = Regalloc.measure p in
          (* k ladder registers + the accumulator *)
          check_int (Printf.sprintf "ladder %d" k) (k + 1) u.Regalloc.int_used)
        [ 1; 2; 5; 9 ]);
    test "sequential disjoint ranges reuse one register" (fun () ->
      let b = irb () in
      let ctx = b.ctx in
      float_array b "A" [| 0.0; 0.0; 0.0 |];
      let items =
        List.concat
          (List.init 3 (fun k ->
             let r = reg b Reg.Float in
             [
               Block.Ins (Build.fmov ctx r (Operand.Flt (float_of_int k)));
               Block.Ins
                 (Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int (4 * k))
                    (Operand.Reg r));
             ]))
      in
      let p = prog_of b items in
      let u = Regalloc.measure p in
      check_int "one float register" 1 u.Regalloc.float_used);
    test "classes are counted separately" (fun () ->
      let b = irb () in
      let ctx = b.ctx in
      let r1 = reg b Reg.Int and f1 = reg b Reg.Float in
      output b "x" r1;
      output b "y" f1;
      let p =
        prog_of b
          [
            Block.Ins (Build.imov ctx r1 (Operand.Int 1));
            Block.Ins (Build.fmov ctx f1 (Operand.Flt 1.0));
          ]
      in
      let u = Regalloc.measure p in
      check_int "int" 1 u.Regalloc.int_used;
      check_int "float" 1 u.Regalloc.float_used;
      check_int "total" 2 (Regalloc.total u));
    test "coloring is proper on compiled loops" (fun () ->
      List.iter
        (fun ast ->
          let p =
            Impact_core.Compile.compile_with Impact_core.Opts.default Impact_core.Level.Lev4 Machine.issue_8 (lower ast)
          in
          let assignment, graph = Regalloc_ref.coloring p in
          let color_of r = List.assoc r assignment in
          Hashtbl.iter
            (fun r nbrs ->
              Reg.Set.iter
                (fun x ->
                  if r.Reg.cls = x.Reg.cls && color_of r = color_of x then
                    Alcotest.failf "interfering registers %s and %s share color"
                      (Reg.to_string r) (Reg.to_string x))
                nbrs)
            graph)
        [ dotprod_ast 32; maxval_ast 32; vecadd_ast 32 ]);
    test "unrolling and renaming increase register pressure" (fun () ->
      let conv = measure Impact_core.Level.Conv Machine.issue_8 (dotprod_ast 64) in
      let lev4 = measure Impact_core.Level.Lev4 Machine.issue_8 (dotprod_ast 64) in
      check_bool "more registers at Lev4" true
        (Regalloc.total lev4.Impact_core.Compile.usage
        > Regalloc.total conv.Impact_core.Compile.usage));
    test "use of a never-defined register is tolerated" (fun () ->
      (* Regression: a register that is read but never written used to
         be able to trip unguarded [Hashtbl.find]s in the allocator. *)
      let b = irb () in
      let ctx = b.ctx in
      let ghost = reg b Reg.Int in
      let x = reg b Reg.Int in
      output b "x" x;
      let p =
        prog_of b
          [ Block.Ins (Build.ib ctx Insn.Add x (Operand.Reg ghost) (Operand.Int 1)) ]
      in
      let fast = Regalloc.measure p in
      let slow = Regalloc_ref.color_ref p in
      check_int "fast int" fast.Regalloc.int_used slow.Regalloc.int_used;
      check_int "fast float" fast.Regalloc.float_used slow.Regalloc.float_used;
      (* The ghost dies at its only use, so it can share the single
         color with the destination. *)
      check_int "one int color" 1 fast.Regalloc.int_used);
    test "fast path agrees with color_ref on the kernel corpus" (fun () ->
      List.iter
        (fun (k : Impact_workloads.Suite.t) ->
          let p =
            Impact_core.Compile.compile_with Impact_core.Opts.default Impact_core.Level.Lev4 Machine.issue_8
              (lower k.ast)
          in
          let fast = Regalloc.measure p in
          let slow = Regalloc_ref.color_ref p in
          if fast <> slow then
            Alcotest.failf "%s: fast (%d,%d) <> ref (%d,%d)" k.name
              fast.Regalloc.int_used fast.Regalloc.float_used
              slow.Regalloc.int_used slow.Regalloc.float_used;
          (* The two implementations share ordering semantics, so even
             the per-register assignment must match. *)
          let by_reg l =
            List.sort (fun ((a : Reg.t), _) (b, _) -> compare (a.Reg.cls, a.Reg.id) (b.Reg.cls, b.Reg.id)) l
          in
          let ref_assign, _ = Regalloc_ref.coloring p in
          if by_reg (Regalloc.coloring_fast p) <> by_reg ref_assign then
            Alcotest.failf "%s: assignments differ" k.name)
        Impact_workloads.Suite.all);
  ]

(* Randomized differential and validity properties. *)

let prop_fast_matches_ref =
  QCheck.Test.make ~name:"regalloc fast path matches color_ref on random programs"
    ~count:120
    (QCheck.make T_props.gen_straightline)
    (fun spec ->
      let p = T_props.build_straightline spec in
      Regalloc.measure p = Regalloc_ref.color_ref p)

let prop_coloring_proper =
  QCheck.Test.make ~name:"fast coloring never shares a color across an edge"
    ~count:120
    (QCheck.make T_props.gen_straightline)
    (fun spec ->
      let p = T_props.build_straightline spec in
      let assignment = Regalloc.coloring_fast p in
      let color_of r = List.assoc r assignment in
      let graph = Regalloc_ref.interference p in
      let ok = ref true in
      Hashtbl.iter
        (fun (r : Reg.t) nbrs ->
          Reg.Set.iter
            (fun (x : Reg.t) ->
              if r.Reg.cls = x.Reg.cls && color_of r = color_of x then ok := false)
            nbrs)
        graph;
      !ok)

let qtests =
  List.map QCheck_alcotest.to_alcotest [ prop_fast_matches_ref; prop_coloring_proper ]

let suite = [ ("regalloc", tests @ qtests) ]
