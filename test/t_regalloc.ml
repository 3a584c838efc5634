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

(* k int and k float values, allocated alternately so the two classes
   interleave in the dense numbering, then each copied by a move into a
   fresh register while every original stays live. For k past half a
   word, a copy's row, its own bit, its move source and the class masks
   fall in different words. *)
let interleaved k =
  let b = irb () in
  let ctx = b.ctx in
  let pairs = List.init k (fun _ -> (reg b Reg.Int, reg b Reg.Float)) in
  let defs =
    List.concat
      (List.mapi
         (fun j (ri, rf) ->
           [
             Block.Ins (Build.imov ctx ri (Operand.Int j));
             Block.Ins (Build.fmov ctx rf (Operand.Flt (float_of_int j)));
           ])
         pairs)
  in
  let copies = List.map (fun (ri, rf) -> (ri, rf, reg b Reg.Int, reg b Reg.Float)) pairs in
  let moves =
    List.concat_map
      (fun (ri, rf, ci, cf) ->
        [
          Block.Ins (Build.imov ctx ci (Operand.Reg ri));
          Block.Ins (Build.fmov ctx cf (Operand.Reg rf));
        ])
      copies
  in
  let isum = reg b Reg.Int and fsum = reg b Reg.Float in
  let init =
    [
      Block.Ins (Build.imov ctx isum (Operand.Int 0));
      Block.Ins (Build.fmov ctx fsum (Operand.Flt 0.0));
    ]
  in
  let uses =
    List.concat_map
      (fun (ri, rf, ci, cf) ->
        [
          Block.Ins (Build.ib ctx Insn.Add isum (Operand.Reg isum) (Operand.Reg ri));
          Block.Ins (Build.ib ctx Insn.Add isum (Operand.Reg isum) (Operand.Reg ci));
          Block.Ins (Build.fb ctx Insn.Fadd fsum (Operand.Reg fsum) (Operand.Reg rf));
          Block.Ins (Build.fb ctx Insn.Fadd fsum (Operand.Reg fsum) (Operand.Reg cf));
        ])
      copies
  in
  output b "x" isum;
  output b "y" fsum;
  prog_of b (init @ defs @ moves @ uses)

(* [measure] equals the reference's usage and [coloring_fast] its
   per-register assignment. *)
let by_reg l =
  List.sort
    (fun ((a : Reg.t), _) (b, _) -> compare (a.Reg.cls, a.Reg.id) (b.Reg.cls, b.Reg.id))
    l

let agrees_with_ref (p : Prog.t) =
  let assignment, _ = Regalloc_ref.coloring p in
  Regalloc.measure p = Regalloc_ref.usage_of assignment
  && by_reg (Regalloc.coloring_fast p) = by_reg assignment

(* The programs the ooo-pipe benchmark measures, at Conv and Lev4: the
   largest interference graphs of the suite. *)
let ooo_pipe_progs (k : Impact_workloads.Suite.t) =
  let opts = { Impact_core.Opts.default with Impact_core.Opts.sched = `Pipe } in
  List.concat_map
    (fun level ->
      List.map
        (fun issue ->
          Helpers.compile opts level (Machine.ooo ~issue ~rob:32 ())
            (lower k.ast))
        [ 2; 4; 8 ])
    [ Impact_core.Level.Conv; Impact_core.Level.Lev4 ]

let tests =
  [
    test "k overlapping live ranges need k colors" (fun () ->
      List.iter
        (fun k ->
          let p, _ = ladder k in
          let u = Regalloc.measure p in
          (* k ladder registers + the accumulator *)
          check_int (Printf.sprintf "ladder %d" k) (k + 1) u.Regalloc.int_used;
          check_bool (Printf.sprintf "ladder %d = ref" k) true (agrees_with_ref p))
        [ 1; 2; 5; 9; 62; 63; 64; 127; 128 ]);
    test "interleaved classes across word boundaries match ref" (fun () ->
      List.iter
        (fun k ->
          let p = interleaved k in
          let u = Regalloc.measure p in
          (* The k originals, the running sum and at least one copy are
             live together in each class. *)
          check_bool (Printf.sprintf "interleaved %d int" k) true (u.Regalloc.int_used > k);
          check_bool (Printf.sprintf "interleaved %d float" k) true (u.Regalloc.float_used > k);
          check_bool (Printf.sprintf "interleaved %d = ref" k) true (agrees_with_ref p))
        [ 1; 31; 32; 40; 63; 64 ]);
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
      check_int "total" 2 (u.Regalloc.int_used + u.Regalloc.float_used));
    test "coloring is proper on compiled loops" (fun () ->
      List.iter
        (fun ast ->
          let p =
            Helpers.compile Impact_core.Opts.default Impact_core.Level.Lev4 Machine.issue_8 (lower ast)
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
      let total (m : Impact_core.Compile.measurement) =
        m.usage.Regalloc.int_used + m.usage.Regalloc.float_used
      in
      check_bool "more registers at Lev4" true (total lev4 > total conv));
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
          let list =
            Helpers.compile Impact_core.Opts.default Impact_core.Level.Lev4 Machine.issue_8
              (lower k.ast)
          in
          (* The two implementations share ordering semantics, so even
             the per-register assignment must match. *)
          List.iteri
            (fun j p ->
              if not (agrees_with_ref p) then Alcotest.failf "%s (program %d): fast <> ref" k.name j)
            (list :: ooo_pipe_progs k))
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

(* Loop kernels: a register's first sighting can come through a back
   edge, which straight-line programs never exercise. *)
let prop_kernels_match_ref =
  QCheck.Test.make ~name:"fast path matches color_ref on random loop kernels"
    ~count:40
    T_props.arb_kernel
    (fun spec ->
      let ast = T_props.build_kernel spec in
      let compile sched machine =
        Helpers.compile
          { Impact_core.Opts.default with Impact_core.Opts.sched }
          Impact_core.Level.Lev4 machine (lower ast)
      in
      agrees_with_ref (compile `List Machine.issue_8)
      && agrees_with_ref (compile `Pipe (Machine.ooo ~issue:8 ~rob:32 ())))

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_fast_matches_ref; prop_coloring_proper; prop_kernels_match_ref ]

let suite = [ ("regalloc", tests @ qtests) ]
