(* Unit tests for the IR: registers, operands, instructions, blocks,
   flattening and the machine description. *)

open Impact_ir

let test name f = Alcotest.test_case name `Quick f

let reg_tests =
  [
    test "fresh registers are unique" (fun () ->
      let g = Reg.make_gen () in
      let a = Reg.fresh g Reg.Int in
      let b = Reg.fresh g Reg.Int in
      let c = Reg.fresh g Reg.Float in
      Alcotest.(check bool) "a<>b" false (Reg.equal a b);
      Alcotest.(check bool) "a<>c" false (Reg.equal a c);
      Helpers.check_int "count" 4 (Reg.gen_count g));
    test "printing matches the paper's style" (fun () ->
      let g = Reg.make_gen () in
      let a = Reg.fresh g Reg.Int in
      let b = Reg.fresh g Reg.Float in
      Helpers.check_string "int reg" "r1i" (Reg.to_string a);
      Helpers.check_string "float reg" "r2f" (Reg.to_string b));
    test "set and map respect class" (fun () ->
      let a = { Reg.id = 1; cls = Reg.Int } in
      let b = { Reg.id = 1; cls = Reg.Float } in
      let s = Reg.Set.of_list [ a; b ] in
      Helpers.check_int "two distinct" 2 (Reg.Set.cardinal s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:1000 ~name:"compare agrees with the (id, cls) tuple order"
         QCheck.(pair (pair (int_range (-8) 8) bool) (pair (int_range (-8) 8) bool))
         (fun ((i, fa), (j, fb)) ->
           let cls f = if f then Reg.Float else Reg.Int in
           let a = { Reg.id = i; cls = cls fa } and b = { Reg.id = j; cls = cls fb } in
           let sign x = Int.compare x 0 in
           let tuple (r : Reg.t) = (r.Reg.id, r.Reg.cls) in
           sign (Reg.compare a b) = sign (Stdlib.compare (tuple a) (tuple b))
           && (Reg.compare a b < 0) = (Reg.hash a < Reg.hash b)));
  ]

let operand_tests =
  [
    test "equality" (fun () ->
      Helpers.check_bool "int eq" true (Operand.equal (Operand.Int 3) (Operand.Int 3));
      Helpers.check_bool "int ne" false (Operand.equal (Operand.Int 3) (Operand.Int 4));
      Helpers.check_bool "lab eq" true (Operand.equal (Operand.Lab "A") (Operand.Lab "A"));
      Helpers.check_bool "kind ne" false (Operand.equal (Operand.Int 0) (Operand.Flt 0.0)));
    test "is_const" (fun () ->
      Helpers.check_bool "int" true (Operand.is_const (Operand.Int 1));
      Helpers.check_bool "flt" true (Operand.is_const (Operand.Flt 1.0));
      Helpers.check_bool "lab" false (Operand.is_const (Operand.Lab "A"));
      Helpers.check_bool "reg" false
        (Operand.is_const (Operand.Reg { Reg.id = 1; cls = Reg.Int })));
  ]

let insn_tests =
  let ctx = Prog.make_ctx () in
  let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
  let r2 = Reg.fresh ctx.Prog.rgen Reg.Int in
  let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
  [
    test "defs and uses" (fun () ->
      let i = Build.ib ctx Insn.Add r1 (Operand.Reg r2) (Operand.Int 4) in
      Helpers.check_int "defs" 1 (List.length (Insn.defs i));
      Helpers.check_int "uses" 1 (List.length (Insn.uses i));
      Helpers.check_bool "def is r1" true (Reg.equal (List.hd (Insn.defs i)) r1));
    test "store has no defs" (fun () ->
      let s = Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Reg r1) (Operand.Reg f1) in
      Helpers.check_int "defs" 0 (List.length (Insn.defs s));
      Helpers.check_int "uses" 2 (List.length (Insn.uses s)));
    test "speculatability" (fun () ->
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0) in
      let st = Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 0) (Operand.Flt 1.) in
      let br = Build.br ctx Reg.Int Insn.Lt (Operand.Reg r1) (Operand.Int 3) "L" in
      Helpers.check_bool "load is speculatable" true (Insn.is_speculatable ld);
      Helpers.check_bool "store is not" false (Insn.is_speculatable st);
      Helpers.check_bool "branch is not" false (Insn.is_speculatable br));
    test "mem_addr extracts displacement" (fun () ->
      let ld = Build.load ctx Reg.Float f1 ~disp:8 (Operand.Lab "A") (Operand.Reg r1) in
      match Insn.mem_addr ld with
      | Some (Operand.Lab "A", Operand.Reg r, 8) ->
        Helpers.check_bool "offset reg" true (Reg.equal r r1)
      | _ -> Alcotest.fail "wrong address decomposition");
    test "eval_ibin agrees with OCaml" (fun () ->
      Helpers.check_bool "add" true (Insn.eval_ibin Insn.Add 3 4 = Some 7);
      Helpers.check_bool "div0" true (Insn.eval_ibin Insn.Div 3 0 = None);
      Helpers.check_bool "rem" true (Insn.eval_ibin Insn.Rem 7 3 = Some 1);
      Helpers.check_bool "neg rem" true (Insn.eval_ibin Insn.Rem (-7) 3 = Some (-1));
      Helpers.check_bool "shl" true (Insn.eval_ibin Insn.Shl 3 2 = Some 12);
      Helpers.check_bool "shr" true (Insn.eval_ibin Insn.Shr (-8) 1 = Some (-4)));
    test "negate_cmp is the complement" (fun () ->
      let cmps = Insn.[ Lt; Le; Gt; Ge; Eq; Ne ] in
      let ints = [ -2; -1; 0; 1; 2 ] and flts = [ neg_infinity; -1.5; 0.0; 0.5; 2.0; infinity ] in
      List.iter
        (fun c ->
          Helpers.check_bool "involution" true (Insn.negate_cmp (Insn.negate_cmp c) = c);
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  Helpers.check_bool "int" (not (Insn.eval_icmp c a b))
                    (Insn.eval_icmp (Insn.negate_cmp c) a b))
                ints)
            ints;
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  Helpers.check_bool "float" (not (Insn.eval_fcmp c a b))
                    (Insn.eval_fcmp (Insn.negate_cmp c) a b))
                flts)
            flts)
        cmps);
    test "printing" (fun () ->
      let i = Build.fb ctx Insn.Fadd f1 (Operand.Reg f1) (Operand.Flt 3.2) in
      Helpers.check_string "fadd" (Reg.to_string f1 ^ " = " ^ Reg.to_string f1 ^ " + 3.2")
        (Insn.to_string i));
  ]

let block_tests =
  let ctx = Prog.make_ctx () in
  let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
  let mk_loop lid body =
    { Block.lid; head = Printf.sprintf "L%d" lid; exit_lbl = Printf.sprintf "X%d" lid;
      meta = Block.no_meta; body }
  in
  [
    test "insns descends into loops" (fun () ->
      let i1 = Build.imov ctx r1 (Operand.Int 0) in
      let i2 = Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1) in
      let b = [ Block.Ins i1; Block.Loop (mk_loop 1 [ Block.Ins i2 ]) ] in
      Helpers.check_int "2 insns" 2 (List.length (Block.insns b)));
    test "loops lists outer before inner" (fun () ->
      let inner = mk_loop 2 [] in
      let outer = mk_loop 1 [ Block.Loop inner ] in
      let ls = Block.loops [ Block.Loop outer ] in
      Helpers.check_int "two loops" 2 (List.length ls);
      Helpers.check_int "outer first" 1 (List.hd ls).Block.lid);
    test "is_innermost" (fun () ->
      let inner = mk_loop 2 [] in
      let outer = mk_loop 1 [ Block.Loop inner ] in
      Helpers.check_bool "inner" true (Block.is_innermost inner);
      Helpers.check_bool "outer" false (Block.is_innermost outer));
    test "map_innermost only touches innermost" (fun () ->
      let inner = mk_loop 2 [] in
      let outer = mk_loop 1 [ Block.Loop inner ] in
      let touched = ref [] in
      let _ =
        Block.map_innermost_with_preheader
          (fun pre l ->
            touched := l.Block.lid :: !touched;
            pre @ [ Block.Loop l ])
          [ Block.Loop outer ]
      in
      Helpers.check_bool "only loop 2" true (!touched = [ 2 ]));
    test "map_runs rewrites exactly the maximal runs" (fun () ->
      let i () = Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1) in
      let a, b, c, d, e = (i (), i (), i (), i (), i ()) in
      let ins = List.map (fun i -> Block.Ins i) in
      let loop = Block.Loop (mk_loop 3 (ins [ c ])) in
      let block =
        (Block.Lbl "A" :: ins [ a; b ]) @ [ loop; Block.Lbl "B"; Block.Lbl "C" ] @ ins [ d; e ]
      in
      let seen = ref [] in
      let dropped =
        Block.map_runs
          (fun run ->
            seen := List.map (fun (i : Insn.t) -> i.Insn.id) run :: !seen;
            [])
          block
      in
      let ids = List.map (fun (i : Insn.t) -> i.Insn.id) in
      Helpers.check_bool "runs in order" true (List.rev !seen = [ ids [ a; b ]; ids [ d; e ] ]);
      Helpers.check_bool "labels and loops stay" true
        (dropped = [ Block.Lbl "A"; loop; Block.Lbl "B"; Block.Lbl "C" ]);
      Helpers.check_bool "identity" true (Block.map_runs ins block = block));
  ]

let flatten block =
  Flatten.of_prog { Prog.arrays = []; entry = block; ctx = Prog.make_ctx (); outputs = [] }

let flatten_tests =
  let ctx = Prog.make_ctx () in
  let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
  [
    test "loop head and exit labels are defined" (fun () ->
      let bb = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 3) "L1" in
      let l =
        { Block.lid = 1; head = "L1"; exit_lbl = "X1"; meta = Block.no_meta;
          body = [ Block.Ins bb ] }
      in
      let f = flatten [ Block.Loop l ] in
      Helpers.check_int "one insn" 1 (Array.length f.Flatten.code);
      Helpers.check_int "head at 0" 0 (Hashtbl.find f.Flatten.labels "L1");
      Helpers.check_int "exit at 1" 1 (Hashtbl.find f.Flatten.labels "X1"));
    test "unresolved target raises" (fun () ->
      let j = Build.jmp ctx "NOWHERE" in
      Alcotest.check_raises "raises" (Flatten.Unresolved_label "NOWHERE") (fun () ->
        ignore (flatten [ Block.Ins j ])));
    test "duplicate label raises" (fun () ->
      Alcotest.check_raises "raises" (Flatten.Duplicate_label "D") (fun () ->
        ignore (flatten [ Block.Lbl "D"; Block.Lbl "D" ])));
    test "target_index resolves" (fun () ->
      let j = Build.jmp ctx "END" in
      let i = Build.imov ctx r1 (Operand.Int 1) in
      let f = flatten [ Block.Ins j; Block.Ins i; Block.Lbl "END" ] in
      Helpers.check_int "end is 2" 2 (Flatten.target_index f j));
  ]

let machine_tests =
  [
    test "Table 1 latencies" (fun () ->
      Helpers.check_int "int alu" 1 (Machine.latency (Insn.IBin Insn.Add));
      Helpers.check_int "int mul" 3 (Machine.latency (Insn.IBin Insn.Mul));
      Helpers.check_int "int div" 10 (Machine.latency (Insn.IBin Insn.Div));
      Helpers.check_int "load" 2 (Machine.latency (Insn.Load Reg.Float));
      Helpers.check_int "store" 1 (Machine.latency (Insn.Store Reg.Float));
      Helpers.check_int "fp alu" 3 (Machine.latency (Insn.FBin Insn.Fadd));
      Helpers.check_int "fp mul" 3 (Machine.latency (Insn.FBin Insn.Fmul));
      Helpers.check_int "fp div" 10 (Machine.latency (Insn.FBin Insn.Fdiv));
      Helpers.check_int "fp conv" 3 (Machine.latency Insn.ItoF);
      Helpers.check_int "branch" 1 (Machine.latency (Insn.Br (Reg.Int, Insn.Lt))));
    test "issue configurations" (fun () ->
      Helpers.check_int "issue 2" 2 Machine.issue_2.Machine.issue;
      Helpers.check_int "issue 8" 8 Machine.issue_8.Machine.issue;
      Helpers.check_int "branch slots" 1 Machine.issue_8.Machine.branch_slots;
      Helpers.check_int "table rows" 10 (List.length Machine.table1_rows));
  ]

let suite =
  [
    ("ir.reg", reg_tests);
    ("ir.operand", operand_tests);
    ("ir.insn", insn_tests);
    ("ir.block", block_tests);
    ("ir.flatten", flatten_tests);
    ("ir.machine", machine_tests);
  ]
