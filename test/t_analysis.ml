(* Tests for the analysis library: superblock view, dominance, linear
   symbolic values, liveness, the dependence graph and loop
   classification. *)

open Impact_ir
open Impact_analysis
open Helpers

let test name f = Alcotest.test_case name `Quick f

(* Build an Sb from instruction/label items. *)
let sb_of items = Sb.make ~head:"H" ~exit_lbl:"X" (Array.of_list items)

(* A loop skeleton for body-level analyses. *)
let loop_of ?(meta = Block.no_meta) body =
  { Block.lid = 1; head = "H"; exit_lbl = "X"; meta; body }

(* The linear value [r + c] of register [r]'s entry value. *)
let lin_reg ?(c = 0) r = { Linval.coeffs = Linval.KMap.singleton (Linval.Key.KReg r) 1; c }

let sb_tests =
  let ctx = Prog.make_ctx () in
  let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
  [
    test "positions and labels" (fun () ->
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let br = Build.br ctx Reg.Int Insn.Lt (Operand.Reg r1) (Operand.Int 9) "L" in
      let sb = sb_of [ Block.Ins i1; Block.Lbl "L"; Block.Ins br ] in
      check_int "length" 3 (Sb.length sb);
      check_bool "insn at 0" true (Sb.insn sb 0 <> None);
      check_bool "label at 1" true (Sb.insn sb 1 = None);
      check_int "positions" 2 (List.length (Sb.insn_positions sb));
      check_bool "internal target" true (Sb.internal_target sb br = Some 1));
    test "back and exit branch detection" (fun () ->
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 3) "H" in
      let exit_br = Build.br ctx Reg.Int Insn.Gt (Operand.Reg r1) (Operand.Int 3) "X" in
      let sb = sb_of [ Block.Ins exit_br; Block.Ins back ] in
      check_bool "back" true (Sb.is_back_branch sb back);
      check_bool "not back" false (Sb.is_back_branch sb exit_br));
    test "def counts" (fun () ->
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let i2 = Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1) in
      let sb = sb_of [ Block.Ins i1; Block.Ins i2 ] in
      let counts = Sb.def_counts sb in
      check_int "two defs" 2 (Hashtbl.find counts r1.Reg.id));
  ]

let dom_tests =
  let ctx = Prog.make_ctx () in
  let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
  let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
  [
    test "straight-line code is unconditional" (fun () ->
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 3) "H" in
      let sb = sb_of [ Block.Ins i1; Block.Ins back ] in
      let u = Dom.unconditional sb in
      check_bool "pos 0" true u.(0);
      check_bool "pos 1" true u.(1));
    test "guarded region is conditional" (fun () ->
      let g = Build.br ctx Reg.Float Insn.Le (Operand.Reg f1) (Operand.Flt 0.0) "S" in
      let upd = Build.fmov ctx f1 (Operand.Flt 1.0) in
      let inc = Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 3) "H" in
      let sb =
        sb_of [ Block.Ins g; Block.Ins upd; Block.Lbl "S"; Block.Ins inc; Block.Ins back ]
      in
      let u = Dom.unconditional sb in
      check_bool "guard uncond" true u.(0);
      check_bool "update cond" false u.(1);
      check_bool "inc uncond" true u.(3);
      check_bool "back uncond" true u.(4));
    test "end_position finds the back-branch" (fun () ->
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 3) "H" in
      let i2 = Build.imov ctx r1 (Operand.Int 2) in
      let sb = sb_of [ Block.Ins i1; Block.Ins back; Block.Ins i2 ] in
      check_bool "back at 1" true (Dom.end_position sb = Some 1));
  ]

let linval_tests =
  [
    test "affine chain through add/sub/mul/shl" (fun () ->
      let ctx = Prog.make_ctx () in
      let v = Reg.fresh ctx.Prog.rgen Reg.Int in
      let a = Reg.fresh ctx.Prog.rgen Reg.Int in
      let b = Reg.fresh ctx.Prog.rgen Reg.Int in
      let c = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.ib ctx Insn.Sub a (Operand.Reg v) (Operand.Int 1));
          Block.Ins (Build.ib ctx Insn.Mul b (Operand.Reg a) (Operand.Int 3));
          Block.Ins (Build.ib ctx Insn.Shl c (Operand.Reg b) (Operand.Int 2));
        ]
      in
      let sb = sb_of items in
      let lv = Linval.analyze sb in
      (* c = ((v-1)*3) << 2 = 12v - 12 *)
      match Linval.result lv 2 with
      | Some lin ->
        check_int "constant" (-12) lin.Linval.c;
        (match Linval.terms lin with
        | [ (Linval.Key.KReg r, 12) ] -> check_bool "key is v" true (Reg.equal r v)
        | _ -> Alcotest.fail "wrong terms")
      | None -> Alcotest.fail "no result");
    test "loads are opaque" (fun () ->
      let ctx = Prog.make_ctx () in
      let d = Reg.fresh ctx.Prog.rgen Reg.Int in
      let e = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.load ctx Reg.Int d (Operand.Lab "A") (Operand.Int 0));
          Block.Ins (Build.ib ctx Insn.Add e (Operand.Reg d) (Operand.Int 4));
        ]
      in
      let lv = Linval.analyze (sb_of items) in
      match Linval.result lv 1 with
      | Some lin -> (
        check_int "const" 4 lin.Linval.c;
        match Linval.terms lin with
        | [ (Linval.Key.KOpq _, 1) ] -> ()
        | _ -> Alcotest.fail "expected opaque key")
      | None -> Alcotest.fail "no result");
    test "iv_step of a counter" (fun () ->
      let ctx = Prog.make_ctx () in
      let v = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.ib ctx Insn.Add v (Operand.Reg v) (Operand.Int 4));
          Block.Ins (Build.br ctx Reg.Int Insn.Le (Operand.Reg v) (Operand.Int 99) "H");
        ]
      in
      let lv = Linval.analyze (sb_of items) in
      check_bool "step 4" true (Linval.iv_step lv v = Some 4));
    test "iv_step rejects non-linear updates" (fun () ->
      let ctx = Prog.make_ctx () in
      let v = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.ib ctx Insn.Mul v (Operand.Reg v) (Operand.Int 2));
          Block.Ins (Build.br ctx Reg.Int Insn.Le (Operand.Reg v) (Operand.Int 99) "H");
        ]
      in
      let lv = Linval.analyze (sb_of items) in
      check_bool "no step" true (Linval.iv_step lv v = None));
    test "address relation same / disjoint / may" (fun () ->
      let ctx = Prog.make_ctx () in
      let w = Reg.fresh ctx.Prog.rgen Reg.Int in
      let d1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let d2 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let d3 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let d4 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let items =
        [
          Block.Ins (Build.load ctx Reg.Float d1 (Operand.Lab "A") (Operand.Reg w));
          Block.Ins (Build.load ctx Reg.Float d2 ~disp:4 (Operand.Lab "A") (Operand.Reg w));
          Block.Ins (Build.load ctx Reg.Float d3 (Operand.Lab "A") (Operand.Reg w));
          Block.Ins (Build.load ctx Reg.Float d4 (Operand.Lab "B") (Operand.Reg w));
        ]
      in
      let lv = Linval.analyze (sb_of items) in
      let addr k = Linval.address lv k in
      check_bool "disjoint by disp" true (Linval.relation (addr 0) (addr 1) = Linval.Disjoint);
      check_bool "same" true (Linval.relation (addr 0) (addr 2) = Linval.Same);
      check_bool "different arrays" true (Linval.relation (addr 0) (addr 3) = Linval.Disjoint));
    test "merge makes disagreeing values opaque" (fun () ->
      let ctx = Prog.make_ctx () in
      let v = Reg.fresh ctx.Prog.rgen Reg.Int in
      let g = Reg.fresh ctx.Prog.rgen Reg.Int in
      let u = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.br ctx Reg.Int Insn.Lt (Operand.Reg g) (Operand.Int 0) "M");
          Block.Ins (Build.imov ctx v (Operand.Int 5));
          Block.Lbl "M";
          Block.Ins (Build.ib ctx Insn.Add u (Operand.Reg v) (Operand.Int 0));
        ]
      in
      let lv = Linval.analyze (sb_of items) in
      (* After the join, v is 5 on one path and the entry value on the
         other: the result must not be the constant 5. *)
      match Linval.result lv 3 with
      | Some lin -> check_bool "not constant" false (Linval.is_const lin)
      | None -> Alcotest.fail "no result");
    test "subst rewrites register keys" (fun () ->
      let ctx = Prog.make_ctx () in
      let a = Reg.fresh ctx.Prog.rgen Reg.Int in
      let b = Reg.fresh ctx.Prog.rgen Reg.Int in
      let la = lin_reg a in
      let env = Reg.Map.singleton b (lin_reg ~c:4 a) in
      let v = lin_reg b in
      let v' = Linval.subst env v in
      check_bool "b -> a + 4" true (Linval.diff v' la = Some 4));
    test "env_of_items composes across an intermediate loop" (fun () ->
      let ctx = Prog.make_ctx () in
      let p = Reg.fresh ctx.Prog.rgen Reg.Int in
      let q = Reg.fresh ctx.Prog.rgen Reg.Int in
      let cnt = Reg.fresh ctx.Prog.rgen Reg.Int in
      (* p and q advance together inside the loop, so their distance (16)
         survives the composition. *)
      let body =
        [
          Block.Ins (Build.ib ctx Insn.Add p (Operand.Reg p) (Operand.Int 4));
          Block.Ins (Build.ib ctx Insn.Add q (Operand.Reg q) (Operand.Int 4));
          Block.Ins (Build.ib ctx Insn.Sub cnt (Operand.Reg cnt) (Operand.Int 1));
          Block.Ins (Build.br ctx Reg.Int Insn.Gt (Operand.Reg cnt) (Operand.Int 0) "LP");
        ]
      in
      let l = { Block.lid = 7; head = "LP"; exit_lbl = "XP"; meta = Block.no_meta; body } in
      let p2 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let q2 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.ib ctx Insn.Add q (Operand.Reg p) (Operand.Int 16));
          Block.Loop l;
          Block.Ins (Build.imov ctx p2 (Operand.Reg p));
          Block.Ins (Build.imov ctx q2 (Operand.Reg q));
        ]
      in
      let env = Linval.env_of_items items in
      let vp = Linval.subst env (lin_reg p2) in
      let vq = Linval.subst env (lin_reg q2) in
      check_bool "distance 16 preserved" true (Linval.diff vq vp = Some 16));
    test "env_of_items keeps guarded definitions imprecise" (fun () ->
      let ctx = Prog.make_ctx () in
      let g = Reg.fresh ctx.Prog.rgen Reg.Int in
      let x = Reg.fresh ctx.Prog.rgen Reg.Int in
      let items =
        [
          Block.Ins (Build.imov ctx x (Operand.Int 1));
          Block.Ins (Build.br ctx Reg.Int Insn.Lt (Operand.Reg g) (Operand.Int 0) "Z");
          Block.Ins (Build.imov ctx x (Operand.Int 2));
          Block.Lbl "Z";
        ]
      in
      let env = Linval.env_of_items items in
      match Reg.Map.find_opt x env with
      | Some v -> check_bool "not a known constant" false (Linval.is_const v)
      | None -> Alcotest.fail "x should be bound");
  ]

(* The dense analysis, expanded, and the [Reg.Set] reference. *)
(* ---- Linval properties ----

   Keys are ordered as [Stdlib.compare] orders them ([Ivopt] rebuilds
   operands in [terms] order, so the order is output), and [diff]
   decides on the coefficient maps exactly what subtracting decides. *)

let key_gen =
  let open QCheck.Gen in
  oneof
    [
      map2
        (fun id cls -> Linval.Key.KReg { Reg.id; cls })
        (int_range 0 4)
        (oneofl [ Reg.Int; Reg.Float ]);
      map (fun k -> Linval.Key.KOpq k) (int_range (-3) 3);
      map (fun s -> Linval.Key.KLab s) (oneofl [ ""; "A"; "AB"; "A\000"; "B"; "BA"; "a" ]);
      map (fun k -> Linval.Key.KTrip k) (int_range (-1) 3);
    ]

let show_key = function
  | Linval.Key.KReg r -> "KReg " ^ Reg.to_string r
  | Linval.Key.KOpq k -> Printf.sprintf "KOpq %d" k
  | Linval.Key.KLab s -> Printf.sprintf "KLab %S" s
  | Linval.Key.KTrip k -> Printf.sprintf "KTrip %d" k

let prop_key_order =
  QCheck.Test.make ~name:"KMap orders keys as Stdlib.compare" ~count:1000
    (QCheck.make
       ~print:(fun ks -> String.concat "; " (List.map show_key ks))
       QCheck.Gen.(list_size (int_range 2 8) key_gen))
    (fun ks ->
      let m = List.fold_left (fun m k -> Linval.KMap.add k () m) Linval.KMap.empty ks in
      let pairwise =
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                let two = Linval.KMap.bindings (Linval.KMap.add a () (Linval.KMap.singleton b ())) in
                let c = Stdlib.compare a b in
                match two with
                | [ _ ] -> c = 0
                | [ (k, ()); _ ] -> c <> 0 && k == if c < 0 then a else b
                | _ -> false)
              ks)
          ks
      in
      pairwise && List.map fst (Linval.KMap.bindings m) = List.sort_uniq Stdlib.compare ks)

(* A normalized lin: only non-zero coefficients. *)
let lin_gen =
  let open QCheck.Gen in
  map2
    (fun terms c ->
      {
        Linval.coeffs =
          List.fold_left
            (fun m (k, co) -> if co = 0 then m else Linval.KMap.add k co m)
            Linval.KMap.empty terms;
        c;
      })
    (list_size (int_range 0 4) (pair key_gen (int_range (-3) 3)))
    (int_range (-16) 16)

let show_lin (l : Linval.lin) =
  Printf.sprintf "{%s} + %d"
    (String.concat ", "
       (List.map (fun (k, co) -> Printf.sprintf "%d*%s" co (show_key k)) (Linval.terms l)))
    l.Linval.c

(* The second lin is often the first one shifted or with one term
   changed, so equal coefficient maps are common. *)
let lin_pair_gen =
  let open QCheck.Gen in
  lin_gen >>= fun a ->
  oneof
    [
      lin_gen;
      map (fun c -> { a with Linval.c }) (int_range (-16) 16);
      map2
        (fun k co -> { a with Linval.coeffs = Linval.KMap.add k co a.Linval.coeffs })
        key_gen (int_range 1 3);
    ]
  >|= fun b -> (a, b)

let prop_diff =
  QCheck.Test.make ~name:"diff and relation = subtracting" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> show_lin a ^ "  vs  " ^ show_lin b)
       lin_pair_gen)
    (fun (a, b) ->
      let by_sub =
        let d = Linval.sub a b in
        if Linval.is_const d then Some d.Linval.c else None
      in
      let relation_by_sub =
        match by_sub with
        | Some 0 -> Linval.Same
        | Some _ -> Linval.Disjoint
        | None -> (
          match Linval.label_of_addr a, Linval.label_of_addr b with
          | Some la, Some lb when la <> lb -> Linval.Disjoint
          | _ -> Linval.May)
      in
      Linval.diff a b = by_sub && Linval.relation (Some a) (Some b) = relation_by_sub)

let linval_props =
  [
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x1E7 |]) prop_key_order;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xD1F |]) prop_diff;
  ]

let liveness_both p = [ Liveness_ref.of_dense (Liveness.Dense.of_prog p); Liveness_ref.of_prog p ]

let liveness_tests =
  [
    test "use keeps a def live" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and r2 = reg b Reg.Int in
      let ctx = b.ctx in
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let i2 = Build.ib ctx Insn.Add r2 (Operand.Reg r1) (Operand.Int 1) in
      output b "x" r2;
      let p = prog_of b [ Block.Ins i1; Block.Ins i2 ] in
      List.iter
        (fun (live : Liveness_ref.t) ->
          check_bool "r1 live out of def" true (Reg.Set.mem r1 live.Liveness_ref.live_out.(0));
          check_bool "r2 live at exit" true (Reg.Set.mem r2 live.Liveness_ref.live_out.(1)))
        (liveness_both p));
    test "dead def is not live" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let i1 = Build.imov ctx r1 (Operand.Int 1) in
      let i2 = Build.imov ctx r1 (Operand.Int 2) in
      output b "x" r1;
      let p = prog_of b [ Block.Ins i1; Block.Ins i2 ] in
      List.iter
        (fun (live : Liveness_ref.t) ->
          check_bool "first def dead" false (Reg.Set.mem r1 live.Liveness_ref.live_out.(0)))
        (liveness_both p));
    test "loop-carried register is live at the head" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int in
      let ctx = b.ctx in
      let init = Build.imov ctx r1 (Operand.Int 0) in
      let inc = Build.ib ctx Insn.Add r1 (Operand.Reg r1) (Operand.Int 1) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg r1) (Operand.Int 9) "L" in
      output b "x" r1;
      let p =
        prog_of b
          [
            Block.Ins init;
            Block.Loop (loop_of [ Block.Ins inc; Block.Ins back ]);
          ]
      in
      (* Loop head label is "H" from loop_of *)
      let p = { p with Prog.entry = [ Block.Ins init;
        Block.Loop { Block.lid = 1; head = "L"; exit_lbl = "X"; meta = Block.no_meta;
                     body = [ Block.Ins inc; Block.Ins back ] } ] } in
      List.iter
        (fun live ->
          check_bool "r1 live at L" true (Reg.Set.mem r1 (Liveness_ref.live_at_label live "L")))
        (liveness_both p));
    test "exit-live register absent from the code is numbered" (fun () ->
      let b = irb () in
      let r1 = reg b Reg.Int and f2 = reg b Reg.Float in
      let i1 = Build.imov b.ctx r1 (Operand.Int 1) in
      output b "y" f2;
      let d = Liveness.Dense.of_prog (prog_of b [ Block.Ins i1 ]) in
      check_int "two registers" 2 (Liveness.Dense.nregs d);
      check_bool "f2 indexed" true (Liveness_ref.index_opt d f2 = Some 1);
      check_bool "f2 live at exit" true (Bits.mem d.Liveness.Dense.exit_live 1);
      check_bool "f2 live in" true
        (Reg.Set.mem f2 (Liveness_ref.of_dense d).Liveness_ref.live_in.(0)));
    test "sparse register ids: numbering by rank, liveness and DCE = reference" (fun () ->
      (* Ids spread over several words of register hashes, an int and a
         float register sharing id 32, and an exit-live float absent
         from the code with the largest id. *)
      let b = irb () in
      let ctx = b.ctx in
      let at id cls =
        let r = ref (reg b Reg.Int) in
        while !r.Reg.id < id do
          r := reg b Reg.Int
        done;
        { Reg.id; cls }
      in
      let ra = at 1 Reg.Int and rb = at 31 Reg.Int and ci = at 32 Reg.Int in
      let cf = { Reg.id = 32; cls = Reg.Float } and rd = at 63 Reg.Int in
      let fe = at 64 Reg.Float and rf = at 500 Reg.Int and fg = at 2000 Reg.Float in
      let rh = at 4000 Reg.Int and fz = at 9000 Reg.Float in
      output b "x" rh;
      output b "y" fg;
      output b "z" fz;
      let i x = Block.Ins x in
      let p =
        prog_of b
          [
            i (Build.imov ctx ra (Operand.Int 0));
            i (Build.imov ctx ci (Operand.Int 5));
            i (Build.fmov ctx cf (Operand.Flt 2.0));
            i (Build.fmov ctx fg (Operand.Flt 0.0));
            Block.Lbl "L";
            i (Build.ib ctx Insn.Add rb (Operand.Reg ra) (Operand.Reg ci));
            i (Build.ib ctx Insn.Mul rd (Operand.Reg rb) (Operand.Reg rb));
            i (Build.itof ctx fe (Operand.Reg rd));
            i (Build.fb ctx Insn.Fadd fg (Operand.Reg fe) (Operand.Reg cf));
            i (Build.ib ctx Insn.Sub rf (Operand.Reg rd) (Operand.Int 1));
            i (Build.ib ctx Insn.Add ra (Operand.Reg ra) (Operand.Int 1));
            i (Build.br ctx Reg.Int Insn.Le (Operand.Reg ra) (Operand.Int 4) "L");
            i (Build.ib ctx Insn.Add rh (Operand.Reg ra) (Operand.Reg rb));
          ]
      in
      let d = Liveness.Dense.of_prog p in
      let regs = d.Liveness.Dense.regs in
      check_bool "block liveness = reference" true (Liveness_ref.dense_agrees p);
      check_bool "ascending, every named register"
        true
        (Array.to_list regs = [ ra; rb; ci; cf; rd; fe; rf; fg; rh; fz ]);
      check_bool "z live at exit" true (Bits.mem d.Liveness.Dense.exit_live 9);
      check_bool "def and uses numbered" true (Liveness_ref.numbering_names_code d p);
      let code = d.Liveness.Dense.flat.Flatten.code in
      check_bool "DCE = reference" true (Dce_ref.disagreement p = None);
      (* [rf]'s subtraction, and [fg = 0.0], which the loop overwrites. *)
      check_int "DCE drops two dead definitions" (Array.length code - 2)
        (Helpers.insn_count (Impact_opt.Dce.run p)));
  ]

(* Word-level bitset operations against a list model, across word
   boundaries. *)
let bits_tests =
  let elements t =
    let acc = ref [] in
    Bits.iter (fun i -> acc := i :: !acc) t;
    List.rev !acc
  in
  [
    test "every bit position iterates, and first finds it" (fun () ->
      let n = 200 in
      for i = 0 to n - 1 do
        let t = Bits.create n in
        Bits.add t i;
        check_bool (Printf.sprintf "elements {%d}" i) true (elements t = [ i ]);
        check_int (Printf.sprintf "first {%d}" i) i (Bits.first t)
      done;
      check_int "first of empty" (-1) (Bits.first (Bits.create n)));
    test "word-wise combination matches the list model" (fun () ->
      let n = 300 in
      let a = Bits.create n and b = Bits.create n in
      List.iter (Bits.add a) [ 0; 5; 61; 62; 63; 64; 125; 126; 127; 188; 250; 299 ];
      List.iter (Bits.add b) [ 5; 62; 63; 127; 128; 189; 250; 298; 299 ];
      let want = List.filter (fun i -> not (Bits.mem b i)) (elements a) in
      let got = ref [] in
      for w = 0 to Array.length a - 1 do
        let v = ref (a.(w) land lnot b.(w)) in
        while !v <> 0 do
          got := ((w * Sys.int_size) + Bits.lowest !v) :: !got;
          v := !v land (!v - 1)
        done
      done;
      check_bool "a \\ b" true (List.rev !got = want);
      let c = Bits.create n in
      check_bool "union_diff_into grows" true (Bits.union_diff_into ~into:c a b);
      check_bool "union_diff_into = a \\ b" true (elements c = want);
      check_bool "union_diff_into again adds nothing" false (Bits.union_diff_into ~into:c a b));
  ]

let ddg_tests =
  let edge_exists ddg a b =
    List.exists (fun (d, _) -> d = b) ddg.Ddg.succs.(a)
  in
  (* Every register live at every target: nothing may speculate. *)
  let all_live ?(pre_env = Reg.Map.empty) insns =
    let dsts = List.filter_map (fun (i : Insn.t) -> i.Insn.dst) insns in
    Ddg.build ~live_at_target:(fun _ -> Reg.Set.of_list dsts) ~pre_env (Array.of_list insns)
  in
  [
    test "flow edge carries producer latency" (fun () ->
      let ctx = Prog.make_ctx () in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let f2 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Int 0) in
      let add = Build.fb ctx Insn.Fadd f2 (Operand.Reg f1) (Operand.Flt 1.0) in
      let ddg = all_live [ ld; add ] in
      (match ddg.Ddg.succs.(0) with
      | [ (1, 2) ] -> ()
      | _ -> Alcotest.fail "expected flow edge with load latency 2");
      check_int "critical path" 5 (Array.fold_left max 0 (Ddg.heights ddg)));
    test "anti edge orders use before redefinition" (fun () ->
      let ctx = Prog.make_ctx () in
      let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let r2 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let use = Build.ib ctx Insn.Add r2 (Operand.Reg r1) (Operand.Int 1) in
      let redef = Build.imov ctx r1 (Operand.Int 9) in
      let ddg = all_live [ use; redef ] in
      check_bool "anti edge" true (edge_exists ddg 0 1));
    test "memory edges respect array disjointness" (fun () ->
      let ctx = Prog.make_ctx () in
      let w = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let st = Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Reg w) (Operand.Flt 1.0) in
      let ld_b = Build.load ctx Reg.Float f1 (Operand.Lab "B") (Operand.Reg w) in
      let ddg = all_live [ st; ld_b ] in
      check_bool "no edge to other array" false (edge_exists ddg 0 1);
      let f2 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let ld_a = Build.load ctx Reg.Float f2 (Operand.Lab "A") (Operand.Reg w) in
      let ddg2 = all_live [ st; ld_a ] in
      check_bool "edge on same address" true (edge_exists ddg2 0 1));
    test "unrelated register bases may alias" (fun () ->
      (* Neither address has a label and nothing relates the two bases,
         so the load and the later store must stay ordered. The front
         end gives every access a label base; this shape is hand-built. *)
      let ctx = Prog.make_ctx () in
      let a = Reg.fresh ctx.Prog.rgen Reg.Int in
      let b = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let ld = Build.load ctx Reg.Float f1 (Operand.Reg a) (Operand.Int 0) in
      let st = Build.store ctx Reg.Float (Operand.Reg b) (Operand.Int 0) (Operand.Flt 1.0) in
      let ddg = all_live [ ld; st ] in
      check_bool "load -> store" true (edge_exists ddg 0 1));
    test "duplicate edges keep the max latency" (fun () ->
      (* The store reads f1 (anti edge, latency 0) and may alias the
         reload (memory edge, latency 1). *)
      let ctx = Prog.make_ctx () in
      let w = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let st = Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Reg w) (Operand.Reg f1) in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Reg w) in
      let sb = sb_of [ Block.Ins st; Block.Ins ld ] in
      check_bool "two raw edges" true
        (List.length (Pipe_edges_ref.build sb).Pipe_edges_ref.edges = 2);
      let ddg = all_live [ st; ld ] in
      check_bool "one succ at latency 1" true (ddg.Ddg.succs.(0) = [ (1, 1) ]);
      check_bool "one pred at latency 1" true (ddg.Ddg.succs.(1) = []));
    test "store ordered after branch; dead-dest load may speculate" (fun () ->
      let ctx = Prog.make_ctx () in
      let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let br = Build.br ctx Reg.Int Insn.Lt (Operand.Reg r1) (Operand.Int 0) "X" in
      let st = Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Int 0) (Operand.Flt 1.0) in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "B") (Operand.Int 0) in
      let live_at_target _ = Reg.Set.empty in
      let ddg = Ddg.build ~live_at_target ~pre_env:Reg.Map.empty [| br; st; ld |] in
      let edge a b = List.exists (fun (d, _) -> d = b) ddg.Ddg.succs.(a) in
      check_bool "branch -> store" true (edge 0 1);
      check_bool "branch -/-> load (dead at target)" false (edge 0 2));
    test "live-dest instruction may not speculate" (fun () ->
      let ctx = Prog.make_ctx () in
      let r1 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let br = Build.br ctx Reg.Int Insn.Lt (Operand.Reg r1) (Operand.Int 0) "X" in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "B") (Operand.Int 0) in
      let live_at_target _ = Reg.Set.singleton f1 in
      let ddg = Ddg.build ~live_at_target ~pre_env:Reg.Map.empty [| br; ld |] in
      check_bool "branch -> load" true
        (List.exists (fun (d, _) -> d = 1) ddg.Ddg.succs.(0)));
    test "preheader facts disambiguate expanded pointers" (fun () ->
      let ctx = Prog.make_ctx () in
      let p1 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let p2 = Reg.fresh ctx.Prog.rgen Reg.Int in
      let f1 = Reg.fresh ctx.Prog.rgen Reg.Float in
      let st = Build.store ctx Reg.Float (Operand.Lab "A") (Operand.Reg p1) (Operand.Flt 1.0) in
      let ld = Build.load ctx Reg.Float f1 (Operand.Lab "A") (Operand.Reg p2) in
      let inc1 = Build.ib ctx Insn.Add p1 (Operand.Reg p1) (Operand.Int 8) in
      let inc2 = Build.ib ctx Insn.Add p2 (Operand.Reg p2) (Operand.Int 8) in
      let back = Build.br ctx Reg.Int Insn.Le (Operand.Reg p1) (Operand.Int 99) "H" in
      let body = [ st; ld; inc1; inc2; back ] in
      (* Without preheader facts: may-alias; with p2 = p1 + 4: disjoint. *)
      let ddg_without = all_live body in
      check_bool "conservative edge" true
        (List.exists (fun (d, _) -> d = 1) ddg_without.Ddg.succs.(0));
      let pre_env =
        Reg.Map.singleton p2 (lin_reg ~c:4 p1)
      in
      let ddg_with = all_live ~pre_env body in
      check_bool "edge removed with facts" false
        (List.exists (fun (d, _) -> d = 1) ddg_with.Ddg.succs.(0)));
  ]

let classify_tests =
  let classify_inner ast =
    let p = Impact_opt.Conv.run (lower ast) in
    match List.filter Block.is_innermost (Block.loops p.Prog.entry) with
    | l :: _ -> Classify.classify l
    | [] -> Alcotest.fail "no loop"
  in
  [
    test "vector add is DOALL" (fun () ->
      check_bool "doall" true (classify_inner (vecadd_ast 16) = Classify.Doall));
    test "dot product is serial" (fun () ->
      check_bool "serial" true (classify_inner (dotprod_ast 16) = Classify.Serial));
    test "search is serial" (fun () ->
      check_bool "serial" true (classify_inner (maxval_ast 16) = Classify.Serial));
    test "memory recurrence is DOACROSS" (fun () ->
      check_bool "doacross" true (classify_inner (recurrence_ast 16) = Classify.Doacross));
    test "in-place update is DOALL" (fun () ->
      let open Ast_build in
      let ast =
        {
          decls = [ scalar "j" TInt; array1 "A" TReal 18 (pseudo 7) ];
          stmts =
            [ do_ "j" (i 1) (i 16) [ astore "A" [ v "j" ] (idx "A" [ v "j" ] *: r 2.0) ] ];
          outs = [];
        }
      in
      check_bool "doall" true (classify_inner ast = Classify.Doall));
    test "if/else stores stay DOALL" (fun () ->
      let open Ast_build in
      let ast =
        {
          decls =
            [
              scalar "j" TInt;
              array1 "M" TInt 18 (fun k -> float_of_int (k mod 2));
              array1 "A" TReal 18 (pseudo 8);
              array1 "C" TReal 18 (fun _ -> 0.0);
            ];
          stmts =
            [
              do_ "j" (i 1) (i 16)
                [
                  if_ CGt (idx "M" [ v "j" ]) (i 0)
                    [ astore "C" [ v "j" ] (idx "A" [ v "j" ]) ]
                    [ astore "C" [ v "j" ] (r 0.0) ];
                ];
            ];
          outs = [];
        }
      in
      check_bool "doall" true (classify_inner ast = Classify.Doall));
    test "same-location store each iteration is not DOALL" (fun () ->
      let open Ast_build in
      let ast =
        {
          decls = [ scalar "j" TInt; array1 "A" TReal 18 (pseudo 9) ];
          stmts =
            [
              do_ "j" (i 1) (i 16)
                [ astore "A" [ i 3 ] (idx "A" [ v "j" ] +: r 1.0) ];
            ];
          outs = [];
        }
      in
      check_bool "not doall" true (classify_inner ast <> Classify.Doall));
  ]

(* ---- Corpus differentials for the scheduler's analyses ----

   Every transformed program of the 40 kernels x 5 levels, and every
   innermost segment the list scheduler hands to [Ddg.build] (innermost
   loop bodies split at labels, with the preheader environment). *)

let corpus =
  lazy
    (List.concat_map
       (fun (w : Impact_workloads.Suite.t) ->
         let p = lower w.Impact_workloads.Suite.ast in
         List.map
           (fun lvl ->
             ( Printf.sprintf "%s/%s" w.Impact_workloads.Suite.name
                 (Impact_core.Level.to_string lvl),
               Impact_core.Compile.transform_with Impact_core.Opts.default lvl p ))
           Impact_core.Level.all)
       Impact_workloads.Suite.all)

let segments (p : Prog.t) : (Linval.lin Reg.Map.t * Insn.t array) list =
  let out = ref [] in
  let rec go_block acc = function
    | [] -> ()
    | Block.Loop l :: rest when Block.is_innermost l ->
      let pre_env = Linval.env_of_items (List.rev acc) in
      let cur = ref [] in
      let flush () =
        if !cur <> [] then out := (pre_env, Array.of_list (List.rev !cur)) :: !out;
        cur := []
      in
      List.iter
        (function Block.Ins i -> cur := i :: !cur | Block.Lbl _ | Block.Loop _ -> flush ())
        l.Block.body;
      flush ();
      go_block (Block.Loop l :: acc) rest
    | Block.Loop l :: rest ->
      go_block [] l.Block.body;
      go_block (Block.Loop l :: acc) rest
    | item :: rest -> go_block (item :: acc) rest
  in
  go_block [] p.Prog.entry;
  List.rev !out

let liveness_corpus_tests =
  [
    test "sparse target liveness = of_prog at every branch" (fun () ->
      List.iter
        (fun (name, p) ->
          let d = Liveness.Dense.of_prog p in
          let full = Liveness_ref.of_prog p in
          let at = Liveness.target_live d in
          Array.iter
            (fun (i : Insn.t) ->
              if i.Insn.target <> None then begin
                let s = at i in
                check_bool (name ^ " target set") true
                  (Reg.Set.equal s (Liveness_ref.live_at_target full i));
                check_bool (name ^ " memoised") true (at i == s)
              end)
            d.Liveness.Dense.flat.Flatten.code)
        (Lazy.force corpus));
    test "block liveness = reference at every position, list- and pipe-scheduled" (fun () ->
      let machine = Machine.make ~issue:8 () in
      let programs = ref 0 in
      List.iter
        (fun (name, p) ->
          List.iter
            (fun (tag, sched) ->
              let q, _ = Impact_core.Compile.schedule_with (Impact_core.Opts.make ~sched ()) machine p in
              List.iter
                (fun (stage, r) ->
                  incr programs;
                  check_bool (Printf.sprintf "%s %s %s" name tag stage) true
                    (Liveness_ref.dense_agrees r))
                [ ("transformed", p); ("scheduled", q) ])
            [ ("list", `List); ("pipe", `Pipe) ])
        (Lazy.force corpus);
      check_int "40 kernels x 5 levels x 2 schedulers x 2 stages" 800 !programs);
    test "dense numbering ascends and index_opt is exact" (fun () ->
      List.iter
        (fun (name, (p : Prog.t)) ->
          let d = Liveness.Dense.of_prog p in
          let regs = d.Liveness.Dense.regs in
          Array.iteri
            (fun k r ->
              if k > 0 then
                check_bool (name ^ " strictly ascending") true
                  (Reg.compare regs.(k - 1) r < 0);
              check_bool (name ^ " index of member") true
                (Liveness_ref.index_opt d r = Some k))
            regs;
          (* Every id up to one past the generator's bound, both classes,
             plus ids below any in use: exactly the members are found. *)
          let top = Reg.gen_count p.Prog.ctx.Prog.rgen in
          for id = -2 to top + 1 do
            List.iter
              (fun cls ->
                let r = { Reg.id; cls } in
                let member = Array.exists (Reg.equal r) regs in
                check_bool (name ^ " index_opt iff member") member
                  (Liveness_ref.index_opt d r <> None))
              [ Reg.Int; Reg.Float ]
          done;
          check_bool (name ^ " def and uses numbered") true
            (Liveness_ref.numbering_names_code d p))
        (Lazy.force corpus));
  ]

(* ---- Masked re-solve against deleting the positions ----

   One frame per program, re-solved under random masks that drop only
   pure definitions (the only positions DCE removes): every live set
   must equal [Dense.analyze] on the program with those positions
   deleted, at each kept position and at every label (including labels
   at a deleted position or past the end). *)

let delete_positions (p : Prog.t) (removed : bool array) : Prog.t =
  let pos = ref (-1) in
  Prog.with_entry p
    (Block.concat_map_insns
       (fun i ->
         incr pos;
         if removed.(!pos) then [] else [ i ])
       p.Prog.entry)

let masked_liveness_tests =
  [
    test "masked re-solve = analysis with the positions deleted" (fun () ->
      let rng = Random.State.make [| 0x11FE |] in
      let raw =
        List.map
          (fun (w : Impact_workloads.Suite.t) ->
            (w.Impact_workloads.Suite.name ^ "/lowered", lower w.Impact_workloads.Suite.ast))
          Impact_workloads.Suite.all
      in
      let odd_labels = ref 0 in
      List.iter
        (fun (name, (p : Prog.t)) ->
          let d = Liveness.Dense.of_prog p in
          let fresh = Liveness_ref.of_dense d in
          let code = d.Liveness.Dense.flat.Flatten.code in
          let n = Array.length code in
          List.iter
            (fun density ->
              let removed =
                Array.map
                  (fun (i : Insn.t) ->
                    match i.Insn.op, i.Insn.dst with
                    | (Insn.Store _ | Insn.Br _ | Insn.Jmp), _ | _, None -> false
                    | _, Some _ -> Random.State.float rng 1.0 < density)
                  code
              in
              Liveness.Dense.solve ~removed d;
              let masked = Liveness_ref.of_dense d in
              let del = Liveness_ref.of_prog (delete_positions p removed) in
              let k' = ref 0 in
              for k = 0 to n - 1 do
                if not removed.(k) then begin
                  check_bool (name ^ " live-in at kept position") true
                    (Reg.Set.equal masked.Liveness_ref.live_in.(k) del.Liveness_ref.live_in.(!k'));
                  check_bool (name ^ " live-out at kept position") true
                    (Reg.Set.equal masked.Liveness_ref.live_out.(k) del.Liveness_ref.live_out.(!k'));
                  incr k'
                end
              done;
              Hashtbl.iter
                (fun l k ->
                  if k >= n || removed.(k) then incr odd_labels;
                  check_bool (name ^ " live at label " ^ l) true
                    (Reg.Set.equal
                       (Liveness_ref.live_at_label masked l)
                       (Liveness_ref.live_at_label del l)))
                d.Liveness.Dense.flat.Flatten.labels)
            [ 0.1; 0.5; 1.0 ];
          (* An unmasked re-solve of the same frame starts over. *)
          Liveness.Dense.solve d;
          let again = Liveness_ref.of_dense d in
          check_bool (name ^ " re-solve resets") true
            (Array.for_all2 Reg.Set.equal fresh.Liveness_ref.live_in again.Liveness_ref.live_in
            && Array.for_all2 Reg.Set.equal fresh.Liveness_ref.live_out again.Liveness_ref.live_out))
        (Lazy.force corpus @ raw);
      check_bool "labels at deleted positions or past the end" true (!odd_labels > 0));
  ]

(* Test-local reference for the Flow/Mem edges of a segment: register
   flow edges from the last definition, and memory edges from
   [Linval.relation] plus the preheader and syntactic fallbacks on every
   store-involving pair, with no shortcut. *)
let reference_flow_mem ~pre_env (sb : Sb.t) =
  let lv = Linval.analyze sb in
  let may_alias a1 b1 a2 b2 =
    match Linval.relation a1 a2 with
    | Linval.Disjoint -> false
    | Linval.Same -> true
    | Linval.May -> (
      let distance =
        match a1, a2 with
        | Some x, Some y ->
          let d = Linval.sub x y in
          if Linval.lin_step lv d <> Some 0 then None
          else
            let d = Linval.subst pre_env d in
            if Linval.is_const d then Some d.Linval.c else None
        | _ -> None
      in
      match distance, b1, b2 with
      | Some c, _, _ -> c = 0
      | None, Operand.Lab x, Operand.Lab y -> x = y
      | None, _, _ -> true)
  in
  let last_def = Hashtbl.create 16 in
  let edges = ref [] in
  let mems = ref [] in
  Sb.iter_insns
    (fun p i ->
      List.iter
        (fun r ->
          match Hashtbl.find_opt last_def r with
          | Some (d, lat) -> edges := (d, p, Pipe_edges_ref.Flow, lat) :: !edges
          | None -> ())
        (Insn.uses i);
      List.iter
        (fun r -> Hashtbl.replace last_def r (p, Machine.latency i.Insn.op))
        (Insn.defs i);
      if Insn.is_mem i then begin
        let m = (p, Insn.is_store i, Linval.address lv p, i.Insn.srcs.(0)) in
        List.iter
          (fun (q, qst, qa, qb) ->
            let _, st, a, b = m in
            if (st || qst) && may_alias qa qb a b then
              edges := (q, p, Pipe_edges_ref.Mem, if qst then 1 else 0) :: !edges)
          !mems;
        mems := m :: !mems
      end)
    sb;
  List.sort compare !edges

(* (src, dst, lat) triples, the max latency per pair, sorted. *)
let max_per_pair triples =
  let best = Hashtbl.create 64 in
  List.iter
    (fun (s, d, lat) ->
      match Hashtbl.find_opt best (s, d) with
      | Some l when l >= lat -> ()
      | _ -> Hashtbl.replace best (s, d) lat)
    triples;
  List.sort compare (Hashtbl.fold (fun (s, d) l acc -> (s, d, l) :: acc) best [])

let ddg_corpus_tests =
  [
    test "Ddg.build edges = all-pairs reference on every segment" (fun () ->
      List.iter
        (fun (name, p) ->
          let live_at_target = Liveness.target_live (Liveness.Dense.of_prog p) in
          List.iter
            (fun (pre_env, insns) ->
              let sb =
                Sb.make ~head:"\000head" ~exit_lbl:"\000exit"
                  (Array.map (fun i -> Block.Ins i) insns)
              in
              let flow_mem = reference_flow_mem ~pre_env sb in
              (* The former builder's raw edges, tagged by kind: its
                 Flow/Mem multiset equals the all-pairs reference. *)
              let old =
                Pipe_edges_ref.build ~live_at_target:(fun i -> Some (live_at_target i)) ~pre_env sb
              in
              let raw =
                List.map
                  (fun e -> Pipe_edges_ref.(e.esrc, e.edst, e.kind, e.lat))
                  old.Pipe_edges_ref.edges
              in
              let is_flow_mem (_, _, k, _) = k = Pipe_edges_ref.Flow || k = Pipe_edges_ref.Mem in
              if List.sort compare (List.filter is_flow_mem raw) <> flow_mem then
                Alcotest.failf "%s: raw flow/mem edges differ from the reference" name;
              (* Deduplicated graph: the reference's flow/mem edges plus the
                 register-reuse and control edges, max latency per
                 (src, dst). *)
              let expect =
                max_per_pair
                  (List.map
                     (fun (s, d, _, l) -> (s, d, l))
                     (flow_mem @ List.filter (fun e -> not (is_flow_mem e)) raw))
              in
              let of_adj adj =
                List.sort compare
                  (List.concat
                     (Array.to_list
                        (Array.mapi (fun a l -> List.map (fun (b, lat) -> (a, b, lat)) l) adj)))
              in
              let g = Ddg.build ~live_at_target ~pre_env insns in
              if of_adj g.Ddg.succs <> expect then
                Alcotest.failf "%s: succs differ from the reference" name;
              (* One successor entry per pair. *)
              Array.iteri
                (fun a l ->
                  if List.length (List.sort_uniq compare (List.map fst l)) <> List.length l then
                    Alcotest.failf "%s: duplicate successor of %d" name a)
                g.Ddg.succs;
              (* The modulo builder's within-iteration edges are the same
                 Flow/Mem edges, max latency per pair. *)
              let within =
                List.filter_map
                  (fun (e : Ddg.edge) ->
                    if e.Ddg.dist = 0 then Some (e.Ddg.src, e.Ddg.dst, e.Ddg.lat) else None)
                  (Ddg.modulo_edges ~pre_env insns)
              in
              if within <> max_per_pair (List.map (fun (s, d, _, l) -> (s, d, l)) flow_mem) then
                Alcotest.failf "%s: modulo within-iteration edges differ from the reference" name)
            (segments p))
        (Lazy.force corpus));
  ]

let suite =
  [
    ("analysis.sb", sb_tests);
    ("analysis.dom", dom_tests);
    ("analysis.linval", linval_tests);
    ("analysis.linval.props", linval_props);
    ("analysis.liveness", liveness_tests);
    ("analysis.bits", bits_tests);
    ("analysis.ddg", ddg_tests);
    ("analysis.liveness.corpus", liveness_corpus_tests);
    ("analysis.liveness.masked", masked_liveness_tests);
    ("analysis.ddg.corpus", ddg_corpus_tests);
    ("analysis.classify", classify_tests);
  ]
