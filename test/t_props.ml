(* Property-based tests (qcheck): randomized programs checked for
   semantic preservation across the optimizer, the transformations, the
   scheduler and the whole level pipeline, plus analysis-vs-execution
   agreement for the symbolic value engine. *)

open Impact_ir
open Helpers

let to_alcotest = QCheck_alcotest.to_alcotest

(* ---- random straight-line integer programs ---- *)

type iop_pick = Insn.ibin * int (* op, constant operand *)

let gen_iop : iop_pick QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun c -> (Insn.Add, c)) (int_range (-50) 50);
        map (fun c -> (Insn.Sub, c)) (int_range (-50) 50);
        map (fun c -> (Insn.Mul, c)) (int_range (-6) 6);
        map (fun c -> (Insn.Div, c)) (oneofl [ 1; 2; 3; 5; 7 ]);
        map (fun c -> (Insn.Rem, c)) (oneofl [ 2; 3; 5; 9 ]);
        map (fun c -> (Insn.Shl, c)) (int_range 0 4);
        map (fun c -> (Insn.Shr, c)) (int_range 0 4);
        map (fun c -> (Insn.And, c)) (int_range 0 255);
        map (fun c -> (Insn.Or, c)) (int_range 0 255);
        map (fun c -> (Insn.Xor, c)) (int_range 0 255);
      ])

(* (seed values, op list, operand selector list) *)
let gen_straightline =
  QCheck.Gen.(
    triple
      (list_size (int_range 2 4) (int_range (-100) 100))
      (list_size (int_range 1 25) gen_iop)
      (list_size (int_range 1 25) (int_range 0 1000)))

let build_straightline (seeds, ops, picks) =
  let b = irb () in
  int_array b "S" (Array.of_list seeds);
  let ctx = b.ctx in
  let avail = ref [] in
  let items = ref [] in
  List.iteri
    (fun k _ ->
      let r = reg b Reg.Int in
      items := Block.Ins (Build.load ctx Reg.Int r (Operand.Lab "S") (Operand.Int (4 * k))) :: !items;
      avail := r :: !avail)
    seeds;
  List.iteri
    (fun k (op, c) ->
      let pick = List.nth picks (k mod List.length picks) in
      let src = List.nth !avail (pick mod List.length !avail) in
      let d = reg b Reg.Int in
      items := Block.Ins (Build.ib ctx op d (Operand.Reg src) (Operand.Int c)) :: !items;
      avail := d :: !avail)
    ops;
  (* Sum everything so every definition is observable. *)
  let total = reg b Reg.Int in
  items := Block.Ins (Build.imov ctx total (Operand.Int 0)) :: !items;
  List.iter
    (fun r ->
      items :=
        Block.Ins (Build.ib ctx Insn.Add total (Operand.Reg total) (Operand.Reg r))
        :: !items)
    !avail;
  output b "x" total;
  prog_of b (List.rev !items)

let prop_cleanup_straightline =
  QCheck.Test.make ~name:"optimizer cleanup preserves straight-line programs"
    ~count:150
    (QCheck.make gen_straightline)
    (fun spec ->
      let p = build_straightline spec in
      let before = run p in
      let after = run (Impact_opt.Conv.cleanup p) in
      out_int before "x" = out_int after "x")

let prop_sched_straightline =
  QCheck.Test.make ~name:"scheduling preserves straight-line programs" ~count:100
    (QCheck.make gen_straightline)
    (fun spec ->
      let p = build_straightline spec in
      let before = run p in
      let p' = Impact_sched.List_sched.run Machine.issue_4 (Impact_sched.Superblock.run p) in
      out_int before "x" = out_int (run ~machine:Machine.issue_4 p') "x")

(* ---- random floating-point expression trees ---- *)

type ftree = Leaf of int | Node of Insn.fbin * ftree * ftree

let gen_ftree =
  QCheck.Gen.(
    sized_size (int_range 1 24) @@ fix (fun self n ->
      if n <= 1 then map (fun k -> Leaf k) (int_range 0 7)
      else
        oneof
          [
            map (fun k -> Leaf k) (int_range 0 7);
            map3
              (fun op l r -> Node (op, l, r))
              (oneofl [ Insn.Fadd; Insn.Fsub; Insn.Fmul ])
              (self (n / 2)) (self (n / 2));
            (* divide only by leaves, keeping values well-conditioned *)
            map2 (fun l k -> Node (Insn.Fdiv, l, Leaf k)) (self (n / 2)) (int_range 0 7);
          ]))

let leaf_val k = 0.5 +. (float_of_int k /. 3.0)

let build_ftree tree =
  let b = irb () in
  float_array b "V" (Array.init 8 leaf_val);
  let ctx = b.ctx in
  let items = ref [] in
  let leaf_regs = Hashtbl.create 8 in
  let leaf k =
    match Hashtbl.find_opt leaf_regs k with
    | Some r -> r
    | None ->
      let r = reg b Reg.Float in
      items := Block.Ins (Build.load ctx Reg.Float r (Operand.Lab "V") (Operand.Int (4 * k))) :: !items;
      Hashtbl.replace leaf_regs k r;
      r
  in
  let rec go = function
    | Leaf k -> leaf k
    | Node (op, l, r) ->
      let rl = go l in
      let rr = go r in
      let d = reg b Reg.Float in
      items := Block.Ins (Build.fb ctx op d (Operand.Reg rl) (Operand.Reg rr)) :: !items;
      d
  in
  let root = go tree in
  output b "a" root;
  prog_of b (List.rev !items)

let rec eval_ftree = function
  | Leaf k -> leaf_val k
  | Node (op, l, r) -> Insn.eval_fbin op (eval_ftree l) (eval_ftree r)

(* Largest intermediate magnitude: bounds the reassociation error. *)
let rec max_mag = function
  | Leaf k -> abs_float (leaf_val k)
  | Node (op, l, r) ->
    let v = abs_float (Insn.eval_fbin op (eval_ftree l) (eval_ftree r)) in
    max v (max (max_mag l) (max_mag r))

let prop_thr_tree =
  QCheck.Test.make ~name:"tree height reduction preserves expression values"
    ~count:200
    (QCheck.make gen_ftree)
    (fun tree ->
      let reference = eval_ftree tree in
      let mag = max_mag tree in
      (* Skip numerically degenerate trees (overflow or non-finite
         intermediates); reassociation error scales with the largest
         intermediate. *)
      QCheck.assume (Float.is_finite mag && mag < 1e9);
      let p = build_ftree tree in
      let before = run p in
      let p' = Impact_opt.Conv.cleanup (Impact_core.Tree_height.run p) in
      let after = run p' in
      let tol = 1e-10 *. (1.0 +. mag) in
      close ~tol (out_flt before "a") reference
      && close ~tol (out_flt after "a") reference
      && after.Impact_sim.Sim.cycles <= before.Impact_sim.Sim.cycles)

(* ---- random loop kernels through the whole pipeline ---- *)

(* [IntArith (op, c, on_k)]: t = t + (K(j) op c), or (j op c) when not
   [on_k]; FIR has no shift operator, so multiplies and divides by
   powers of two are the shifts by literals ([Strength] turns the
   multiplies into shifts). [ImmStore c]: L(j) = c, an integer literal
   stored to an int array; [FltImmStore c]: C(j) = c, to a real array.
   [FltIntLit c]: s = s + A(j) * c, an integer literal in float
   arithmetic. *)
type stmt_pick =
  | Elementwise of int
  | Accum of int
  | Search
  | Guarded of int
  | Recur
  | IntArith of Impact_fir.Ast.binop * int * bool
  | ImmStore of int
  | FltImmStore of int
  | FltIntLit of int

(* Integer arithmetic by constants: 0, 1, powers of two, odd constants
   and negatives; divisors are never zero. *)
let gen_int_arith =
  QCheck.Gen.(
    map2
      (fun (op, c) on_k -> IntArith (op, c, on_k))
      (oneof
         [
           map (fun c -> (Impact_fir.Ast.BMul, c))
             (oneofl [ 0; 1; 2; 3; 4; 5; 7; 8; 10; 16; 31; -1; -2; -3; -4; -8 ]);
           map (fun c -> (Impact_fir.Ast.BDiv, c)) (oneofl [ 1; 2; 3; 4; 7; 8; -1; -2; -4 ]);
           map (fun c -> (Impact_fir.Ast.BRem, c)) (oneofl [ 1; 2; 3; 4; 8; -3; -4 ]);
         ])
      bool)

let kernel_of picks =
  QCheck.Gen.(triple (int_range 1 40) (list_size (int_range 1 5) (oneof picks)) (int_range 0 1000))

let float_picks =
  QCheck.Gen.
    [
      map (fun c -> Elementwise c) (int_range 0 5);
      map (fun c -> Accum c) (int_range 0 5);
      return Search;
      map (fun c -> Guarded c) (int_range 0 3);
      return Recur;
    ]

let gen_kernel =
  kernel_of
    (float_picks
    @ QCheck.Gen.
        [
          gen_int_arith;
          gen_int_arith;
          map (fun c -> ImmStore c) (int_range (-9) 9);
          map (fun c -> FltImmStore c) (int_range (-9) 9);
          map (fun c -> FltIntLit c) (int_range (-3) 5);
        ])

(* Without integer arithmetic by constants: on those kernels the
   one-sweep cleanup and the old reference round can keep different but
   equivalent instructions (examples/kernels/cse_order.f, whose sweep
   output t_opt pins), so the instruction-equality property against the
   reference keeps to these. *)
let gen_float_kernel = kernel_of float_picks

(* A kernel spec as text, so a failing property shows the kernel. *)
let print_kernel (n, stmts, seed) =
  let op = function
    | Impact_fir.Ast.BAdd -> "+"
    | BSub -> "-"
    | BMul -> "*"
    | BDiv -> "/"
    | BRem -> "mod"
  in
  let pick = function
    | Elementwise c -> Printf.sprintf "Elementwise %d" c
    | Accum c -> Printf.sprintf "Accum %d" c
    | Search -> "Search"
    | Guarded c -> Printf.sprintf "Guarded %d" c
    | Recur -> "Recur"
    | IntArith (o, c, on_k) -> Printf.sprintf "IntArith (%s, %d, %s)" (op o) c (if on_k then "K(j)" else "j")
    | ImmStore c -> Printf.sprintf "ImmStore %d" c
    | FltImmStore c -> Printf.sprintf "FltImmStore %d" c
    | FltIntLit c -> Printf.sprintf "FltIntLit %d" c
  in
  Printf.sprintf "n = %d, seed = %d: [%s]" n seed (String.concat "; " (List.map pick stmts))

let arb_kernel = QCheck.make ~print:print_kernel gen_kernel

let build_kernel (n, stmts, seed) =
  let open Ast_build in
  let body =
    List.mapi
      (fun k s ->
        match s with
        | Elementwise c ->
          astore "C" [ v "j" ]
            ((idx "A" [ v "j" ] *: r (const c)) +: idx "B" [ v "j" ])
        | Accum c -> assign "s" (v "s" +: (idx "A" [ v "j" ] *: r (const c)))
        | Search ->
          if_ CGt (idx "B" [ v "j" ]) (v "mx") [ assign "mx" (idx "B" [ v "j" ]) ] []
        | Guarded c ->
          if_ CGt (idx "A" [ v "j" ]) (r (const c))
            [ astore "D" [ v "j" ] (idx "A" [ v "j" ] -: r (const c)) ]
            []
        | Recur ->
          ignore k;
          astore "E" [ v "j" +: i 2 ] ((idx "E" [ v "j" ] *: r 0.5) +: idx "A" [ v "j" ])
        | IntArith (op, c, on_k) ->
          let x = if on_k then idx "K" [ v "j" ] else v "j" in
          assign "t" (v "t" +: EBin (op, x, i c))
        | ImmStore c -> astore "L" [ v "j" ] (i c)
        | FltImmStore c -> astore "C" [ v "j" ] (i c)
        | FltIntLit c -> assign "s" (v "s" +: (idx "A" [ v "j" ] *: i c)))
      stmts
  in
  {
    decls =
      [
        scalar "j" TInt; scalar "s" TReal; scalar "mx" TReal ~init:(-1e30); scalar "t" TInt;
        array1 "A" TReal (n + 8) (seed_init (seed + 1));
        array1 "B" TReal (n + 8) (seed_init (seed + 2));
        array1 "C" TReal (n + 8) (fun _ -> 0.0);
        array1 "D" TReal (n + 8) (fun _ -> 0.0);
        array1 "E" TReal (n + 8) (seed_init (seed + 3));
        (* integers in [-20, 20] *)
        array1 "K" TInt (n + 8) (fun k -> float_of_int ((((k + seed) * 7919) land 0xFFFF) mod 41 - 20));
        array1 "L" TInt (n + 8) (fun _ -> 0.0);
      ];
    stmts = [ assign "s" (r 0.0); do_ "j" (i 1) (i n) body ];
    outs = [ "s"; "mx"; "t" ];
  }

let prop_lev4_kernels =
  QCheck.Test.make ~name:"Lev4 at issue-8 preserves random loop kernels" ~count:120
    arb_kernel
    (fun spec ->
      let ast = build_kernel spec in
      let base = run (lower ast) in
      let m = measure Impact_core.Level.Lev4 Machine.issue_8 ast in
      (try
         same_observables "prop" base m.Impact_core.Compile.result;
         true
       with _ -> false))

let prop_unroll_factors =
  QCheck.Test.make ~name:"every unroll factor preserves random kernels" ~count:60
    (QCheck.make QCheck.Gen.(triple (int_range 1 33) (int_range 2 8) (int_range 0 1000)))
    (fun (n, factor, seed) ->
      let ast = build_kernel (n, [ Accum (seed mod 6); Elementwise (seed mod 4) ], seed) in
      let base = run (lower ast) in
      let m = measure ~unroll_factor:factor Impact_core.Level.Lev4 Machine.issue_4 ast in
      (try
         same_observables "prop" base m.Impact_core.Compile.result;
         true
       with _ -> false))

(* Every step of every level's pipeline keeps a random kernel's
   outputs ([Helpers.check_each_pass]); a failure names the pass. *)
let prop_each_pass_kernels =
  QCheck.Test.make ~name:"every pass preserves random kernels at every level" ~count:100
    arb_kernel
    (fun spec ->
      let ast = build_kernel spec in
      List.iter
        (fun level ->
          try ignore (check_each_pass "kernel" level (lower ast))
          with e -> QCheck.Test.fail_report (Printexc.to_string e))
        Impact_core.Level.all;
      true)

(* ---- Slot accounting on random kernels ----

   A random kernel at a random level, on the in-order core or a ROB-32
   OOO core of issue 2/4/8, list-scheduled or software-pipelined: the
   profiled run conserves slots and returns [Sim.run]'s result. *)

let prop_profile_kernels =
  QCheck.Test.make ~name:"profiled runs conserve slots and equal Sim.run on random kernels"
    ~count:80
    (QCheck.make ~print:(fun (spec, _) -> print_kernel spec)
       QCheck.Gen.(
         pair gen_kernel
           (quad (oneofl Impact_core.Level.all) bool (oneofl [ 2; 4; 8 ])
              (oneofl [ `List; `Pipe ]))))
    (fun (spec, (level, ooo, issue, sched)) ->
      let machine = if ooo then Machine.ooo ~issue ~rob:32 () else Machine.make ~issue () in
      let p =
        Helpers.compile (Impact_core.Opts.make ~sched ()) level machine
          (lower (build_kernel spec))
      in
      let r, prof = Impact_sim.Sim.run_profiled machine p in
      check_profile
        (Printf.sprintf "%s on %s" (Impact_core.Level.to_string level) machine.Machine.name)
        machine r prof;
      compare r (Impact_sim.Sim.run machine p) = 0)

(* ---- DCE against the reference on random programs ----

   The program itself and every cleanup-round input of its Lev4 replay
   (see [Dce_ref.cleanup_inputs]). *)

let dce_agrees (p : Prog.t) =
  let inputs = p :: fst (Dce_ref.cleanup_inputs Impact_core.Level.Lev4 p) in
  List.for_all (fun q -> Dce_ref.disagreement q = None) inputs

let prop_dce_kernels =
  QCheck.Test.make ~name:"DCE = reference DCE on random kernels' cleanup inputs" ~count:60
    arb_kernel
    (fun spec -> dce_agrees (lower (build_kernel spec)))

let prop_dce_straightline =
  QCheck.Test.make ~name:"DCE = reference DCE on straight-line cleanup inputs" ~count:100
    (QCheck.make gen_straightline)
    (fun spec -> dce_agrees (build_straightline spec))

(* ---- block liveness against the reference on random kernels ----

   The lowered kernel and its transformed program at every level, with
   per-position sets rebuilt through [Liveness.Dense.walk]. *)

let prop_liveness_kernels =
  QCheck.Test.make ~name:"block liveness = reference liveness on random kernels at every level"
    ~count:40 arb_kernel
    (fun spec ->
      let p = lower (build_kernel spec) in
      Liveness_ref.dense_agrees p
      && List.for_all
           (fun level ->
             Liveness_ref.dense_agrees
               (Impact_core.Compile.transform_with Impact_core.Opts.default level p))
           Impact_core.Level.all)

(* ---- one cleanup sweep is the contract ----

   On every cleanup input of a random kernel at every level, one
   [Conv.cleanup] equals the same sweep iterated to its fixpoint. Then
   [Conv.cleanup] against [Cleanup_ref]'s old round iterated with no
   cap: instruction for instruction on straight-line programs and on
   the Lev4 cleanup inputs of kernels without integer arithmetic by
   constants, and by simulated outputs on every random kernel. *)

let sweep_is_fixpoint (p : Prog.t) =
  match Cleanup_ref.fixpoint ~max_rounds:6 Impact_opt.Conv.cleanup p with
  | q, Cleanup_ref.Converged _ -> Helpers.insns_equal_prog (Impact_opt.Conv.cleanup p) q
  | _, Cleanup_ref.Capped -> false

let prop_cleanup_one_sweep =
  QCheck.Test.make ~name:"one cleanup sweep = its fixpoint on random kernels' cleanup inputs"
    ~count:60 arb_kernel
    (fun spec ->
      let ast = build_kernel spec in
      List.for_all
        (fun level -> List.for_all sweep_is_fixpoint (Cleanup_ref.inputs level (lower ast)))
        Impact_core.Level.all)

let cleanup_is_ref_fixpoint (p : Prog.t) =
  Helpers.insns_equal_prog (Impact_opt.Conv.cleanup p)
    (fst (Cleanup_ref.fixpoint_uncapped p))

let prop_cleanup_ref_straightline =
  QCheck.Test.make ~name:"cleanup = reference fixpoint on straight-line programs" ~count:300
    (QCheck.make gen_straightline)
    (fun spec -> cleanup_is_ref_fixpoint (build_straightline spec))

let prop_cleanup_ref_kernels =
  QCheck.Test.make ~name:"cleanup = reference fixpoint on random kernels' cleanup inputs"
    ~count:60 (QCheck.make ~print:print_kernel gen_float_kernel)
    (fun spec ->
      List.for_all cleanup_is_ref_fixpoint
        (Cleanup_ref.inputs Impact_core.Level.Lev4 (lower (build_kernel spec))))

let outputs (p : Prog.t) = (Impact_sim.Sim.run Machine.issue_1 p).Impact_sim.Sim.outputs

let prop_cleanup_ref_values =
  QCheck.Test.make
    ~name:"cleanup and reference fixpoint compute the same outputs on random kernels"
    ~count:60 arb_kernel
    (fun spec ->
      List.for_all
        (fun p ->
          compare (outputs (Impact_opt.Conv.cleanup p))
            (outputs (fst (Cleanup_ref.fixpoint_uncapped p)))
          = 0)
        (Cleanup_ref.inputs Impact_core.Level.Lev4 (lower (build_kernel spec))))

(* ---- symbolic values agree with execution ---- *)

let prop_linval_agrees =
  QCheck.Test.make ~name:"linear symbolic values agree with concrete execution"
    ~count:150
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 2 3) (int_range (-20) 20))
           (list_size (int_range 1 12)
              (pair (oneofl [ `Add; `Sub; `MulC; `Shl ]) (int_range 0 9)))))
    (fun (seeds, ops) ->
      (* Build affine code over loaded seeds; check that evaluating the
         final symbolic value over the concrete seed values matches the
         simulator. *)
      let b = irb () in
      int_array b "S" (Array.of_list seeds);
      let ctx = b.ctx in
      let items = ref [] in
      let seed_regs =
        List.mapi
          (fun k _ ->
            let r = reg b Reg.Int in
            items :=
              Block.Ins (Build.load ctx Reg.Int r (Operand.Lab "S") (Operand.Int (4 * k)))
              :: !items;
            r)
          seeds
      in
      let cur = ref (List.hd seed_regs) in
      List.iter
        (fun (op, c) ->
          let d = reg b Reg.Int in
          let other = List.nth seed_regs (c mod List.length seed_regs) in
          let insn =
            match op with
            | `Add -> Build.ib ctx Insn.Add d (Operand.Reg !cur) (Operand.Reg other)
            | `Sub -> Build.ib ctx Insn.Sub d (Operand.Reg !cur) (Operand.Reg other)
            | `MulC -> Build.ib ctx Insn.Mul d (Operand.Reg !cur) (Operand.Int (c - 4))
            | `Shl -> Build.ib ctx Insn.Shl d (Operand.Reg !cur) (Operand.Int (c mod 3))
          in
          items := Block.Ins insn :: !items;
          cur := d)
        ops;
      output b "x" !cur;
      let p = prog_of b (List.rev !items) in
      let result = run p in
      (* Analyze the same code as a segment. *)
      let sb =
        Impact_analysis.Sb.make ~head:"\000h" ~exit_lbl:"\000x"
          (Array.of_list (List.rev !items))
      in
      let lv = Impact_analysis.Linval.analyze sb in
      let last_pos = Impact_analysis.Sb.length sb - 1 in
      match Impact_analysis.Linval.result lv last_pos with
      | None -> true (* opaque results are allowed, just not wrong *)
      | Some lin ->
        (* Evaluate the linear value: loads are opaque keys identified by
           instruction id; map each to its loaded seed. *)
        let load_values = Hashtbl.create 8 in
        List.iteri
          (fun k item ->
            match item with
            | Block.Ins i when Insn.is_load i ->
              ignore k;
              let idx =
                match Insn.mem_addr i with
                | Some (_, _, _) -> (
                  match i.Insn.srcs.(1) with Operand.Int o -> o / 4 | _ -> 0)
                | None -> 0
              in
              Hashtbl.replace load_values i.Insn.id (List.nth seeds idx)
            | _ -> ())
          (List.rev !items);
        let value =
          List.fold_left
            (fun acc (key, coeff) ->
              match key with
              | Impact_analysis.Linval.Key.KOpq id when Hashtbl.mem load_values id ->
                acc + (coeff * Hashtbl.find load_values id)
              | _ -> acc)
            lin.Impact_analysis.Linval.c
            (Impact_analysis.Linval.terms lin)
        in
        value = out_int result "x")

(* ---- the ranked list scheduler against the rescanning reference ---- *)

let prop_list_sched_kernels =
  QCheck.Test.make ~name:"list schedule = rescanning reference on random kernels at every level"
    ~count:40 arb_kernel
    (fun spec ->
      let p = lower (build_kernel spec) in
      List.for_all
        (fun level ->
          List_sched_ref.mismatches
            (Impact_core.Compile.transform_with Impact_core.Opts.default level p)
          = [])
        Impact_core.Level.all)

let suite =
  [
    ( "properties",
      List.map
        (fun t -> to_alcotest ~rand:(Random.State.make [| 0x5C92 |]) t)
        [
          prop_cleanup_straightline;
          prop_sched_straightline;
          prop_thr_tree;
          prop_lev4_kernels;
          prop_unroll_factors;
          prop_each_pass_kernels;
          prop_profile_kernels;
          prop_dce_kernels;
          prop_dce_straightline;
          prop_cleanup_one_sweep;
          prop_cleanup_ref_straightline;
          prop_cleanup_ref_kernels;
          prop_cleanup_ref_values;
          prop_linval_agrees;
          prop_liveness_kernels;
          prop_list_sched_kernels;
        ] );
  ]
