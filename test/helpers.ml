(* Shared helpers for the test suites: small program builders, run
   wrappers and output comparison. *)

open Impact_ir
open Impact_fir

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

(* Build a program context for hand-written IR tests. *)
type irb = {
  ctx : Prog.ctx;
  mutable arrays : Prog.adecl list;
  mutable outputs : (string * Reg.t) list;
}

let irb () = { ctx = Prog.make_ctx (); arrays = []; outputs = [] }

let reg b cls = Reg.fresh b.ctx.Prog.rgen cls

let float_array b name vals =
  b.arrays <-
    b.arrays
    @ [ { Prog.aname = name; acls = Reg.Float; asize = Array.length vals;
          ainit = Prog.FInit vals } ]

let int_array b name vals =
  b.arrays <-
    b.arrays
    @ [ { Prog.aname = name; acls = Reg.Int; asize = Array.length vals;
          ainit = Prog.IInit vals } ]

let output b name r = b.outputs <- b.outputs @ [ (name, r) ]

let insn_count (p : Prog.t) = List.length (Block.insns p.Prog.entry)

(* Structural equality of everything that matters semantically — op,
   destination, operands, target — ignoring the instruction id. *)
let equal_content (a : Insn.t) (b : Insn.t) =
  a.Insn.op = b.Insn.op
  && Option.equal Reg.equal a.Insn.dst b.Insn.dst
  && Option.equal String.equal a.Insn.target b.Insn.target
  && Array.length a.Insn.srcs = Array.length b.Insn.srcs
  && Array.for_all2 Operand.equal a.Insn.srcs b.Insn.srcs

(* The two programs' instruction lists are equal under [equal_content]
   (ids are ignored). *)
let insns_equal_prog (a : Prog.t) (b : Prog.t) =
  List.equal equal_content (Block.insns a.Prog.entry) (Block.insns b.Prog.entry)

let prog_of b entry : Prog.t =
  { Prog.arrays = b.arrays; entry; ctx = b.ctx; outputs = b.outputs }

(* Run on a machine; return the result. *)
let run ?fuel ?(machine = Machine.issue_1) p = Impact_sim.Sim.run ?fuel machine p

let out_int result name =
  match List.assoc name result.Impact_sim.Sim.outputs with
  | Impact_sim.Sim.VI n -> n
  | Impact_sim.Sim.VF _ -> Alcotest.failf "output %s is float" name

let out_flt result name =
  match List.assoc name result.Impact_sim.Sim.outputs with
  | Impact_sim.Sim.VF x -> x
  | Impact_sim.Sim.VI _ -> Alcotest.failf "output %s is int" name

let array_out result name = List.assoc name result.Impact_sim.Sim.arrays_out

(* Relative-tolerance float comparison: the expansion transformations
   reorder floating-point reductions, as in the paper. *)
let close ?(tol = 1e-6) a b =
  let d = abs_float (a -. b) in
  d <= tol *. (1.0 +. max (abs_float a) (abs_float b))

let check_close ?tol msg a b =
  if not (close ?tol a b) then Alcotest.failf "%s: %.12g vs %.12g" msg a b

(* Compare all observables of two simulation results. *)
let same_observables ?tol name (r1 : Impact_sim.Sim.result) (r2 : Impact_sim.Sim.result) =
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      check_string (name ^ ": output name") n1 n2;
      match v1, v2 with
      | Impact_sim.Sim.VI a, Impact_sim.Sim.VI b ->
        check_int (name ^ ": output " ^ n1) a b
      | Impact_sim.Sim.VF a, Impact_sim.Sim.VF b ->
        check_close ?tol (name ^ ": output " ^ n1) a b
      | _ -> Alcotest.failf "%s: output %s class mismatch" name n1)
    r1.Impact_sim.Sim.outputs r2.Impact_sim.Sim.outputs;
  List.iter2
    (fun (n1, a1) (n2, a2) ->
      check_string (name ^ ": array name") n1 n2;
      Array.iteri
        (fun k x ->
          if not (close ?tol x a2.(k)) then
            Alcotest.failf "%s: array %s[%d]: %.12g vs %.12g" name n1 k x a2.(k))
        a1)
    r1.Impact_sim.Sim.arrays_out r2.Impact_sim.Sim.arrays_out

(* Slot conservation of a profiled run on either core: every slot of
   every cycle is filled or charged to exactly one cause the machine's
   core can charge, and the ILP histogram and the per-instruction counts
   partition the run. *)
let check_profile name (machine : Machine.t) (r : Impact_sim.Sim.result)
    (p : Impact_sim.Sim.profile) =
  let module Sim = Impact_sim.Sim in
  check_int (name ^ ": p_issue") machine.Machine.issue p.Sim.p_issue;
  check_int (name ^ ": p_cycles") r.Sim.cycles p.Sim.p_cycles;
  check_int (name ^ ": filled slots = dyn insns") r.Sim.dyn_insns p.Sim.p_filled;
  (* The acceptance invariant: causes sum to cycles*issue - dyn. *)
  check_int
    (name ^ ": causes sum to empty slots")
    ((r.Sim.cycles * machine.Machine.issue) - r.Sim.dyn_insns)
    (Sim.classified_slots p);
  check_int (name ^ ": empty_slots consistent") (Sim.empty_slots p) (Sim.classified_slots p);
  (* ILP histogram: one bucket per executed cycle, weighted sum = dyn. *)
  check_int (name ^ ": ilp buckets sum to cycles") r.Sim.cycles
    (Array.fold_left ( + ) 0 p.Sim.p_ilp);
  let weighted = ref 0 in
  Array.iteri (fun k n -> weighted := !weighted + (k * n)) p.Sim.p_ilp;
  check_int (name ^ ": ilp weighted sum = dyn") r.Sim.dyn_insns !weighted;
  (* Per-instruction counts partition the dynamic stream. *)
  check_int (name ^ ": insn counts sum to dyn") r.Sim.dyn_insns
    (Array.fold_left (fun acc (_, n) -> acc + n) 0 p.Sim.p_insn_counts);
  match machine.Machine.core with
  | Machine.Inorder ->
    List.iter
      (fun (c, n) ->
        match c with
        | Sim.Interlock lat ->
          check_bool (name ^ ": interlock rows positive") true (lat >= 1 && n > 0)
        | Sim.Branch_limit | Sim.Redirect | Sim.Drain -> ()
        | Sim.Rob_full | Sim.Rs_wait | Sim.No_phys ->
          Alcotest.failf "%s: window cause on the in-order core" name)
      p.Sim.p_stalls;
    check_bool (name ^ ": no reorder buffer") true (p.Sim.p_max_rob = None)
  | Machine.Ooo { rob; _ } ->
    check_bool (name ^ ": no interlock rows") true
      (List.for_all (function Sim.Interlock _, _ -> false | _ -> true) p.Sim.p_stalls);
    check_bool (name ^ ": rob occupancy within bound") true
      (match p.Sim.p_max_rob with
      | Some m -> m >= min 1 r.Sim.dyn_insns && m <= rob
      | None -> false)

(* Lower a mini-Fortran program. *)
let lower = Lower.lower

(* Transform then schedule a program: the compile pipeline short of
   measurement. *)
let compile opts level machine p =
  let open Impact_core.Compile in
  fst (schedule_with opts machine (transform_with opts level p))

(* Measure a program at a level/machine. *)
let measure ?unroll_factor ?fuel level machine (ast : Ast.program) =
  Impact_core.Compile.measure_with
    (Impact_core.Opts.make ?unroll:unroll_factor ?fuel ()) level machine (lower ast)

(* Check that every level produces the same observables as Conv at
   issue-1 for the given program. *)
let check_levels_preserve ?tol ?unroll_factor name (ast : Ast.program) =
  let base = measure Impact_core.Level.Conv Machine.issue_1 ast in
  List.iter
    (fun lev ->
      List.iter
        (fun machine ->
          let m = measure ?unroll_factor lev machine ast in
          same_observables ?tol
            (Printf.sprintf "%s/%s/%s" name (Impact_core.Level.to_string lev)
               machine.Machine.name)
            base.Impact_core.Compile.result m.Impact_core.Compile.result)
        [ Machine.issue_1; Machine.issue_4; Machine.issue_8 ])
    Impact_core.Level.all

(* [level]'s pipeline on [p], one step at a time, with the "conv" entry
   opened up into the steps of [Conv.passes]. After every step the
   program runs on the issue-1 machine and must match the reference
   interpreter on [p] itself (floats within 1e-6 relative), and must not
   trap, so a miscompile fails naming its pass: "<name>/Lev3/strength",
   "<name>/Lev1/conv.licm". Returns the last step's program. *)
let check_each_pass ?unroll_factor name level (p : Prog.t) : Prog.t =
  let want = Impact_sim.Sim.run_ref Machine.issue_1 p in
  let steps =
    List.concat_map
      (fun ((pass, _) as e) ->
        if pass = "conv" then
          List.map (fun (step, f) -> ("conv." ^ step, f)) Impact_opt.Conv.passes
        else [ e ])
      (Impact_core.Level.pipeline ?unroll_factor level)
  in
  List.fold_left
    (fun p (step, f) ->
      let p = f p in
      let where = Printf.sprintf "%s/%s/%s" name (Impact_core.Level.to_string level) step in
      (match run p with
      | got -> same_observables where want got
      | exception e -> Alcotest.failf "%s: %s" where (Printexc.to_string e));
      p)
    p steps

(* A deterministic pseudo-random array initializer. *)
let pseudo seed k =
  let x = (k + seed) * 2654435761 land 0xFFFFFF in
  float_of_int (x mod 1000) /. 250.0

(* Classic kernels used across suites. *)

let vecadd_ast n =
  let open Ast_build in
  {
    decls =
      [
        scalar "j" TInt;
        array1 "A" TReal n (pseudo 1);
        array1 "B" TReal n (pseudo 2);
        array1 "C" TReal n (fun _ -> 0.0);
      ];
    stmts =
      [ do_ "j" (i 1) (i n) [ astore "C" [ v "j" ] (idx "A" [ v "j" ] +: idx "B" [ v "j" ]) ] ];
    outs = [];
  }

let dotprod_ast n =
  let open Ast_build in
  {
    decls =
      [
        scalar "j" TInt;
        scalar "s" TReal;
        array1 "A" TReal n (pseudo 3);
        array1 "B" TReal n (pseudo 4);
      ];
    stmts =
      [
        assign "s" (r 0.0);
        do_ "j" (i 1) (i n)
          [ assign "s" (v "s" +: (idx "A" [ v "j" ] *: idx "B" [ v "j" ])) ];
      ];
    outs = [ "s" ];
  }

let maxval_ast n =
  let open Ast_build in
  {
    decls = [ scalar "j" TInt; scalar "mx" TReal ~init:(-1e30); array1 "A" TReal n (pseudo 5) ];
    stmts =
      [
        do_ "j" (i 1) (i n)
          [ if_ CGt (idx "A" [ v "j" ]) (v "mx") [ assign "mx" (idx "A" [ v "j" ]) ] [] ];
      ];
    outs = [ "mx" ];
  }

let recurrence_ast n =
  let open Ast_build in
  {
    decls = [ scalar "j" TInt; array1 "A" TReal (n + 1) (pseudo 6) ];
    stmts =
      [
        do_ "j" (i 1) (i n)
          [ astore "A" [ v "j" +: i 1 ] ((idx "A" [ v "j" ] *: r 0.5) +: r 1.0) ];
      ];
    outs = [];
  }
