(* Conformance and conservation tests for the out-of-order core
   ([Sim.Ooo], exported as [Impact_ooo.Ooo]). The OOO model is
   trace-driven — instructions execute functionally at dispatch in
   program order — so its architectural results must be *bit-identical*
   to the in-order simulator on the same scheduled program, for any
   reorder-buffer or physical-register size.
   The profiled runs must also account for every dispatch slot:
   dispatched + attributed empty slots = cycles x issue, exactly. And
   the per-instruction timing must reproduce the cycle-stepped reference
   core (test/ooo_ref.ml) in every result and profile field. *)

open Impact_ir
open Impact_core
module Sim = Impact_sim.Sim
module Ooo = Impact_ooo.Ooo

let subjects = Impact_workloads.Suite.all

let lower (w : Impact_workloads.Suite.t) =
  Impact_fir.Lower.lower w.Impact_workloads.Suite.ast

(* Exact architectural equality: outputs, final array contents and the
   dynamic instruction count, compared bit-for-bit (floats included —
   both simulators execute the same operations in the same program
   order). *)
let same_arch (a : Sim.result) (b : Sim.result) =
  a.Sim.outputs = b.Sim.outputs
  && a.Sim.arrays_out = b.Sim.arrays_out
  && a.Sim.dyn_insns = b.Sim.dyn_insns

(* (OOO machine, in-order machine of the same width) pairs: rob=1 is
   the degenerate one-in-flight core, the others exercise a realistic
   window and a register-starved one. *)
let machine_pairs =
  [
    (Machine.ooo ~issue:4 ~rob:1 (), Machine.make ~issue:4 ());
    (Machine.ooo ~issue:8 ~rob:32 (), Machine.make ~issue:8 ());
    (Machine.ooo ~phys_regs:6 ~issue:8 ~rob:64 (), Machine.make ~issue:8 ());
  ]

let test_conformance_all_kernels () =
  List.iter
    (fun (w : Impact_workloads.Suite.t) ->
      List.iter
        (fun level ->
          List.iter
            (fun (om, im) ->
              let p = Helpers.compile Opts.default level om (lower w) in
              let inorder = Sim.run im p in
              let ooo = Ooo.run om p in
              if not (same_arch inorder ooo) then
                Alcotest.failf "%s at %s on %s: architectural mismatch vs %s"
                  w.Impact_workloads.Suite.name (Level.to_string level)
                  om.Machine.name im.Machine.name)
            machine_pairs)
        Level.all)
    subjects

let test_rob1_deterministic () =
  let m = Machine.ooo ~issue:4 ~rob:1 () in
  List.iter
    (fun name ->
      let w = Option.get (Impact_workloads.Suite.find name) in
      let p = Helpers.compile Opts.default Level.Lev4 m (lower w) in
      let a = Ooo.run m p in
      let b = Ooo.run m p in
      Alcotest.(check int) (name ^ " cycles deterministic") a.Sim.cycles b.Sim.cycles;
      Helpers.check_bool (name ^ " results deterministic") true (same_arch a b);
      (* One instruction in flight can never beat the interlocked
         in-order pipeline of the same width. *)
      let inorder = Sim.run (Machine.make ~issue:4 ()) p in
      Helpers.check_bool (name ^ " rob=1 no faster than in-order") true
        (a.Sim.cycles >= inorder.Sim.cycles))
    [ "add"; "dotprod"; "sum"; "SRS-5" ]

(* Dispatch-slot conservation, by the same ledger checks t_obs runs on
   the in-order core, on a kernel x level x machine grid, including a
   severely register-starved configuration. *)
let test_conservation () =
  let machines =
    [
      Machine.ooo ~issue:8 ~rob:8 ();
      Machine.ooo ~issue:8 ~rob:32 ();
      Machine.ooo ~issue:4 ~rob:128 ();
      Machine.ooo ~phys_regs:4 ~issue:8 ~rob:32 ();
      Machine.ooo ~issue:2 ~rob:1 ();
    ]
  in
  List.iter
    (fun name ->
      let w = Option.get (Impact_workloads.Suite.find name) in
      List.iter
        (fun level ->
          List.iter
            (fun m ->
              let p = Helpers.compile Opts.default level m (lower w) in
              let r, prof = Sim.run_profiled m p in
              let where =
                Printf.sprintf "%s %s %s" name (Level.to_string level)
                  m.Machine.name
              in
              Helpers.check_profile where m r prof;
              Alcotest.(check int)
                (where ^ ": profiled cycles match plain run")
                (Ooo.run m p).Sim.cycles r.Sim.cycles)
            machines)
        [ Level.Conv; Level.Lev2; Level.Lev4 ])
    [ "add"; "dotprod"; "NAS-1"; "SRS-5" ]

(* Larger windows never slow a program down: cycles are monotonically
   non-increasing in the reorder-buffer size (everything else fixed). *)
let test_rob_monotone () =
  List.iter
    (fun name ->
      let w = Option.get (Impact_workloads.Suite.find name) in
      let cycles rob =
        let m = Machine.ooo ~issue:8 ~rob () in
        (Ooo.run m (Helpers.compile Opts.default Level.Lev2 m (lower w)))
          .Sim.cycles
      in
      let cs = List.map cycles [ 1; 4; 16; 64; 256 ] in
      let rec mono = function
        | a :: (b :: _ as rest) -> a >= b && mono rest
        | _ -> true
      in
      Helpers.check_bool (name ^ " cycles monotone in rob size") true (mono cs))
    [ "add"; "dotprod" ]

let test_run_rejects_inorder () =
  let w = Option.get (Impact_workloads.Suite.find "add") in
  let m = Machine.make ~issue:4 () in
  let p = Helpers.compile Opts.default Level.Conv m (lower w) in
  match Ooo.run m p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Ooo.run accepted an in-order machine"

(* [Sim.run] and [Sim.run_profiled] simulate the machine's own core: on
   an OOO machine the first is [Ooo.run] in every result field, and the
   second profiles the OOO core, equal to the cycle-stepped reference in
   every result and profile field. *)
let follows_core_grid = [ ("add", Level.Conv); ("dotprod", Level.Lev2); ("SRS-5", Level.Lev4) ]

let follows_core_prog m (name, level) =
  let w = Option.get (Impact_workloads.Suite.find name) in
  Helpers.compile Opts.default level m (lower w)

let test_sim_run_follows_core () =
  let m = Machine.ooo ~issue:8 ~rob:32 () in
  List.iter
    (fun (name, level) ->
      let p = follows_core_prog m (name, level) in
      Helpers.check_bool
        (Printf.sprintf "%s at %s: Sim.run = Ooo.run" name (Level.to_string level))
        true
        (compare (Sim.run m p) (Ooo.run m p) = 0))
    follows_core_grid

let test_sim_run_profiled_follows_core () =
  let m = Machine.ooo ~issue:8 ~rob:32 () in
  List.iter
    (fun (name, level) ->
      let p = follows_core_prog m (name, level) in
      let got = Sim.run_profiled m p in
      Helpers.check_bool
        (Printf.sprintf "%s at %s: Sim.run_profiled = Ooo_ref.run_profiled" name
           (Level.to_string level))
        true
        (compare got (Ooo_ref.run_profiled m p) = 0);
      Helpers.check_bool
        (Printf.sprintf "%s at %s: profiled result = Sim.run" name (Level.to_string level))
        true
        (compare (fst got) (Sim.run m p) = 0))
    follows_core_grid

(* Randomized conformance: scheduled straight-line programs (loads,
   integer ops, a reduction) must produce the same architectural output
   on both cores for any window size. *)
let prop_random_conformance =
  QCheck.Test.make
    ~name:"ooo matches the in-order simulator on random programs" ~count:120
    (QCheck.make
       QCheck.Gen.(pair T_props.gen_straightline (int_range 1 24)))
    (fun (spec, rob) ->
      let p = T_props.build_straightline spec in
      let p =
        Impact_sched.List_sched.run Machine.issue_4
          (Impact_sched.Superblock.run p)
      in
      let inorder = Sim.run Machine.issue_4 p in
      let ooo = Ooo.run (Machine.ooo ~issue:4 ~rob ()) p in
      same_arch inorder ooo)

(* ---- Differential: per-instruction timing vs the cycle-stepped
   reference core ---- *)

(* [compare], not [=]: a NaN output must still equal itself. *)
let same_as_ref ?fuel (m : Machine.t) p =
  let run f =
    match f () with
    | v -> Ok v
    | exception Sim.Timeout -> Error "timeout"
    | exception Sim.Error e -> Error e
  in
  let got = run (fun () -> Sim.run_profiled ?fuel m p) in
  let want = run (fun () -> Ooo_ref.run_profiled ?fuel m p) in
  compare got want = 0
  && compare (run (fun () -> Ooo.run ?fuel m p)) (Result.map fst want) = 0

(* Every reorder-buffer size 1/2/8/32, physical registers 1/3/rob,
   issue 1/2/4/8 and branch slots 1/2 appears, in mixed combinations. *)
let diff_machines =
  List.map
    (fun (issue, rob, phys_regs, branch_slots) ->
      Machine.make ~branch_slots
        ~core:(Machine.Ooo { rob; phys_regs })
        ~issue ())
    [
      (1, 1, 1, 1); (1, 8, 3, 2); (1, 32, 32, 1);
      (2, 2, 1, 2); (2, 8, 8, 1); (2, 32, 3, 1);
      (4, 1, 1, 2); (4, 8, 3, 1); (4, 32, 32, 2); (4, 2, 2, 1);
      (8, 2, 2, 2); (8, 8, 1, 1); (8, 32, 3, 2); (8, 32, 32, 1);
    ]

let test_matches_reference () =
  List.iter
    (fun (w : Impact_workloads.Suite.t) ->
      List.iter
        (fun (level, sched) ->
          let opts = Opts.make ~sched () in
          let tp = Compile.transform_with opts level (lower w) in
          (* A schedule depends only on the issue width and branch slots. *)
          let scheduled = Hashtbl.create 8 in
          List.iter
            (fun m ->
              let key = (m.Machine.issue, m.Machine.branch_slots) in
              let p =
                match Hashtbl.find_opt scheduled key with
                | Some p -> p
                | None ->
                  let p, _ = Compile.schedule_with opts m tp in
                  Hashtbl.add scheduled key p;
                  p
              in
              if not (same_as_ref m p) then
                Alcotest.failf "%s at %s (%s) on %s (%d branch slots): differs from the reference core"
                  w.Impact_workloads.Suite.name (Level.to_string level)
                  (Opts.sched_to_string sched) m.Machine.name m.Machine.branch_slots)
            diff_machines)
        [ (Level.Conv, `List); (Level.Lev4, `List); (Level.Lev4, `Pipe) ])
    subjects

(* [Timeout] at exactly the same budgets, including the ones around the
   run's own length T: the reference raises at the top of cycle
   fuel + 1, so fuel = T - 1 is the last budget that completes. *)
let test_fuel_boundary () =
  List.iter
    (fun (name, m) ->
      let w = Option.get (Impact_workloads.Suite.find name) in
      let p = Helpers.compile Opts.default Level.Lev2 m (lower w) in
      let t = (Ooo_ref.run_profiled m p |> fst).Sim.cycles in
      List.iter
        (fun fuel ->
          if not (same_as_ref ~fuel m p) then
            Alcotest.failf "%s on %s: fuel %d (T = %d) differs from the reference" name
              m.Machine.name fuel t)
        [ 0; 1; 2; 7; 100; t - 3; t - 2; t - 1; t; t + 1 ])
    [
      ("dotprod", Machine.ooo ~issue:4 ~rob:8 ());
      ("SRS-5", Machine.ooo ~phys_regs:3 ~issue:8 ~rob:32 ());
      ("add", Machine.ooo ~issue:1 ~rob:1 ());
    ];
  (* A program that traps: [Error] when the faulting division is
     dispatched within the budget, [Timeout] when it is not. *)
  let b = Helpers.irb () in
  let ctx = b.Helpers.ctx in
  let x = Helpers.reg b Reg.Int in
  let y = Helpers.reg b Reg.Int in
  Helpers.output b "y" y;
  let p =
    Helpers.prog_of b
      (List.map
         (fun i -> Block.Ins i)
         (Build.imov ctx x (Operand.Int 1)
         :: List.init 6 (fun _ -> Build.ib ctx Insn.Mul x (Operand.Reg x) (Operand.Int 3))
         @ [ Build.ib ctx Insn.Div y (Operand.Reg x) (Operand.Int 0) ]))
  in
  let m = Machine.ooo ~issue:2 ~rob:2 () in
  for fuel = 0 to 40 do
    if not (same_as_ref ~fuel m p) then
      Alcotest.failf "trapping program: fuel %d differs from the reference" fuel
  done

let prop_matches_reference =
  QCheck.Test.make ~name:"ooo timing matches the cycle-stepped reference on random programs"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair T_props.gen_straightline
           (quad (int_range 1 8) (int_range 1 40) (int_range 1 40) (int_range 1 2))))
    (fun (spec, (issue, rob, phys_regs, branch_slots)) ->
      let m =
        Machine.make ~branch_slots ~core:(Machine.Ooo { rob; phys_regs }) ~issue ()
      in
      let p =
        Impact_sched.List_sched.run m (Impact_sched.Superblock.run (T_props.build_straightline spec))
      in
      same_as_ref m p)

let suite =
  [
    ( "ooo",
      [
        Alcotest.test_case "conformance: all kernels x levels" `Quick
          test_conformance_all_kernels;
        Alcotest.test_case "rob=1 deterministic" `Quick test_rob1_deterministic;
        Alcotest.test_case "dispatch-slot conservation" `Quick test_conservation;
        Alcotest.test_case "cycles monotone in rob" `Quick test_rob_monotone;
        Alcotest.test_case "rejects in-order machine" `Quick
          test_run_rejects_inorder;
        Alcotest.test_case "Sim.run follows the machine's core" `Quick
          test_sim_run_follows_core;
        Alcotest.test_case "Sim.run_profiled follows the machine's core" `Quick
          test_sim_run_profiled_follows_core;
        QCheck_alcotest.to_alcotest prop_random_conformance;
        Alcotest.test_case "matches the reference core: kernels x machines" `Quick
          test_matches_reference;
        Alcotest.test_case "matches the reference core: fuel boundary" `Quick
          test_fuel_boundary;
        QCheck_alcotest.to_alcotest prop_matches_reference;
      ] );
  ]
