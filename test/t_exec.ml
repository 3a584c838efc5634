(* Tests for the execution engine (lib/exec) and the cached/parallel
   evaluation pipeline built on it:

   - Pool: deterministic ordering at any worker count, exception
     propagation, nested use from within tasks.
   - Compile.transform_with / schedule_and_measure_with: splitting the pipeline
     at the machine boundary and sharing the transformed program across
     machines yields exactly the measurements of the monolithic
     [Compile.measure_with], level by level.
   - Experiment.run_all_with: worker count 1 vs N produce identical cell
     lists; the base-measurement cache returns the same value as an
     uncached measurement.
   - Sim.run (pre-decoded) conforms to Sim.run_ref (reference
     interpreter) on cycles, dyn_insns and all observables for every
     suite kernel. *)

open Impact_ir
open Impact_core
module Pool = Impact_exec.Pool
module Experiment = Impact_svc.Experiment

(* ---- Pool ---- *)

let test_pool_ordering () =
  let xs = Array.init 100 (fun k -> k) in
  List.iter
    (fun workers ->
      let ys = Pool.map ~workers (fun k -> k * k) xs in
      Helpers.check_bool
        (Printf.sprintf "map ordering, %d workers" workers)
        true
        (ys = Array.map (fun k -> k * k) xs))
    [ 1; 2; 4; 7 ]

let test_pool_empty_and_singleton () =
  Helpers.check_bool "empty" true (Pool.map ~workers:4 succ [||] = [||]);
  Helpers.check_bool "singleton" true (Pool.map ~workers:4 succ [| 41 |] = [| 42 |]);
  Helpers.check_bool "map_list" true
    (Pool.map_list ~workers:3 succ [ 1; 2; 3 ] = [ 2; 3; 4 ])

exception Boom of int

let test_pool_exception () =
  let raised =
    try
      ignore
        (Pool.map ~workers:4
           (fun k -> if k mod 3 = 0 then raise (Boom k) else k)
           (Array.init 20 (fun k -> k + 1)));
      None
    with Boom k -> Some k
  in
  (* First failing index wins: element 3 is the first multiple of 3. *)
  Helpers.check_int "first failure propagated" 3 (Option.get raised)

let test_pool_env_and_default () =
  Pool.set_default_workers 3;
  Helpers.check_int "override respected" 3 (Pool.resolve_workers ());
  Pool.set_default_workers 0;
  Helpers.check_bool "auto-detect positive" true (Pool.resolve_workers () >= 1)

(* ---- Split pipeline vs monolithic compile ---- *)

let machines = [ Machine.issue_2; Machine.issue_4; Machine.issue_8 ]

let same_measurement name (a : Compile.measurement) (b : Compile.measurement) =
  Helpers.check_int (name ^ ": cycles") a.Compile.cycles b.Compile.cycles;
  Helpers.check_int (name ^ ": dyn_insns") a.Compile.dyn_insns b.Compile.dyn_insns;
  Helpers.check_int (name ^ ": int regs")
    a.Compile.usage.Impact_regalloc.Regalloc.int_used
    b.Compile.usage.Impact_regalloc.Regalloc.int_used;
  Helpers.check_int (name ^ ": float regs")
    a.Compile.usage.Impact_regalloc.Regalloc.float_used
    b.Compile.usage.Impact_regalloc.Regalloc.float_used;
  Helpers.same_observables name a.Compile.result b.Compile.result

(* Sharing one [transform] across machines must equal a fresh
   [Compile.measure_with] per (level, machine) cell. *)
let test_transform_cache_equiv () =
  List.iter
    (fun wname ->
      let ast =
        (Option.get (Impact_workloads.Suite.find wname)).Impact_workloads.Suite.ast
      in
      List.iter
        (fun level ->
          let shared = Compile.transform_with Opts.default level (Helpers.lower ast) in
          List.iter
            (fun machine ->
              let cached = Compile.schedule_and_measure_with Opts.default level machine shared in
              let fresh = Compile.measure_with Opts.default level machine (Helpers.lower ast) in
              same_measurement
                (Printf.sprintf "%s/%s/%s" wname (Level.to_string level)
                   machine.Machine.name)
                cached fresh)
            machines)
        Level.all)
    [ "dotprod"; "maxval"; "SDS-1" ]

let subjects_subset () =
  List.filter
    (fun (s : Experiment.subject) ->
      List.mem s.Experiment.sname [ "add"; "dotprod"; "maxval"; "merge"; "sum"; "SDS-1"; "WSS-2" ])
    (List.map
       (fun (w : Impact_workloads.Suite.t) ->
         {
           Experiment.sname = w.Impact_workloads.Suite.name;
           group = Impact_workloads.Suite.ltype_to_string w.Impact_workloads.Suite.ltype;
           ast = w.Impact_workloads.Suite.ast;
         })
       Impact_workloads.Suite.all)

let cell_key (c : Experiment.cell) =
  ( c.Experiment.subject.Experiment.sname,
    Level.to_string c.Experiment.level,
    c.Experiment.machine.Machine.name,
    c.Experiment.cycles,
    c.Experiment.dyn_insns,
    c.Experiment.speedup,
    c.Experiment.int_regs,
    c.Experiment.float_regs )

(* run_all must be invariant in the worker count. *)
let test_run_all_workers_invariant () =
  let subjects = subjects_subset () in
  Experiment.clear_base_cache ();
  let seq = Experiment.run_all_with ~workers:1 Opts.default machines Level.all subjects in
  Experiment.clear_base_cache ();
  let par = Experiment.run_all_with ~workers:4 Opts.default machines Level.all subjects in
  Helpers.check_int "cell count" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      Helpers.check_bool
        (Printf.sprintf "cell %s/%s/%s identical"
           a.Experiment.subject.Experiment.sname
           (Level.to_string a.Experiment.level)
           a.Experiment.machine.Machine.name)
        true
        (cell_key a = cell_key b))
    seq par

(* The per-subject cells must also match a cell-by-cell monolithic
   evaluation (no sharing at all). *)
let test_run_subject_vs_monolithic () =
  let s = List.hd (subjects_subset ()) in
  let cells = Experiment.run_all_with ~workers:1 Opts.default machines Level.all [ s ] in
  let base =
    Compile.measure_with Opts.default Level.Conv Machine.issue_1 (Helpers.lower s.Experiment.ast)
  in
  List.iter
    (fun (c : Experiment.cell) ->
      let m =
        Compile.measure_with Opts.default c.Experiment.level c.Experiment.machine
          (Helpers.lower s.Experiment.ast)
      in
      let name =
        Printf.sprintf "%s/%s/%s" s.Experiment.sname
          (Level.to_string c.Experiment.level) c.Experiment.machine.Machine.name
      in
      Helpers.check_int (name ^ ": cycles") m.Compile.cycles c.Experiment.cycles;
      Helpers.check_int (name ^ ": dyn") m.Compile.dyn_insns c.Experiment.dyn_insns;
      Helpers.check_bool (name ^ ": speedup") true
        (Float.equal (Compile.speedup ~base ~this:m) c.Experiment.speedup))
    cells

let test_base_cache () =
  Experiment.clear_base_cache ();
  let s = List.hd (subjects_subset ()) in
  let uncached =
    Compile.measure_with Opts.default Level.Conv Machine.issue_1 (Helpers.lower s.Experiment.ast)
  in
  let cached = Experiment.base_measurement_with Opts.default s in
  same_measurement "base cache" uncached cached;
  (* Second hit must come from the cache and be physically the same. *)
  Helpers.check_bool "cache hit" true (Experiment.base_measurement_with Opts.default s == cached)

(* ---- Pre-decoded simulator vs reference interpreter ---- *)

let same_result name (a : Impact_sim.Sim.result) (b : Impact_sim.Sim.result) =
  Helpers.check_int (name ^ ": cycles") a.Impact_sim.Sim.cycles b.Impact_sim.Sim.cycles;
  Helpers.check_int (name ^ ": dyn_insns") a.Impact_sim.Sim.dyn_insns
    b.Impact_sim.Sim.dyn_insns;
  (* Exact float equality: both engines execute the same operations in
     the same order. *)
  Helpers.same_observables ~tol:0.0 name a b

let test_sim_conformance () =
  List.iter
    (fun (w : Impact_workloads.Suite.t) ->
      List.iter
        (fun level ->
          List.iter
            (fun machine ->
              let p =
                Helpers.compile Opts.default level machine
                  (Helpers.lower w.Impact_workloads.Suite.ast)
              in
              let fast = Impact_sim.Sim.run machine p in
              let ref_ = Impact_sim.Sim.run_ref machine p in
              same_result
                (Printf.sprintf "%s/%s/%s" w.Impact_workloads.Suite.name
                   (Level.to_string level) machine.Machine.name)
                fast ref_)
            [ Machine.issue_1; Machine.issue_8 ])
        [ Level.Conv; Level.Lev4 ])
    Impact_workloads.Suite.all

(* Stall attribution must agree exactly between the two execution
   paths: same categories, same interlock latency classes, same ILP
   histogram, same per-instruction issue counts. *)
let test_stall_counter_conformance () =
  List.iter
    (fun wname ->
      let w = Option.get (Impact_workloads.Suite.find wname) in
      List.iter
        (fun level ->
          List.iter
            (fun machine ->
              let p =
                Helpers.compile Opts.default level machine
                  (Helpers.lower w.Impact_workloads.Suite.ast)
              in
              let rf, pf = Impact_sim.Sim.run_profiled machine p in
              let rr, pr = Impact_sim.Sim.run_ref_profiled machine p in
              let name =
                Printf.sprintf "%s/%s/%s" wname (Level.to_string level)
                  machine.Machine.name
              in
              same_result name rf rr;
              Helpers.check_bool (name ^ ": profiles identical") true (pf = pr);
              Helpers.check_int (name ^ ": conservation")
                (Impact_sim.Sim.empty_slots pf)
                (Impact_sim.Sim.classified_slots pf))
            [ Machine.issue_2; Machine.issue_8 ])
        [ Level.Conv; Level.Lev4 ])
    [ "add"; "dotprod"; "maxval"; "merge"; "SDS-1"; "WSS-2" ]

(* Every trap, on every path: each ill-formed or faulting straight-line
   program raises [Sim.Error] with the same text from the reference
   interpreter, the decoded engine on both cores (plain and profiled)
   and the cycle-stepped reference core, whether the decoder rejects it
   (class confusion, labels, a missing destination) or the instruction
   step does (memory checks, zero divisors). Arrays: F (2 floats) at
   word 16, address 64; I (2 ints) at word 34, address 136. *)
let test_sim_errors_agree () =
  let module Sim = Impact_sim.Sim in
  let case name build =
    let b = Helpers.irb () in
    Helpers.float_array b "F" [| 1.0; 2.0 |];
    Helpers.int_array b "I" [| 1; 2 |];
    let f = Helpers.reg b Reg.Float in
    let d = Helpers.reg b Reg.Int in
    let mk op ?dst srcs =
      Insn.make ~id:(Prog.fresh_insn_id b.Helpers.ctx) ~op ?dst ~srcs ()
    in
    let want, insns = build mk f d in
    (name, want, Helpers.prog_of b (List.map (fun i -> Block.Ins i) insns))
  in
  let lab = Operand.lab and int n = Operand.Int n and flt x = Operand.Flt x in
  let reg = Operand.reg in
  let cases =
    [
      case "float register in int context" (fun mk f d ->
        ( Printf.sprintf "float register %s in int context" (Reg.to_string f),
          [ mk Insn.FMov ~dst:f [| flt 1.0 |]; mk (Insn.IBin Insn.Add) ~dst:d [| reg f; int 1 |] ] ));
      case "int register in float context" (fun mk f d ->
        ( Printf.sprintf "int register %s in float context" (Reg.to_string d),
          [ mk Insn.IMov ~dst:d [| int 1 |]; mk (Insn.FBin Insn.Fadd) ~dst:f [| reg d; flt 1.0 |] ] ));
      case "float immediate in int context" (fun mk _ d ->
        ("float immediate in int context", [ mk (Insn.IBin Insn.Add) ~dst:d [| flt 1.0; int 1 |] ]));
      case "label in float context" (fun mk f _ ->
        ("label in float context", [ mk (Insn.FBin Insn.Fadd) ~dst:f [| lab "F"; flt 1.0 |] ]));
      case "unknown array label" (fun mk _ d ->
        ("unknown array label NOPE", [ mk (Insn.IBin Insn.Add) ~dst:d [| lab "NOPE"; int 0 |] ]));
      case "lacks destination" (fun mk _ _ ->
        let i = mk (Insn.IBin Insn.Add) [| int 1; int 2 |] in
        (Printf.sprintf "instruction %d lacks destination" i.Insn.id, [ i ]));
      case "misaligned load" (fun mk _ d ->
        ("load: misaligned address 138", [ mk (Insn.Load Reg.Int) ~dst:d [| lab "I"; int 2; int 0 |] ]));
      case "misaligned store" (fun mk _ _ ->
        ( "store: misaligned address 138",
          [ mk (Insn.Store Reg.Int) [| lab "I"; int 0; int 2; int 5 |] ] ));
      case "out-of-bounds load" (fun mk f _ ->
        ( "load: address 72 out of bounds",
          [ mk (Insn.Load Reg.Float) ~dst:f [| lab "F"; int 8; int 0 |] ] ));
      case "out-of-bounds store" (fun mk _ _ ->
        ( "store: address 132 out of bounds",
          [ mk (Insn.Store Reg.Int) [| lab "I"; int (-4); int 0; int 5 |] ] ));
      case "int load from float cell" (fun mk _ d ->
        ("int load from float cell 68", [ mk (Insn.Load Reg.Int) ~dst:d [| lab "F"; int 4; int 0 |] ]));
      case "float load from int cell" (fun mk f _ ->
        ("float load from int cell 136", [ mk (Insn.Load Reg.Float) ~dst:f [| lab "I"; int 0; int 0 |] ]));
      case "int store to float cell" (fun mk _ _ ->
        ("int store to float cell 64", [ mk (Insn.Store Reg.Int) [| lab "F"; int 0; int 0; int 1 |] ]));
      case "float store to int cell" (fun mk _ _ ->
        ( "float store to int cell 140",
          [ mk (Insn.Store Reg.Float) [| lab "I"; int 4; int 0; flt 1.0 |] ] ));
      case "division by zero" (fun mk _ d ->
        ( "division by zero",
          [ mk Insn.IMov ~dst:d [| int 0 |]; mk (Insn.IBin Insn.Div) ~dst:d [| int 7; reg d |] ] ));
      case "remainder by zero" (fun mk _ d ->
        ( "remainder by zero",
          [ mk Insn.IMov ~dst:d [| int 0 |]; mk (Insn.IBin Insn.Rem) ~dst:d [| int 7; reg d |] ] ));
    ]
  in
  let ooo = Machine.ooo ~issue:2 ~rob:4 () in
  let paths =
    [
      ("run_ref", fun p -> ignore (Sim.run_ref Machine.issue_1 p));
      ("run_ref_profiled", fun p -> ignore (Sim.run_ref_profiled Machine.issue_2 p));
      ("run in order", fun p -> ignore (Sim.run Machine.issue_4 p));
      ("run_profiled in order", fun p -> ignore (Sim.run_profiled Machine.issue_4 p));
      ("run out of order", fun p -> ignore (Sim.run ooo p));
      ("run_profiled out of order", fun p -> ignore (Sim.run_profiled ooo p));
      ("Ooo.run", fun p -> ignore (Sim.Ooo.run ooo p));
      ("reference out-of-order core", fun p -> ignore (Ooo_ref.run_profiled ooo p));
    ]
  in
  List.iter
    (fun (name, want, p) ->
      List.iter
        (fun (path, run) ->
          let got = try run p; "no error" with Sim.Error m -> m in
          Helpers.check_string (Printf.sprintf "%s: %s" name path) want got)
        paths)
    cases

(* The decoder's constant pool holds every kind of immediate: an int
   and a label in int context, a float and an int in float context, as
   sources, store values and branch operands. Every path computes the
   reference interpreter's result, down to the cycle. *)
let test_sim_constant_pool () =
  let module Sim = Impact_sim.Sim in
  let b = Helpers.irb () in
  Helpers.float_array b "F" [| 1.5; 2.5 |];
  Helpers.int_array b "I" [| 5; 6 |];
  let ctx = b.Helpers.ctx in
  let ri () = Helpers.reg b Reg.Int and rf () = Helpers.reg b Reg.Float in
  let d1 = ri () and d2 = ri () and d3 = ri () in
  let f1 = rf () and f2 = rf () and f3 = rf () in
  let int n = Operand.Int n and flt x = Operand.Flt x in
  let entry =
    List.map
      (fun i -> Block.Ins i)
      [
        Build.imov ctx d1 (Operand.lab "I");
        Build.load ctx Reg.Int d2 (Operand.reg d1) (int 4);
        Build.fb ctx Insn.Fadd f1 (int 3) (flt 0.5);
        Build.fmov ctx f2 (int (-2));
        Build.itof ctx f3 (int 11);
        Build.store ctx Reg.Int (Operand.lab "I") (int 0) (int 9);
        Build.store ctx Reg.Float (Operand.lab "F") (int 4) (int 7);
        Build.store ctx Reg.Float (Operand.lab "F") (int 0) (flt 0.25);
        Build.imov ctx d3 (int 1);
        Build.br ctx Reg.Float Insn.Lt (int 1) (flt 2.0) "L";
        Build.imov ctx d3 (int 100);
      ]
    @ [
        Block.Lbl "L";
        Block.Ins (Build.br ctx Reg.Int Insn.Eq (int 6) (Operand.reg d2) "M");
        Block.Ins (Build.imov ctx d3 (int 200));
        Block.Lbl "M";
      ]
  in
  List.iter (fun (n, r) -> Helpers.output b n r)
    [ ("d1", d1); ("d2", d2); ("d3", d3); ("f1", f1); ("f2", f2); ("f3", f3) ];
  let p = Helpers.prog_of b entry in
  let want = Sim.run_ref Machine.issue_1 p in
  Helpers.check_bool "reference values" true
    (List.map snd want.Sim.outputs
     = [ Sim.VI 136; Sim.VI 6; Sim.VI 1; Sim.VF 3.5; Sim.VF (-2.0); Sim.VF 11.0 ]
    && want.Sim.arrays_out = [ ("F", [| 0.25; 7.0 |]); ("I", [| 9.0; 6.0 |]) ]);
  List.iter
    (fun (m : Machine.t) ->
      let ref_ =
        match m.Machine.core with
        | Machine.Inorder -> Sim.run_ref m p
        | Machine.Ooo _ -> fst (Ooo_ref.run_profiled m p)
      in
      same_result ("constant pool on " ^ m.Machine.name) ref_ (Sim.run m p);
      same_result ("profiled constant pool on " ^ m.Machine.name) ref_
        (fst (Sim.run_profiled m p)))
    [ Machine.issue_1; Machine.issue_4; Machine.ooo ~issue:2 ~rob:4 (); Machine.ooo ~issue:8 ~rob:32 () ]

(* ---- Persistent executor ---- *)

(* Submissions beyond [queue_depth] are refused, not buffered: that
   refusal is the admission-control signal lib/net turns into
   structured "overloaded" records. *)
let test_executor_bounded_submit () =
  let ex = Pool.create_executor ~workers:1 ~queue_depth:2 () in
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let open_gate = ref false in
  let done_count = Atomic.make 0 in
  let blocked_job () =
    Mutex.lock gate_m;
    while not !open_gate do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m;
    Atomic.incr done_count
  in
  (* First job occupies the worker; wait until it is actually running so
     the queue fills deterministically. *)
  Helpers.check_bool "first submit accepted" true (Pool.submit ex blocked_job);
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Pool.running ex < 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Helpers.check_int "worker busy" 1 (Pool.running ex);
  Helpers.check_bool "fills slot 1" true (Pool.submit ex blocked_job);
  Helpers.check_bool "fills slot 2" true (Pool.submit ex blocked_job);
  Helpers.check_int "queue at capacity" 2 (Pool.queue_length ex);
  Helpers.check_bool "over capacity refused" false (Pool.submit ex blocked_job);
  Helpers.check_bool "still refused" false (Pool.submit ex blocked_job);
  Mutex.lock gate_m;
  open_gate := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  Pool.shutdown_executor ex;
  Helpers.check_int "accepted jobs all ran" 3 (Atomic.get done_count);
  Helpers.check_bool "submit after shutdown refused" false
    (Pool.submit ex (fun () -> ()))

(* Shutdown drains: every accepted job runs before the domains join,
   even if it was still queued when shutdown began. *)
let test_executor_shutdown_drains () =
  let ex = Pool.create_executor ~workers:2 ~queue_depth:64 () in
  let ran = Atomic.make 0 in
  let accepted = ref 0 in
  for _ = 1 to 32 do
    if Pool.submit ex (fun () ->
           Thread.delay 0.002;
           Atomic.incr ran)
    then incr accepted
  done;
  Helpers.check_int "all submissions accepted" 32 !accepted;
  Pool.shutdown_executor ex;
  Helpers.check_int "every accepted job ran before join" 32 (Atomic.get ran);
  Helpers.check_int "queue empty after drain" 0 (Pool.queue_length ex);
  Helpers.check_int "no job running after drain" 0 (Pool.running ex)

let test_executor_introspection () =
  let ex = Pool.create_executor ~workers:3 ~queue_depth:7 () in
  Helpers.check_int "worker count" 3 (Pool.executor_workers ex);
  Helpers.check_int "idle queue empty" 0 (Pool.queue_length ex);
  Helpers.check_int "idle none running" 0 (Pool.running ex);
  Pool.shutdown_executor ex;
  (* Shutdown is idempotent. *)
  Pool.shutdown_executor ex

(* Lifetime accounting: submitted/completed/rejected/peak_queue — the
   numbers the serve tier's {"op": "metrics"} executor object reports. *)
let test_executor_stats () =
  let ex = Pool.create_executor ~workers:1 ~queue_depth:2 () in
  let s0 = Pool.executor_stats ex in
  Helpers.check_int "fresh submitted" 0 s0.Pool.submitted;
  Helpers.check_int "fresh completed" 0 s0.Pool.completed;
  Helpers.check_int "fresh rejected" 0 s0.Pool.rejected;
  Helpers.check_int "fresh peak" 0 s0.Pool.peak_queue;
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let open_gate = ref false in
  let blocked_job () =
    Mutex.lock gate_m;
    while not !open_gate do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m
  in
  (* Occupy the worker, fill both queue slots, then overflow twice. *)
  Helpers.check_bool "submit 1" true (Pool.submit ex blocked_job);
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Pool.running ex < 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Helpers.check_bool "submit 2" true (Pool.submit ex blocked_job);
  Helpers.check_bool "submit 3" true (Pool.submit ex blocked_job);
  Helpers.check_bool "overflow a" false (Pool.submit ex blocked_job);
  Helpers.check_bool "overflow b" false (Pool.submit ex blocked_job);
  let mid = Pool.executor_stats ex in
  Helpers.check_int "mid submitted" 3 mid.Pool.submitted;
  Helpers.check_int "mid rejected" 2 mid.Pool.rejected;
  Helpers.check_int "mid peak = queue bound" 2 mid.Pool.peak_queue;
  Helpers.check_int "mid completed" 0 mid.Pool.completed;
  Mutex.lock gate_m;
  open_gate := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  Pool.shutdown_executor ex;
  let fin = Pool.executor_stats ex in
  Helpers.check_int "final completed = submitted" 3 fin.Pool.completed;
  Helpers.check_int "final submitted unchanged" 3 fin.Pool.submitted;
  (* Refusals after shutdown also count as rejections. *)
  Helpers.check_bool "post-shutdown refused" false (Pool.submit ex (fun () -> ()));
  Helpers.check_int "post-shutdown rejected" 3
    (Pool.executor_stats ex).Pool.rejected

(* ---- exact-oracle certification as a pool stress workload ----

   The heaviest pool tasks yet: branch-and-bound search with wildly
   uneven per-task cost (0 nodes for bound-trivial loops, the full
   budget for tight packings). The BENCH_oracle.json body must still be
   byte-identical at any worker count — rows join in input order and
   the document carries no timestamp or worker count. The subset
   includes NAS-1 (budget-bound search) and nasa7-2 (analyzable skip)
   so both extremes of task cost are on the pool at once. *)
let test_oracle_workers_invariant () =
  let only = [ "add"; "dotprod"; "NAS-1"; "APS-2"; "nasa7-2" ] in
  let budget = 4_000 in
  let doc workers =
    Impact_exact.Oracle.doc ~budget
      (Impact_exact.Oracle.run ~workers ~budget ~only ())
  in
  let d1 = doc 1 and d8 = doc 8 in
  Helpers.check_bool "doc nonempty" true (String.length d1 > 0);
  Helpers.check_bool "byte-identical at -j 1 vs -j 8" true (d1 = d8);
  (* The census is the one JSON printer's output: parsing it and
     printing it again gives the document back byte for byte. *)
  match Impact_obs.Json.parse d1 with
  | Ok j ->
    Helpers.check_string "doc = Json.to_string of itself" d1
      (Impact_obs.Json.to_string j ^ "\n")
  | Error msg -> Alcotest.failf "oracle doc is not JSON: %s" msg

let suite =
  [
    ( "exec.pool",
      [
        Alcotest.test_case "ordering deterministic across worker counts" `Quick
          test_pool_ordering;
        Alcotest.test_case "empty / singleton / list wrapper" `Quick
          test_pool_empty_and_singleton;
        Alcotest.test_case "exception propagation (first index wins)" `Quick
          test_pool_exception;
        Alcotest.test_case "worker count resolution" `Quick test_pool_env_and_default;
      ] );
    ( "exec.executor",
      [
        Alcotest.test_case "bounded queue refuses over-capacity submits" `Quick
          test_executor_bounded_submit;
        Alcotest.test_case "shutdown drains accepted jobs" `Quick
          test_executor_shutdown_drains;
        Alcotest.test_case "introspection and idempotent shutdown" `Quick
          test_executor_introspection;
        Alcotest.test_case "lifetime stats (submitted/completed/rejected/peak)"
          `Quick test_executor_stats;
      ] );
    ( "exec.cache",
      [
        Alcotest.test_case "shared transform == monolithic compile" `Slow
          test_transform_cache_equiv;
        Alcotest.test_case "run_all invariant in worker count" `Slow
          test_run_all_workers_invariant;
        Alcotest.test_case "run_subject matches per-cell measure" `Slow
          test_run_subject_vs_monolithic;
        Alcotest.test_case "base measurement cache" `Quick test_base_cache;
      ] );
    ( "exec.oracle",
      [
        Alcotest.test_case "certify run byte-identical at -j 1 vs -j 8" `Slow
          test_oracle_workers_invariant;
      ] );
    ( "exec.sim",
      [
        Alcotest.test_case "pre-decoded run == run_ref on suite" `Slow
          test_sim_conformance;
        Alcotest.test_case "stall counters: fast == ref on suite subset" `Slow
          test_stall_counter_conformance;
        Alcotest.test_case "decode errors match interpreter errors" `Quick
          test_sim_errors_agree;
        Alcotest.test_case "constant pool: every immediate kind" `Quick
          test_sim_constant_pool;
      ] );
  ]
