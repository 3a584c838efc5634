(* The batch workloads: the paper's matrix (every Table 2 kernel x
   Conv..Lev4 x issue 2/4/8, plus the issue-1 Conv bases) evaluated on
   the domain pool with no result cache, one pool task per (kernel,
   level), per base, and per certified (kernel, machine) pair.

   Each task calls the layers' public entry points itself, in the order
   Compile.measure_with does, so a traced run can time every layer from
   outside. Every simulated cell is checked against the reference
   interpreter on the raw lowering, and every exact-oracle witness
   against Exact.check_schedule. *)

open Impact_ir
module Suite = Impact_workloads.Suite
module Level = Impact_core.Level
module Pipe = Impact_pipe.Pipe
module Exact = Impact_exact.Exact
module Sim = Impact_sim.Sim
module Pool = Impact_exec.Pool
module Obs = Impact_obs.Obs

type config = {
  machines : Machine.t list;
  sched : [ `List | `Pipe ];
  budget : int option;  (** certify the Conv loops at this node budget *)
}

type task =
  | Base of Suite.t
  | Compile of Suite.t * Level.t
  | Certify of Suite.t * Machine.t
  | Cell of Suite.t * Level.t * Machine.t * [ `List | `Pipe ]

type cell = {
  subject : string;
  level : string;  (** a level name, or "base" for the issue-1 Conv base *)
  machine : Machine.t;
  cycles : int;
  dyn : int;
  static : int;
  iregs : int;
  fregs : int;
  ok : bool;  (** observables match the reference interpreter *)
}

type cert = { loop : string; nodes : int; proved : bool; witness_ok : bool }

type out = {
  cells : cell list;
  certs : cert list;
  pipelined : int;
  ii_ratio_sum : float;  (** sum of II / list-scheduled cycles per pipelined loop *)
  insns_out : int;  (** instructions leaving Level.apply *)
  dur : float;
  cal : float;  (** time of the calibration slice run just before the task, or 0 *)
}

let empty =
  { cells = []; certs = []; pipelined = 0; ii_ratio_sum = 0.0; insns_out = 0; dur = 0.0; cal = 0.0 }

let count_insns (p : Prog.t) = List.length (Block.insns p.Prog.entry)

let pipe_stats reps =
  List.fold_left
    (fun (n, r) ((rep : Pipe.report), _) ->
      match rep.Pipe.status with
      | Pipe.Pipelined i ->
        (n + 1, r +. (float_of_int i.Pipe.ii /. float_of_int i.Pipe.list_ci))
      | Pipe.Skipped _ -> (n, r))
    (0, 0.0) reps

(* Lower, transform and form superblocks: the machine-independent prefix. *)
let prefix level (w : Suite.t) =
  let p = Lay.time "fir.lower" (fun () -> Impact_fir.Lower.lower w.Suite.ast) in
  let p = Lay.time "core.transform" (fun () -> Level.apply level p) in
  let insns = if !Lay.tracing then count_insns p else 0 in
  (Lay.time "sched.superblock" (fun () -> Impact_sched.Superblock.run p), insns)

let schedule sched (m : Machine.t) p =
  match sched with
  | `List -> (Lay.time "sched.list" (fun () -> Impact_sched.List_sched.run m p), [])
  | `Pipe -> Lay.time "pipe.run" (fun () -> Pipe.run_with_problems m p)

let simulate (m : Machine.t) p =
  match m.Machine.core with
  | Machine.Inorder -> Lay.time "sim.run" (fun () -> Sim.run m p)
  | Machine.Ooo _ -> Lay.time "ooo.run" (fun () -> Impact_ooo.Ooo.run m p)

let measure ~reference ~subject ~level sched m p =
  let sp, reps = schedule sched m p in
  let r = simulate m sp in
  let u = Lay.time "regalloc.measure" (fun () -> Impact_regalloc.Regalloc.measure sp) in
  ( {
      subject;
      level;
      machine = m;
      cycles = r.Sim.cycles;
      dyn = r.Sim.dyn_insns;
      static = count_insns sp;
      iregs = u.Impact_regalloc.Regalloc.int_used;
      fregs = u.Impact_regalloc.Regalloc.float_used;
      ok = Lay.same_result reference r;
    },
    reps )

let run_task cfg refs task =
  match task with
  | Base w ->
    let p, insns = prefix Level.Conv w in
    let c, _ =
      measure ~reference:(Hashtbl.find refs w.Suite.name) ~subject:w.Suite.name
        ~level:"base" `List
        Machine.issue_1 p
    in
    { empty with cells = [ c ]; insns_out = insns }
  | Compile (w, level) ->
    let p, insns = prefix level w in
    let reference = Hashtbl.find refs w.Suite.name in
    let cells, reps =
      List.split
        (List.map
           (fun m ->
             measure ~reference ~subject:w.Suite.name ~level:(Level.to_string level)
               cfg.sched m p)
           cfg.machines)
    in
    let pipelined, ii_ratio_sum = pipe_stats (List.concat reps) in
    { empty with cells; pipelined; ii_ratio_sum; insns_out = insns }
  | Certify (w, m) ->
    let budget = Option.get cfg.budget in
    let p, _ = prefix Level.Conv w in
    let _, reps = Lay.time "pipe.run" (fun () -> Pipe.run_with_problems m p) in
    let certs =
      List.filter_map
        (fun ((rep : Pipe.report), problem) ->
          Option.map
            (fun prob ->
              let heur_ii =
                match rep.Pipe.status with
                | Pipe.Pipelined i -> Some i.Pipe.ii
                | Pipe.Skipped _ -> None
              in
              let c =
                Lay.time "exact.certify" (fun () -> Exact.certify ~budget prob ~heur_ii)
              in
              let witness_ok =
                match (c.Exact.ct_witness, c.Exact.ct_ub) with
                | Some t, Some ii -> Exact.check_schedule prob ~ii t
                | Some _, None -> false
                | None, _ -> true
              in
              { loop = Printf.sprintf "%s/%s/%d" w.Suite.name m.Machine.name rep.Pipe.lid;
                nodes = c.Exact.ct_nodes; proved = c.Exact.ct_proved; witness_ok })
            problem)
        reps
    in
    { empty with certs }
  | Cell (w, level, m, sched) ->
    let p, insns = prefix level w in
    let c, reps =
      measure ~reference:(Hashtbl.find refs w.Suite.name) ~subject:w.Suite.name
        ~level:(Level.to_string level) sched m p
    in
    let pipelined, ii_ratio_sum = pipe_stats reps in
    { empty with cells = [ c ]; pipelined; ii_ratio_sum; insns_out = insns }

(* ---- Set-up: reference observables and the seeded task list ---- *)

let references () =
  let refs = Hashtbl.create 64 in
  List.iter
    (fun (w : Suite.t) ->
      Hashtbl.replace refs w.Suite.name
        (Sim.run_ref Machine.issue_1 (Impact_fir.Lower.lower w.Suite.ast)))
    Suite.all;
  refs

(* The seed sets the order of the compile tasks; certification tasks
   run last (in seeded order among themselves), so the one expensive
   certificate is a straggler whose cost shows in the pool's tail. *)
let tasks cfg seed =
  let rng = Random.State.make [| seed |] in
  let subjects = Lay.shuffle rng Suite.all in
  let compile =
    List.concat_map
      (fun w -> Base w :: List.map (fun l -> Compile (w, l)) Level.all)
      subjects
  in
  let certify =
    match cfg.budget with
    | None -> []
    | Some _ ->
      Lay.shuffle rng
        (List.concat_map (fun w -> List.map (fun m -> Certify (w, m)) cfg.machines) subjects)
  in
  compile @ certify

(* ---- One batch ---- *)

type batch = { outs : out list; wall : float; workers : int }

let run_batch ?(calibrate = false) cfg ~workers refs tasks =
  let t0 = Lay.now () in
  let outs =
    Pool.map_list ~workers
      (fun t ->
        let cal = if calibrate then Calib.slice () else 0.0 in
        let s = Lay.now () in
        let o = run_task cfg refs t in
        { o with dur = Lay.now () -. s; cal })
      tasks
  in
  { outs; wall = Lay.now () -. t0; workers }

let cells b = List.concat_map (fun o -> o.cells) b.outs

let certs b = List.concat_map (fun o -> o.certs) b.outs

let failures b =
  List.length (List.filter (fun c -> not c.ok) (cells b))
  + List.length (List.filter (fun c -> not c.witness_ok) (certs b))

let checks b = List.length (cells b) + List.length (certs b)

(* Every deterministic count of a batch, in a canonical order: the
   determinism guard requires this to repeat exactly. *)
let signature b =
  let key c = (c.subject, c.level, c.machine.Machine.name) in
  let cs = List.sort (fun a c -> compare (key a) (key c)) (cells b) in
  ( List.map (fun c -> (key c, c.cycles, c.dyn, c.static, c.iregs, c.fregs)) cs,
    List.sort compare (List.map (fun c -> (c.loop, c.nodes, c.proved)) (certs b)) )

let isum f b = Lay.isum (List.map f b.outs)

let cell_isum f b = Lay.isum (List.map f (cells b))

(* Mean Lev4 issue-8 speedup (against each kernel's issue-1 Conv base)
   and register count over the 40 kernels. *)
let lev4_issue8 b =
  let cs = cells b in
  let base = Hashtbl.create 64 in
  List.iter (fun c -> if c.level = "base" then Hashtbl.replace base c.subject c.cycles) cs;
  let picked =
    List.filter (fun c -> c.level = "Lev4" && c.machine.Machine.issue = 8) cs
  in
  let n = float_of_int (List.length picked) in
  ( Lay.sum
      (List.map
         (fun c -> float_of_int (Hashtbl.find base c.subject) /. float_of_int c.cycles)
         picked)
    /. n,
    Lay.sum (List.map (fun c -> float_of_int (c.iregs + c.fregs)) picked) /. n )

let decided_frac b =
  match certs b with
  | [] -> 1.0
  | cs ->
    float_of_int (List.length (List.filter (fun c -> c.proved) cs))
    /. float_of_int (List.length cs)

let durs b = List.map (fun o -> o.dur) b.outs

(* How much slower than the reference host the calibration slices of a
   calibrated batch ran (Calib.nominal_s per slice). *)
let host_factor b =
  Lay.sum (List.map (fun o -> o.cal) b.outs)
  /. (float_of_int (List.length b.outs) *. Calib.nominal_s)

(* Cells over the summed task time (at -j 1, the batch's wall time less
   its calibration slices), normalised to the reference host. *)
let cells_per_s b = float_of_int (List.length (cells b)) *. host_factor b /. Lay.sum (durs b)

(* ---- Traced batches and the per-layer metrics ---- *)

let counter_names = [ "cse.worklist_pushes"; "dce.worklist_pushes"; "regalloc.edges" ]

type traced = { tb : batch; busy : (string * float) list; counts : int list }

(* One batch with every layer timed and the program's work counters
   collected (the caller switches tracing and collection on). *)
let traced_batch cfg ~workers refs tasks =
  Lay.reset ();
  Obs.reset ();
  let b = run_batch cfg ~workers refs tasks in
  {
    tb = b;
    busy = List.map (fun l -> (l, Lay.busy_of l)) Lay.layers;
    counts = List.map Obs.counter_value counter_names;
  }

(* The compiler, oracle and pool metrics of traced batches: times are
   medians over the batches, counts come from the first (the
   determinism guard holds them equal). The pool metrics come from
   [exec]. *)
let layer_metrics ~exec (runs : traced list) =
  let b0 = (List.hd runs).tb in
  let layer name = Lay.median (List.map (fun r -> List.assoc name r.busy) runs) in
  let counter k = float_of_int (List.nth (List.hd runs).counts k) in
  let cs = cells b0 in
  let dyn inorder =
    Lay.isum
      (List.map
         (fun c -> c.dyn)
         (List.filter (fun c -> (c.machine.Machine.core = Machine.Inorder) = inorder) cs))
  in
  let cts = certs b0 in
  let nodes = Lay.isum (List.map (fun c -> c.nodes) cts) in
  let pipelined = isum (fun o -> o.pipelined) b0 in
  let ratio_sum = Lay.sum (List.map (fun o -> o.ii_ratio_sum) b0.outs) in
  let per_s n t = if t > 0.0 then float_of_int n /. t else 0.0 in
  let busy_frac r = Lay.sum (durs r.tb) /. (r.tb.wall *. float_of_int r.tb.workers) in
  [
    ("fir.lower_s", "s", layer "fir.lower");
    ("core.transform_s", "s", layer "core.transform");
    ("core.insns_out", "count", float_of_int (isum (fun o -> o.insns_out) b0));
    ("opt.cse_pushes", "count", counter 0);
    ("opt.dce_pushes", "count", counter 1);
    ("sched.superblock_s", "s", layer "sched.superblock");
    ("sched.list_s", "s", layer "sched.list");
    ("regalloc.measure_s", "s", layer "regalloc.measure");
    ("regalloc.edges", "count", counter 2);
    ("sim.run_s", "s", layer "sim.run");
    ("sim.dyn_insns", "count", float_of_int (dyn true));
    ("sim.minsns_per_s", "Minsn/s", per_s (dyn true) (layer "sim.run") /. 1e6);
    ("pipe.run_s", "s", layer "pipe.run");
    ("pipe.pipelined", "count", float_of_int pipelined);
    ( "pipe.ii_over_list",
      "ratio",
      if pipelined = 0 then 0.0 else ratio_sum /. float_of_int pipelined );
    ("exact.certify_s", "s", layer "exact.certify");
    ("exact.nodes", "count", float_of_int nodes);
    ("exact.nodes_per_s", "1/s", per_s nodes (layer "exact.certify"));
    ("exact.proved", "count", float_of_int (List.length (List.filter (fun c -> c.proved) cts)));
    ("ooo.run_s", "s", layer "ooo.run");
    ("ooo.minsns_per_s", "Minsn/s", per_s (dyn false) (layer "ooo.run") /. 1e6);
    ("exec.busy_frac", "ratio", busy_frac exec);
    ("exec.tail_task_s", "s", Lay.pct 100.0 (durs exec.tb));
  ]
