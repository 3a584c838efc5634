(* End-to-end compilation and measurement driver, split at the
   machine-independence boundary: [transform] applies the level's
   machine-independent pipeline (scalar optimizations, unrolling, the
   expansions, renaming, ...) plus superblock formation — none of which
   read the machine description — and its output can be cached and
   shared across machine configurations. [schedule_and_measure] does
   the per-machine work: list scheduling for the target, execution-
   driven simulation, and register-usage measurement. Each stage
   reports its wall time to [Impact_obs.Obs] for `bench json` and the
   bench stderr stage report.

   Every entry point takes the consolidated [Opts.t] record. *)

open Impact_ir

type measurement = {
  level : Level.t;
  machine : Machine.t;
  cycles : int;
  dyn_insns : int;
  usage : Impact_regalloc.Regalloc.usage;
  result : Impact_sim.Sim.result;
}

let transform_with (opts : Opts.t) (level : Level.t) (p : Prog.t) : Prog.t =
  Impact_obs.Obs.stage "transform" (fun () ->
    let p = Level.apply ?unroll_factor:opts.Opts.unroll level p in
    Impact_obs.Obs.span ~cat:"sched" "sched.superblock" (fun () ->
      Impact_sched.Superblock.run p))

let schedule_with (opts : Opts.t) (machine : Machine.t) (p : Prog.t) :
    Prog.t * (Impact_pipe.Pipe.report * Impact_pipe.Pipe.problem option) list =
  match opts.Opts.sched with
  | `List ->
    ( Impact_obs.Obs.stage "schedule" (fun () ->
        Impact_obs.Obs.span ~cat:"sched" "sched.list" (fun () ->
          Impact_sched.List_sched.run machine p)),
      [] )
  | `Pipe -> Impact_pipe.Pipe.run_with_problems machine p

let schedule_and_measure_with (opts : Opts.t) (level : Level.t)
    (machine : Machine.t) (p : Prog.t) : measurement =
  let compiled, _ = schedule_with opts machine p in
  let result =
    Impact_obs.Obs.stage "simulate" (fun () ->
      Impact_sim.Sim.run ?fuel:opts.Opts.fuel machine compiled)
  in
  let usage =
    Impact_obs.Obs.stage "regalloc" (fun () ->
      Impact_regalloc.Regalloc.measure compiled)
  in
  {
    level;
    machine;
    cycles = result.Impact_sim.Sim.cycles;
    dyn_insns = result.Impact_sim.Sim.dyn_insns;
    usage;
    result;
  }

let measure_with (opts : Opts.t) (level : Level.t) (machine : Machine.t)
    (p : Prog.t) : measurement =
  schedule_and_measure_with opts level machine (transform_with opts level p)

(* Speedup of a measurement against the paper's base configuration: an
   issue-1 processor with conventional optimizations. *)
let speedup ~base ~this = float_of_int base.cycles /. float_of_int this.cycles
