(** End-to-end compilation and measurement, split at the machine-
    independence boundary so the harness can cache the transform prefix
    and share it across machine configurations.

    Every entry point takes the consolidated {!Opts.t} — build one with
    {!Opts.make} (or start from {!Opts.default}). *)

open Impact_ir

type measurement = {
  level : Level.t;
  machine : Machine.t;
  cycles : int;
  dyn_insns : int;
  usage : Impact_regalloc.Regalloc.usage;
  result : Impact_sim.Sim.result;
}

val transform_with : Opts.t -> Level.t -> Prog.t -> Prog.t
(** The machine-independent pipeline prefix: the level's transformations
    plus superblock formation. Cacheable per (program, level, unroll)
    and shareable across machines; only [Opts.unroll] is read. *)

val schedule_with :
  Opts.t -> Machine.t -> Prog.t ->
  Prog.t * (Impact_pipe.Pipe.report * Impact_pipe.Pipe.problem option) list
(** Schedule a transformed program for the target machine per
    [Opts.sched], the one place that picks a scheduler: [`List] is plain
    list scheduling and returns no loop reports; [`Pipe]
    software-pipelines every eligible innermost loop via
    {!Impact_pipe.Pipe.run_with_problems}, list-schedules the rest, and
    returns its per-loop reports and problems in program order. *)

val schedule_and_measure_with :
  Opts.t -> Level.t -> Machine.t -> Prog.t -> measurement
(** Per-machine suffix on a transformed program: schedule, simulate
    (with [Opts.fuel], on the machine's {!Machine.core}), measure
    register usage. *)

val measure_with : Opts.t -> Level.t -> Machine.t -> Prog.t -> measurement
(** [schedule_and_measure_with opts level machine (transform_with opts level p)]. *)

val speedup : base:measurement -> this:measurement -> float
(** Speedup against the paper's base configuration (issue-1, Conv). *)
