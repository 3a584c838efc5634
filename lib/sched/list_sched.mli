(** Superblock list scheduling: dependence-height priority, issue-width
    and branch-slot resources, speculative upward motion of non-excepting
    instructions past side exits (per the dependence graph's rules).

    The module also owns the one innermost-loop walk, {!map_loops}: list
    scheduling is {!schedule_loop} on every loop, and the software
    pipeliner ([Impact_pipe.Pipe]) plugs its own per-loop scheduler into
    the same walk. *)

open Impact_ir
open Impact_analysis

type result = {
  items : Block.item list;  (** reordered segment *)
  makespan : int;  (** schedule length in cycles *)
  issue_time : (int * int) list;  (** (instruction id, cycle) in emission order *)
}

val schedule_segment :
  Machine.t ->
  live_at_target:(Insn.t -> Reg.Set.t) ->
  pre_env:Linval.lin Reg.Map.t ->
  Insn.t array ->
  result

type loop_scheduler =
  live_at_target:(Insn.t -> Reg.Set.t) ->
  pre_env:Linval.lin Reg.Map.t ->
  Block.loop ->
  Block.item list
(** Schedules one innermost loop; the result replaces the loop.
    [live_at_target] is the program's branch-target liveness; [pre_env]
    is the symbolic value of the loop's preheader items, so addresses
    built from expanded induction registers disambiguate. *)

val schedule_loop : Machine.t -> loop_scheduler
(** List-schedule each label-delimited segment of the loop's body. *)

val map_loops : Prog.t -> loop_scheduler -> Prog.t
(** [map_loops p f] replaces every innermost loop of [p] by what [f]
    returns for it, left to right: the one loop walk of both
    schedulers. *)

val run : Machine.t -> Prog.t -> Prog.t
(** [map_loops p (schedule_loop machine)]: list-schedule every innermost
    loop body. Superblock formation should have run first. *)
