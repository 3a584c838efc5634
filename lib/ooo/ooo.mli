(** Cycle-level out-of-order core model (the [Machine.Ooo] axis): the
    same node processor as lib/sim — Table 1 latencies, [issue]-wide
    with one branch slot, 100% cache hits — but dynamically scheduled:

    - in-order fetch/rename/dispatch into a finite reorder buffer
      ([rob] entries), renaming each destination onto a finite physical
      register file ([phys_regs] per class, P6-style: allocated at
      rename, freed at commit);
    - out-of-order reservation-station issue, oldest-ready first, up to
      [issue] per cycle (functional units unlimited and fully
      pipelined); memory operations issue in program order among
      themselves (no disambiguation or store forwarding);
    - perfect branch prediction with a one-cycle taken-branch redirect
      and [branch_slots] branches dispatched per cycle, exactly the
      in-order front end;
    - in-order commit, up to [issue] per cycle.

    The timing model is trace-driven: instructions execute functionally
    at dispatch in program order, so architectural results — [outputs],
    [arrays_out], [dyn_insns] and any raised {!Impact_sim.Sim.Error} —
    are bit-identical to {!Impact_sim.Sim.run} on the same program by
    construction (pinned by the conformance tests in test/t_ooo). Each
    instruction's dispatch, issue and commit cycles are computed once,
    at dispatch; they equal those of stepping the pipeline cycle by
    cycle (test/ooo_ref.ml), in every result and profile field. *)

val run :
  ?fuel:int -> Impact_ir.Machine.t -> Impact_ir.Prog.t -> Impact_sim.Sim.result
(** [run machine prog] simulates [prog] on [machine]'s OOO core;
    [cycles] counts through the final commit. Raises [Invalid_argument]
    when [machine.core] is [Inorder] (use {!Impact_sim.Sim.run}),
    {!Impact_sim.Sim.Timeout} when the cycle budget [fuel] (default
    400M) is exhausted, and {!Impact_sim.Sim.Error} exactly where the
    in-order simulator would. Recorded as an ["ooo.run"] span when
    {!Impact_obs.Obs} telemetry is on. *)

(** {1 Dispatch-slot accounting}

    A profiled run classifies every one of its [o_cycles * o_issue]
    dispatch slots: [o_dispatched_slots] dispatched an instruction and
    each empty slot has exactly one attributed cause. The in-order
    dispatch stage stops within a cycle for whichever resource runs out
    first and charges the rest of the cycle's slots to it, so
    {!classified_slots} equals {!empty_slots} by construction — the
    conservation invariant the tier-1 tests assert. *)

type profile = {
  o_issue : int;
  o_cycles : int;
  o_dispatched_slots : int;  (** = [dyn_insns] *)
  o_rob_full : int;
      (** reorder buffer full, oldest entry executing: latency/commit
          bound *)
  o_rs_wait : int;
      (** reorder buffer full, oldest entry still waiting on operands:
          dataflow bound *)
  o_no_phys : int;  (** no free physical register in the needed class *)
  o_fetch : int;  (** branch-slot limit in the dispatch group *)
  o_redirect : int;  (** slots after a taken branch *)
  o_drain : int;
      (** out of instructions: end of program mid-cycle plus trailing
          cycles until the last commit *)
  o_ilp : int array;
      (** [o_ilp.(k)] = cycles that dispatched exactly [k]; length
          [o_issue + 1], sums to [o_cycles] *)
  o_max_rob : int;  (** peak reorder-buffer occupancy *)
  o_insn_dispatches : (Impact_ir.Insn.t * int) array;
      (** dispatch count per static instruction, in code order *)
}

val empty_slots : profile -> int
(** [o_cycles * o_issue - o_dispatched_slots]. *)

val classified_slots : profile -> int
(** Sum of all attributed categories; equals {!empty_slots}. *)

val run_profiled :
  ?fuel:int ->
  Impact_ir.Machine.t ->
  Impact_ir.Prog.t ->
  Impact_sim.Sim.result * profile
(** {!run} with dispatch-slot accounting (identical [result]). *)
