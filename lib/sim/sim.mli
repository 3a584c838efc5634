(** Execution-driven simulation of the paper's parameterized
    superscalar/VLIW node processor (Section 3.1): in-order multi-issue
    with register interlocking, deterministic Table 1 latencies, one
    branch slot per cycle, a 100% cache hit rate and an unbounded
    register file. The simulator also defines the reference semantics
    used to validate every transformation. *)

exception Error of string
(** Raised on semantic violations: class confusion, misaligned or
    out-of-bounds memory accesses, division by zero, unknown labels. *)

exception Timeout
(** Raised when the cycle budget ([fuel]) is exhausted. *)

type value = VI of int | VF of float

type result = {
  cycles : int;  (** total execution time, including the last writeback *)
  dyn_insns : int;  (** instructions issued *)
  outputs : (string * value) list;  (** the program's scalar observables *)
  arrays_out : (string * float array) list;
      (** final contents of every declared array (integers widened) *)
}

val value_to_string : value -> string

val word : int
(** Address units per memory word (4, matching the paper's address
    arithmetic). *)

val run : ?fuel:int -> Impact_ir.Machine.t -> Impact_ir.Prog.t -> result
(** [run machine prog] executes [prog] to completion on [machine]'s
    {!Impact_ir.Machine.core}: the in-order pipeline, recorded as a
    ["sim.run"] span when [Impact_obs.Obs] telemetry is on, or
    {!Ooo.run}.

    The program is first decoded, once per run, into one flat record
    per static instruction, which both cores' timing loops and the
    profiled paths execute:
    - a constant pool: each immediate operand (an integer, a float, or
      an array label resolved to its base address) gets its own slot
      past the registers in the int or float value file, so every
      source read is one array load with no branch on the operand kind;
    - one ready index for both register classes ([Reg.hash]); constants
      and unused source slots point at a sentinel that is never
      written, so the in-order interlock is four compares and the
      out-of-order ready cycle four loads and a max;
    - one flat opcode per instruction, so the instruction step is one
      jump table.
    Class confusion, unknown labels and a missing destination raise
    {!Error} at decode, with the reference's messages. *)

val run_ref :
  ?fuel:int ->
  ?trace:(Impact_ir.Insn.t -> cycle:int -> unit) ->
  Impact_ir.Machine.t ->
  Impact_ir.Prog.t ->
  result
(** The reference interpreter (always un-decoded); [run] must agree with
    it on [cycles], [dyn_insns] and all observables. [trace] is called
    at every instruction issue with the issue cycle; the tests use it to
    validate schedules. *)

(** {1 Stall attribution}

    A profiled run additionally accounts for every slot of every cycle
    on either core — issue slots in order, dispatch slots out of order:
    [p_cycles * p_issue] slot-cycles in total, of which [p_filled] took
    an instruction and each empty one has exactly one attributed
    {!cause}. Both cores stop filling a cycle for whichever reason hits
    first and charge the rest of that cycle's slots to it:

    - {e interlock} (in order): the next instruction waits on a source
      register; charged to the latency class of the producing op;
    - {e reorder buffer full} (out of order), split by its oldest entry:
      {e rob full} when it has issued but not completed (latency/commit
      bound), {e rs wait} when it still waits on operands (dataflow
      bound);
    - {e no physical register} (out of order): none free in the
      destination's class;
    - {e branch-slot limit}: the next instruction is a branch but the
      cycle's branch slots are used up;
    - {e redirect}: slots after a taken branch (fetch resumes at the
      target next cycle);
    - {e drain}: the program ran out of instructions — mid-cycle at the
      end, plus whole trailing cycles waiting for the last writebacks
      (in order) or commits (out of order).

    By construction [classified_slots] equals [empty_slots]; the tier-1
    tests assert this on both cores, and that the fast and reference
    cores produce identical profiles. *)

type cause =
  | Interlock of int  (** producer latency *)
  | Branch_limit
  | Redirect
  | Drain
  | Rob_full
  | Rs_wait
  | No_phys

type profile = {
  p_issue : int;
  p_cycles : int;
  p_filled : int;  (** slots that issued or dispatched; = [dyn_insns] *)
  p_stalls : (cause * int) list;
      (** empty slot-cycles per cause. In order: the [Interlock] rows
          ascending by latency, zero rows elided, then [Branch_limit],
          [Redirect], [Drain]. Out of order: [Rob_full], [Rs_wait],
          [No_phys], [Branch_limit], [Redirect], [Drain]. *)
  p_ilp : int array;
      (** [p_ilp.(k)] = cycles that filled exactly [k] slots; length
          [p_issue + 1], sums to [p_cycles] *)
  p_insn_counts : (Impact_ir.Insn.t * int) array;
      (** issue or dispatch count per static instruction, in code order *)
  p_max_rob : int option;
      (** peak reorder-buffer occupancy; [None] in order *)
}

val empty_slots : profile -> int
(** [p_cycles * p_issue - p_filled]. *)

val classified_slots : profile -> int
(** Sum of [p_stalls]; equals {!empty_slots}. *)

val run_profiled :
  ?fuel:int -> Impact_ir.Machine.t -> Impact_ir.Prog.t -> result * profile
(** {!run} on the machine's core, with slot accounting; the [result] is
    {!run}'s. *)

val run_ref_profiled :
  ?fuel:int -> Impact_ir.Machine.t -> Impact_ir.Prog.t -> result * profile
(** [run_ref] (in order) with issue-slot accounting; must produce a
    profile identical to {!run_profiled}'s (asserted by the conformance
    tests). *)

(** {1 Out-of-order core} *)

(** Cycle-level out-of-order core model (the [Machine.Ooo] axis): the
    same node processor as the in-order core — Table 1 latencies,
    [issue]-wide with one branch slot, 100% cache hits — but
    dynamically scheduled:

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
    at dispatch in program order, through the in-order core's own
    instruction step, so architectural results — [outputs],
    [arrays_out], [dyn_insns] and any raised {!Error} — are those of
    the in-order core on the same program by construction (pinned by
    the conformance tests in test/t_ooo). Each instruction's dispatch,
    issue and commit cycles are computed once, at dispatch; they equal
    those of stepping the pipeline cycle by cycle (test/ooo_ref.ml), in
    every result and profile field. {!run} and {!run_profiled} reach it
    through the machine's core. *)
module Ooo : sig
  val run : ?fuel:int -> Impact_ir.Machine.t -> Impact_ir.Prog.t -> result
  (** [run machine prog] simulates [prog] on [machine]'s OOO core, as
      {!Sim.run} does; [cycles] counts through the final commit. Raises
      [Invalid_argument] when [machine.core] is [Inorder], {!Timeout}
      when the cycle budget [fuel] (default 400M) is exhausted, and
      {!Error} exactly where the in-order core would. Recorded as an
      ["ooo.run"] span when {!Impact_obs.Obs} telemetry is on. *)
end

(** {1 Execution machinery}

    The memory image and the observable collection that both cores
    use, exported for the cycle-stepped reference core of the tests
    (test/ooo_ref.ml), which reads instruction operands itself. *)

type mem = {
  mem_i : int array;
  mem_f : float array;
  kind : Bytes.t;
      (** per cell: ['\000'] an unmapped guard word, ['\001'] an int
          cell, ['\002'] a float cell; [mem_i] and [mem_f] reach only as
          far as the last array of their class *)
  bases : (string * int) list;  (** array name -> base address *)
}

val build_mem : Impact_ir.Prog.t -> mem
(** The initial memory image: every declared array with its initial
    contents, separated by unmapped guard words. *)

val collect :
  Impact_ir.Prog.t ->
  mem ->
  int array ->
  float array ->
  (string * value) list * (string * float array) list
(** [collect prog mem ivals fvals] reads the program's observables
    ([outputs], [arrays_out]) from the final state. *)
