(** Software pipelining by iterative modulo scheduling (Rau's IMS,
    heuristic — no solver dependency) of innermost superblock loop
    bodies.

    For each eligible innermost loop (single basic block, one
    back-branch, compile-time trip count, at most one definition per
    register) the pass computes the minimum initiation interval
    MII = max(ResMII, RecMII) — ResMII from the machine's issue and
    branch-slot resources, RecMII from the maximum cycle ratio over
    recurrence circuits of the loop-carried dependence graph — then
    searches II = MII, MII+1, ... with a budgeted eviction scheduler
    until a modulo schedule fits. Modulo variable expansion renames
    every body-defined register across [kunroll] kernel copies, and
    code generation emits ordinary [Block] items: a peeling loop that
    aligns the trip count, a prologue filling the pipeline, a kernel
    loop in steady state, an epilogue draining it, and final moves
    restoring the original register names — so the simulator, register
    allocator and conformance oracle validate the result unchanged.

    Loops that are ineligible, recurrence-bound past the list
    schedule, or too short are list-scheduled instead; the report says
    why. The pass has one entry point, {!run_with_problems}, which
    plugs into the list scheduler's loop walk; [Impact_core.Compile]
    is the only code that picks between the two schedulers. *)

open Impact_ir

type info = {
  ii : int;  (** achieved initiation interval *)
  mii : int;  (** max(ResMII, RecMII) *)
  res_mii : int;
  rec_mii : int;
  stages : int;  (** stage count of the schedule *)
  kunroll : int;  (** modulo-variable-expansion kernel unroll *)
  trip : int;  (** compile-time trip count of the loop *)
  list_ci : int;  (** list-scheduled steady-state cycles/iteration *)
}

type status =
  | Pipelined of info
  | Skipped of { reason : string; list_ci : int option }

type report = { lid : int; status : status }

(** {1 The modulo-scheduling problem}

    The abstract per-loop scheduling problem the IMS heuristic solves,
    exposed so an exact oracle (lib/exact) can certify the achieved II
    against the provable optimum {e on the same constraint system}: a
    schedule assigns each of [p_n] operations a time
    [t = slot + II * stage] such that every edge satisfies
    [t.(dst) - t.(src) >= lat - II * dist] and no more than [p_issue]
    operations share a row ([t mod II]). *)

type edge = Impact_analysis.Ddg.edge = { src : int; dst : int; lat : int; dist : int }
(** One dependence of the modulo constraint system: the consumer must
    start at least [lat - II * dist] cycles after the producer
    ([dist = 0] within an iteration, [dist >= 1] loop-carried). *)

type problem = {
  p_n : int;  (** operations (the back-branch excluded) *)
  p_edges : edge list;  (** sorted, deterministic *)
  p_issue : int;  (** row capacity: the machine's issue width *)
  p_res_mii : int;
  p_rec_mii : int;
  p_mii : int;  (** [max p_res_mii p_rec_mii] *)
  p_list_ci : int;  (** list-scheduled cycles/iteration (profit bound) *)
}

val rec_mii_exact : n:int -> edge list -> int
(** Smallest II with no positive-weight cycle under
    [lat - II * dist] — the exact recurrence-constrained lower bound —
    capped at one more than the sum of all latencies; 1 for an acyclic
    system. From II 1, each positive cycle found moves the search to
    ceil(latency sum / distance sum), or to the cap at distance 0;
    sound because every [dist >= 0] makes feasibility monotone in II. *)

val ii_feasible : n:int -> edge list -> int -> bool
(** [ii_feasible ~n edges ii]: does the precedence system (resources
    ignored) admit a schedule at [ii]? Exact worklist longest-path
    relaxation over the edges inside strongly connected components, the
    only place a positive cycle can live. *)

val heights : n:int -> edge list -> int -> int array
(** [heights ~n edges ii]: each operation's longest path to the sinks
    under [lat - ii * dist] — the scheduling priority of the IMS
    heuristic and the exact oracle's branching order. [ii] must be
    feasible ({!ii_feasible}); the relaxation stops at its fixpoint. *)

val depths : n:int -> edge list -> int -> int array
(** [depths ~n edges ii]: each operation's longest path from the
    sources — the IMS retry priority when height order fails at an II.
    Same contract as {!heights}. *)

val ims_schedule :
  issue:int -> n:int -> edge list -> mii:int -> max_ii:int ->
  (int array * int) option
(** The iterative-modulo-scheduling heuristic core on a bare problem:
    escalate II from [mii] to [max_ii] until the budgeted eviction
    scheduler places all [n] operations; returns (times normalized to
    min 0, achieved II). No II is checked for feasibility, so [mii]
    must be at least {!rec_mii_exact} of a system without a positive
    distance-0 cycle. Exposed for differential testing against the
    exact solver. *)

val run_with_problems :
  Machine.t -> Prog.t -> Prog.t * (report * problem option) list
(** The pipeliner's one entry point. Through
    [Impact_sched.List_sched.map_loops], modulo-schedule every eligible
    innermost loop and list-schedule the rest
    ([Impact_sched.List_sched.schedule_loop]); a drop-in replacement
    for [Impact_sched.List_sched.run]. Also returns one report per
    innermost loop in program order, each next to its extracted
    modulo-scheduling problem — [None] when the loop never reached
    dependence analysis (structural or trip-count ineligibility), so an
    oracle knows exactly which loops are certifiable. *)

val report_to_string : report -> string
