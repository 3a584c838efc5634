(** Exact modulo scheduling: a hand-rolled DFS-with-propagation solver
    (no external solver dependency) that decides, for a loop's
    dependence graph and a machine's issue width, whether a valid
    modulo schedule exists at a fixed initiation interval — and walks
    the II upward from MII to a {e certified-optimal} II or a declared
    budget bound. This is the oracle that turns lib/pipe's "IMS found
    II = k" into "II = k is optimal" (or into a measured gap).

    {2 Encoding}

    A modulo schedule at interval [ii] assigns each operation a time
    [t] with [t mod ii] its reservation row; at most [p_issue]
    operations may share a row, and every dependence edge requires
    [t.(dst) - t.(src) >= lat - ii * dist]. The search branches on
    {e rows} only: once every operation has a row, edge [e] tightens to
    the smallest value [>= w] congruent to the row difference,

    {[ w' = w + ((row dst - row src - w) mod ii),  w = lat - ii * dist ]}

    and feasibility of the remaining system is exactly "no positive
    cycle" under the adjusted weights — decided by longest-path
    relaxation, whose potentials also yield the witness below. The root,
    with no rows fixed, starts from {!Impact_pipe.Pipe.depths}; below
    it, giving an operation a row changes only the weights of its own
    edges, so those are relaxed and a FIFO worklist carries each raised
    potential along out-edges.
    Every raise records the edge count of its improving path, and a path
    of [n] edges repeats an operation: since each raise is strict, that
    repeat is a positive cycle. The row-free entry check is
    {!Impact_pipe.Pipe.ii_feasible}, the relaxation lib/pipe runs for
    RecMII on the edges inside strongly connected components.
    From the relaxation's potentials [d] a witness schedule is read off
    as [t = d + ((row - d) mod ii)], which provably satisfies every
    edge and the row capacities.

    {2 Pruning}

    Partially assigned states propagate with the base weight [w] for
    any edge missing a row — an admissible relaxation, so a positive
    cycle in the partial system soundly kills the whole subtree. Rows
    at capacity are never tried; the first operation (highest
    priority) is pinned to row 0, cutting the rotation symmetry of the
    reservation table ([ii]-fold). Operations are branched in
    descending height order so recurrence-critical chains fail first.

    {2 Budget}

    Every row assignment costs one node. [decide] returns {!Budget}
    when the cap is hit; {!certify} threads one budget across its whole
    II walk, so a certificate either proves its bounds or says exactly
    that the search was cut short ([ct_proved = false]) — never an
    unsound claim. *)

open Impact_pipe

type verdict =
  | Sat of int array
      (** witness schedule times, normalized to start at 0; validated
          by construction against every edge and row capacity *)
  | Unsat  (** proved: no modulo schedule exists at this II *)
  | Budget  (** node budget exhausted before a proof either way *)

val default_budget : int
(** Default node budget ({!decide}: per call; {!certify}: across the
    whole walk). Generous for the 40-kernel corpus — every loop there
    certifies well below it. *)

val decide : ?budget:int -> Pipe.problem -> ii:int -> verdict * int
(** [decide p ~ii] is the exact decision "does a valid modulo schedule
    exist at [ii]?" plus the number of search nodes spent. *)

val check_schedule : Pipe.problem -> ii:int -> int array -> bool
(** Independent validator: do these times respect every [(lat, dist)]
    edge at [ii] and never overfill a reservation row? Used by the
    differential tests to cross-check {!Sat} witnesses. *)

type cert = {
  ct_lb : int;  (** proved: no modulo schedule exists below [ct_lb] *)
  ct_ub : int option;
      (** smallest II known feasible — the search's witness II, else
          the heuristic's achieved II; [None] when nothing feasible is
          known (skipped loop, nothing found below the list bound) *)
  ct_proved : bool;
      (** the walk completed: [ct_lb] (and [ct_ub] when present) is the
          true optimum, not a budget artifact *)
  ct_nodes : int;  (** total search nodes across the walk *)
  ct_witness : int array option;
      (** a schedule at [ct_ub] when the search itself found one *)
}

val certify : ?budget:int -> Pipe.problem -> heur_ii:int option -> cert
(** Walk II upward from the loop's MII, deciding each value exactly,
    until the first feasible II (the optimum), the search space below
    the heuristic's result is exhausted (heuristic proved optimal), or
    the budget runs out (explicit bounded gap). [heur_ii] is lib/pipe's
    achieved II when it pipelined the loop ([None] when it skipped);
    the walk caps at [heur_ii - 1] respectively [p_list_ci - 1] — IIs
    at or past those bounds are never an improvement. *)
