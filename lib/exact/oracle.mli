(** Corpus-wide certification harness: run the exact solver over every
    innermost loop of the 40-kernel suite across the evaluation
    matrix's machines on the executor pool, and render the result as a
    human table and as the committed [BENCH_oracle.json] artifact
    (schema [impact-bench-oracle/1]).

    One task per (subject, machine) pair, joined in input order — the
    row list, the table and the JSON document are byte-identical for
    any worker count. The JSON body deliberately carries no timestamp
    or worker count so that t_exec can pin [-j 1] = [-j 8] equality,
    and CI can diff a fresh run against the committed baseline. *)

type row = {
  r_subject : string;
  r_machine : string;
  r_lid : int;
  r_status : string;
      (** [optimal] | [suboptimal] | [bounded] — pipelined loops;
          [skip-confirmed] | [skip-missed] | [skip-open] — analyzable
          loops IMS declined; [ineligible] — never reached dependence
          analysis *)
  r_reason : string option;  (** IMS's skip reason, when skipped *)
  r_heur_ii : int option;
  r_list_ci : int option;
  r_res_mii : int option;
  r_rec_mii : int option;
  r_mii : int option;
  r_lb : int option;  (** certified lower bound on the optimal II *)
  r_ub : int option;  (** smallest known-feasible II *)
  r_gap : int option;
      (** [heur_ii - lb]: 0 proved optimal; positive with
          [r_proved = true] proved suboptimal; positive with
          [r_proved = false] a bounded gap *)
  r_proved : bool option;
  r_nodes : int;
}

val smoke_names : string list
(** The CI smoke subset, shared by [bench pipe-smoke], [ooo-smoke]
    and [oracle-smoke]. *)

val certify_loop :
  budget:int ->
  subject:string ->
  machine:string ->
  Impact_pipe.Pipe.report * Impact_pipe.Pipe.problem option ->
  row
(** Certify one loop's report+problem pair (the unit [run] maps over the
    corpus; [impactc certify] maps it over a single kernel's loops). *)

val run :
  ?workers:int -> ?budget:int -> ?only:string list -> unit -> row list
(** Certify the corpus: subjects in suite order (filtered to [only]
    when given), machines in matrix order, loops in program order. *)

val doc : budget:int -> row list -> string
(** The [BENCH_oracle.json] document (trailing newline included). *)

val table : budget:int -> row list -> string
(** Human-readable per-loop table with a summary footer. *)
