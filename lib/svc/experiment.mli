(** The paper's evaluation harness (Section 3): compile each loop nest
    at each level, simulate on each machine, aggregate speedups (vs. the
    issue-1 Conv base) and register usage into the distributions of
    Figures 8-15.

    Every entry point takes the consolidated {!Opts.t}. Every
    measurement — a bench cell, a subject's base, a served request —
    goes through {!measure}, which consults and fills the persistent
    {!Store} when the caller passes one. *)

open Impact_ir
open Impact_core

type subject = {
  sname : string;
  group : string;  (** "doall" | "doacross" | "serial" *)
  ast : Impact_fir.Ast.program;
}

type cell = {
  subject : subject;
  level : Level.t;
  machine : Machine.t;
  cycles : int;
  dyn_insns : int;
  speedup : float;
  int_regs : int;
  float_regs : int;
}

val total_regs : cell -> int

val query : subject -> Opts.t -> Level.t -> Machine.t -> Query.t
(** The store key of one measurement. The subject's content digest is
    memoized per process, keyed by its AST value (physical identity),
    never by its name. *)

val measure :
  ?store:Store.t ->
  ?prefix:Prog.t Lazy.t ->
  subject ->
  Opts.t ->
  Level.t ->
  Machine.t ->
  string * Compile.measurement
(** One measurement and its cache disposition: ["off"] without a store;
    with one, ["hit"] when {!Store.lookup} answers it, else ["miss"]
    after computing it and offering it to {!Store.add}. [prefix] is the
    level's transformed program ({!Compile.transform_with}), shared
    across machines and forced only on a miss; by default it is computed
    from a fresh lowering. May raise [Impact_sim.Sim.Timeout]; a timeout
    is never stored. *)

val base_measurement_with : ?store:Store.t -> Opts.t -> subject -> Compile.measurement
(** The issue-1 Conv base measurement for a subject under
    [Opts.base opts] (always list-scheduled), through {!measure} and
    memoized for the life of the process, keyed by the subject's AST
    value, unroll and fuel. May raise [Impact_sim.Sim.Timeout]. *)

val clear_base_cache : unit -> unit

val run_all_with :
  ?store:Store.t ->
  ?workers:int ->
  ?progress:(string -> unit) ->
  Opts.t ->
  Machine.t list ->
  Level.t list ->
  subject list ->
  cell list
(** Evaluate the full matrix on the domain pool, one task per subject
    ([workers] defaults to [Impact_exec.Pool.resolve_workers ()]), every
    cell and base through {!measure}. The returned cell list is
    deterministic and identical for any worker count — with or without
    a warm store; [progress] runs on worker domains; poisoned cells are
    left out and reported on stderr after the join, in subject order. *)

val cells_csv : cell list -> string
(** Per-cell listing, one CSV row per cell. *)

val filter_cells :
  ?group:string -> ?level:Level.t -> ?machine:Machine.t -> cell list -> cell list
(** [~group:"non-doall"] selects everything that is not DOALL. *)

val avg_speedup : cell list -> float

val avg_regs : cell list -> float

val fig8_bounds : float list

val fig9_bounds : float list

val fig10_bounds : float list

val reg_bounds : float list

val speedup_distribution :
  ?group:string -> bounds:float list -> Machine.t -> cell list ->
  (Level.t * int array) list

val register_distribution :
  ?group:string -> Machine.t -> cell list -> (Level.t * int array) list
