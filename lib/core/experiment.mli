(** The paper's evaluation harness (Section 3): compile each loop nest
    at each level, simulate on each machine, aggregate speedups (vs. the
    issue-1 Conv base) and register usage into the distributions of
    Figures 8-15.

    Every entry point takes the consolidated {!Opts.t}. An optional
    measurement cache ({!set_cache}) is consulted before any per-cell
    compilation or simulation is scheduled. *)

open Impact_ir

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

type poisoned = { psubject : string; plevel : Level.t; pmachine : string }
(** A cell whose simulation exhausted its fuel; named so the harness can
    report it without crashing the run. *)

type cache = {
  lookup : subject -> Opts.t -> Level.t -> Machine.t -> Compile.measurement option;
  store : subject -> Opts.t -> Level.t -> Machine.t -> Compile.measurement -> unit;
}
(** Measurement-cache hooks. [lookup] runs before any cell work is
    scheduled (a [Some] result must be byte-equivalent to recomputing);
    [store] is offered every successfully computed measurement. Both may
    be called concurrently from worker domains. *)

val set_cache : cache option -> unit
(** Install (or remove) the measurement cache consulted by
    {!base_measurement_with} and {!run_all_with}.
    [Impact_svc.Service.install_cache] provides hooks backed by the
    persistent content-addressed store. *)

val total_regs : cell -> int

val base_measurement_with : Opts.t -> subject -> Compile.measurement
(** The issue-1 Conv base measurement for a subject under
    [Opts.base opts] (always list-scheduled), cached for the life of the
    process (keyed by subject name, unroll and fuel) and served from the
    installed measurement cache when possible. May raise
    [Impact_sim.Sim.Timeout]. *)

val clear_base_cache : unit -> unit

val run_all_with :
  ?workers:int ->
  ?progress:(string -> unit) ->
  ?on_poison:(poisoned -> unit) ->
  Opts.t ->
  Machine.t list ->
  Level.t list ->
  subject list ->
  cell list
(** Evaluate the full matrix on the domain pool, one task per subject
    ([workers] defaults to [Impact_exec.Pool.resolve_workers ()]). The
    returned cell list is deterministic and identical for any worker
    count — with or without a warm measurement cache; [progress] runs on
    worker domains, poison reports are delivered after the join in
    subject order. *)

val filter_cells :
  ?group:string -> ?level:Level.t -> ?machine:Machine.t -> cell list -> cell list
(** [~group:"non-doall"] selects everything that is not DOALL. *)

val avg_speedup : cell list -> float

val avg_regs : cell list -> float

val fig8_bounds : float list

val fig8_labels : string list

val fig9_bounds : float list

val fig9_labels : string list

val fig10_bounds : float list

val fig10_labels : string list

val reg_labels : string list

val speedup_distribution :
  ?group:string -> bounds:float list -> Machine.t -> cell list ->
  (Level.t * int array) list

val register_distribution :
  ?group:string -> Machine.t -> cell list -> (Level.t * int array) list
