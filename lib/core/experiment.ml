(* The paper's evaluation harness (Section 3): compile each loop nest at
   each transformation level, simulate on each machine configuration, and
   aggregate speedups (vs. the issue-1 Conv base configuration) and
   register usage.

   The matrix is evaluated on a domain work pool (Impact_exec.Pool),
   one task per subject, so every task owns its lowered program and no
   IR state is shared across domains. Within a subject the machine-
   independent pipeline prefix ([Compile.transform_with]) is computed at
   most once per (level, opts) and shared across all machine
   configurations — and skipped entirely when every machine's cell is
   served from the measurement cache — and the issue-1 Conv base
   measurement is served from a process-wide cache keyed by (subject
   name, unroll, fuel) so repeated sweeps (summary, ablation, issue
   sweep) pay for it once. Cells are returned in the same deterministic
   order as the sequential evaluation: subjects in input order,
   machine-major within a subject.

   An optional measurement cache ([set_cache]) is consulted before any
   per-cell work is scheduled; Impact_svc.Service installs hooks backed
   by the persistent content-addressed store, so a warm re-run of the
   matrix never recompiles or resimulates a cell. The harness itself
   stays cache-agnostic: hooks receive the subject and the resolved
   options and may key the entry however they like. Only successful
   measurements are offered to [store]; timeouts are re-tried on every
   run. *)

open Impact_ir

type subject = {
  sname : string;
  group : string;  (* "doall" | "doacross" | "serial" *)
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

type cache = {
  lookup : subject -> Opts.t -> Level.t -> Machine.t -> Compile.measurement option;
  store : subject -> Opts.t -> Level.t -> Machine.t -> Compile.measurement -> unit;
}

(* Installed once by the driver before any evaluation; worker domains
   only ever read it, so an atomic reference suffices. *)
let cache_hooks : cache option Atomic.t = Atomic.make None

let set_cache c = Atomic.set cache_hooks c

let cache_lookup s opts level machine =
  match Atomic.get cache_hooks with
  | None -> None
  | Some c -> c.lookup s opts level machine

let cache_store s opts level machine m =
  match Atomic.get cache_hooks with
  | None -> ()
  | Some c -> c.store s opts level machine m

let total_regs c = c.int_regs + c.float_regs

let default_on_poison p =
  (* One write so concurrent domains cannot interleave mid-line. *)
  prerr_string
    (Printf.sprintf "  [poisoned] %s %s %s: simulation fuel exhausted\n"
       p.psubject (Level.to_string p.plevel) p.pmachine);
  flush stderr

(* ---- Base-measurement cache ---- *)

let base_mutex = Mutex.create ()

let base_cache : (string * int option * int option, Compile.measurement) Hashtbl.t =
  Hashtbl.create 64

let clear_base_cache () =
  Mutex.lock base_mutex;
  Hashtbl.reset base_cache;
  Mutex.unlock base_mutex

(* The issue-1 Conv measurement for a subject, computed from a fresh
   lowering (so the cached value does not depend on who asks first) and
   cached for the life of the process; the persistent measurement cache
   (when installed) is consulted before computing. *)
let base_measurement_with (opts : Opts.t) (s : subject) : Compile.measurement =
  let bopts = Opts.base opts in
  let key = (s.sname, bopts.Opts.unroll, bopts.Opts.fuel) in
  let cached =
    Mutex.lock base_mutex;
    let r = Hashtbl.find_opt base_cache key in
    Mutex.unlock base_mutex;
    r
  in
  match cached with
  | Some m -> m
  | None ->
    let m =
      match cache_lookup s bopts Level.Conv Machine.issue_1 with
      | Some m -> m
      | None ->
        let m =
          Compile.measure_with bopts Level.Conv Machine.issue_1
            (Impact_fir.Lower.lower s.ast)
        in
        cache_store s bopts Level.Conv Machine.issue_1 m;
        m
    in
    Mutex.lock base_mutex;
    Hashtbl.replace base_cache key m;
    Mutex.unlock base_mutex;
    m

(* Run one subject across levels and machines; poisoned cells (fuel
   exhaustion) are reported separately instead of aborting the run.
   [opts.sched] selects the per-machine scheduler; the base measurement
   is always list-scheduled (issue-1 Conv), so `Pipe speedups stay
   comparable with the paper's baseline. *)
let run_subject_full (opts : Opts.t) (machines : Machine.t list)
    (levels : Level.t list) (s : subject) : cell list * poisoned list =
  match base_measurement_with opts s with
  | exception Impact_sim.Sim.Timeout ->
    (* No base, no speedups: the whole subject is poisoned. *)
    ( [],
      [ { psubject = s.sname; plevel = Level.Conv;
          pmachine = Machine.issue_1.Machine.name } ] )
  | base ->
    (* Machine-independent prefix, at most once per level, shared by
       machines and forced only on the first cache miss of that level.
       Each level starts from its own fresh lowering so the id streams
       (and hence allocator tie-breaks) match a standalone
       [Compile.measure_with] of that cell exactly. *)
    let transformed =
      List.map
        (fun level ->
          ( level,
            lazy (Compile.transform_with opts level (Impact_fir.Lower.lower s.ast)) ))
        levels
    in
    let poisons = ref [] in
    let cell_of_measurement level machine (m : Compile.measurement) =
      {
        subject = s;
        level;
        machine;
        cycles = m.Compile.cycles;
        dyn_insns = m.Compile.dyn_insns;
        speedup = Compile.speedup ~base ~this:m;
        int_regs = m.Compile.usage.Impact_regalloc.Regalloc.int_used;
        float_regs = m.Compile.usage.Impact_regalloc.Regalloc.float_used;
      }
    in
    let cells =
      List.concat_map
        (fun machine ->
          List.filter_map
            (fun (level, tp) ->
              match cache_lookup s opts level machine with
              | Some m -> Some (cell_of_measurement level machine m)
              | None -> (
                match
                  Compile.schedule_and_measure_with opts level machine
                    (Lazy.force tp)
                with
                | m ->
                  cache_store s opts level machine m;
                  Some (cell_of_measurement level machine m)
                | exception Impact_sim.Sim.Timeout ->
                  poisons :=
                    { psubject = s.sname; plevel = level;
                      pmachine = machine.Machine.name }
                    :: !poisons;
                  None))
            transformed)
        machines
    in
    (cells, List.rev !poisons)

let run_all_with ?workers ?(progress = fun _ -> ())
    ?(on_poison = default_on_poison) (opts : Opts.t) (machines : Machine.t list)
    (levels : Level.t list) (subjects : subject list) : cell list =
  let results =
    Impact_exec.Pool.map ?workers
      (fun s ->
        progress s.sname;
        run_subject_full opts machines levels s)
      (Array.of_list subjects)
  in
  (* Poison reports after the join, in deterministic subject order. *)
  Array.iter (fun (_, ps) -> List.iter on_poison ps) results;
  List.concat_map fst (Array.to_list results)

(* ---- Aggregation ---- *)

let filter_cells ?group ?level ?machine (cells : cell list) =
  List.filter
    (fun c ->
      (match group with
      | Some g -> (if g = "non-doall" then c.subject.group <> "doall" else c.subject.group = g)
      | None -> true)
      && (match level with Some l -> c.level = l | None -> true)
      && match machine with Some m -> c.machine.Machine.name = m.Machine.name | None -> true)
    cells

let average f cells =
  match cells with
  | [] -> nan
  | _ -> List.fold_left (fun acc c -> acc +. f c) 0.0 cells /. float_of_int (List.length cells)

let avg_speedup cells = average (fun c -> c.speedup) cells

let avg_regs cells = average (fun c -> float_of_int (total_regs c)) cells

(* Histogram of [f] over cells using right-open bins given by their lower
   bounds; the last bin is unbounded. *)
let histogram ~(bounds : float list) (f : cell -> float) (cells : cell list) : int array
    =
  let bounds = Array.of_list bounds in
  let counts = Array.make (Array.length bounds) 0 in
  List.iter
    (fun c ->
      let x = f c in
      let bin = ref 0 in
      Array.iteri (fun k b -> if x >= b then bin := k) bounds;
      counts.(!bin) <- counts.(!bin) + 1)
    cells;
  counts

(* The paper's figure bin boundaries. *)

let fig8_bounds = [ 0.0; 1.25; 1.5; 1.75; 2.0; 2.5; 3.0 ]

let fig8_labels =
  [ "0.00-1.24"; "1.25-1.49"; "1.50-1.74"; "1.75-1.99"; "2.00-2.49"; "2.50-2.99"; "3.00+" ]

let fig9_bounds = [ 0.0; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0; 5.0; 6.0 ]

let fig9_labels =
  [
    "0.00-1.49"; "1.50-1.99"; "2.00-2.49"; "2.50-2.99"; "3.00-3.49"; "3.50-3.99";
    "4.00-4.99"; "5.00-5.99"; "6.00+";
  ]

let fig10_bounds = [ 0.0; 2.0; 2.5; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 ]

let fig10_labels =
  [
    "0.00-1.99"; "2.00-2.49"; "2.50-2.99"; "3.00-3.99"; "4.00-4.99"; "5.00-5.99";
    "6.00-6.99"; "7.00-7.99"; "8.00+";
  ]

let reg_bounds = [ 0.0; 16.0; 32.0; 48.0; 64.0; 96.0; 128.0 ]

let reg_labels = [ "0-15"; "16-31"; "32-47"; "48-63"; "64-95"; "96-127"; "128+" ]

(* Speedup distribution for a machine (per level). *)
let speedup_distribution ?group ~bounds machine cells :
    (Level.t * int array) list =
  List.map
    (fun level ->
      let cs = filter_cells ?group ~level ~machine cells in
      (level, histogram ~bounds (fun c -> c.speedup) cs))
    Level.all

let register_distribution ?group machine cells : (Level.t * int array) list =
  List.map
    (fun level ->
      let cs = filter_cells ?group ~level ~machine cells in
      (level, histogram ~bounds:reg_bounds (fun c -> float_of_int (total_regs c)) cs))
    Level.all
