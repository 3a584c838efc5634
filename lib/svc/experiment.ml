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
   served from the store — and the issue-1 Conv base measurement is
   memoized per process, so repeated sweeps (summary, ablation, issue
   sweep) pay for it once. Cells are returned in the same deterministic
   order as the sequential evaluation: subjects in input order,
   machine-major within a subject.

   Every measurement, bench cell, base or served request alike, goes
   through [measure]: look the query up in the persistent store when one
   is given, else compute, then offer the result to the store. Only
   successful measurements are stored; timeouts are re-tried on every
   run. *)

open Impact_ir
open Impact_core

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

let total_regs c = c.int_regs + c.float_regs

let default_on_poison p =
  (* One write so concurrent domains cannot interleave mid-line. *)
  prerr_string
    (Printf.sprintf "  [poisoned] %s %s %s: simulation fuel exhausted\n"
       p.psubject (Level.to_string p.plevel) p.pmachine);
  flush stderr

(* ---- Per-process memos ----

   Keyed by the subject's AST value (physical identity), never by its
   name: two subjects that share a name but not a source never share an
   entry. A subject's AST is immutable for the life of the process. The
   lists stay short (one entry per subject and base configuration), so a
   linear scan under one mutex is enough. *)

let memo_mutex = Mutex.create ()

let memoize table same key compute =
  let find () = List.find_map (fun (k, v) -> if same k key then Some v else None) !table in
  match Mutex.protect memo_mutex find with
  | Some v -> v
  | None ->
    let v = compute () in
    Mutex.protect memo_mutex (fun () -> table := (key, v) :: !table);
    v

(* Subject digests are content hashes of the AST, computed at most once
   per subject and only when a store asks for a query. *)
let digests : (Impact_fir.Ast.program * string) list ref = ref []

let query (s : subject) opts level machine =
  let subject = memoize digests ( == ) s.ast (fun () -> Query.subject_digest s.ast) in
  Query.make ~subject ~opts level machine

(* ---- The one measurement path ---- *)

let measure ?store ?prefix (s : subject) (opts : Opts.t) level machine =
  let compute () =
    let tp =
      match prefix with
      | Some tp -> Lazy.force tp
      | None -> Compile.transform_with opts level (Impact_fir.Lower.lower s.ast)
    in
    Compile.schedule_and_measure_with opts level machine tp
  in
  match store with
  | None -> ("off", compute ())
  | Some st -> (
    let q = query s opts level machine in
    match Store.lookup st q with
    | Some m -> ("hit", m)
    | None ->
      let m = compute () in
      Store.add st q m;
      ("miss", m))

let bases :
    ((Impact_fir.Ast.program * int option * int option) * Compile.measurement) list ref =
  ref []

let clear_base_cache () = Mutex.protect memo_mutex (fun () -> bases := [])

(* The issue-1 Conv measurement for a subject, computed from a fresh
   lowering (so the memoized value does not depend on who asks first). *)
let base_measurement_with ?store (opts : Opts.t) (s : subject) : Compile.measurement =
  let bopts = Opts.base opts in
  memoize bases
    (fun (a, u, f) (a', u', f') -> a == a' && u = u' && f = f')
    (s.ast, bopts.Opts.unroll, bopts.Opts.fuel)
    (fun () -> snd (measure ?store s bopts Level.Conv Machine.issue_1))

(* Run one subject across levels and machines; poisoned cells (fuel
   exhaustion) are reported separately instead of aborting the run.
   [opts.sched] selects the per-machine scheduler; the base measurement
   is always list-scheduled (issue-1 Conv), so `Pipe speedups stay
   comparable with the paper's baseline. *)
let run_subject_full ?store (opts : Opts.t) (machines : Machine.t list)
    (levels : Level.t list) (s : subject) : cell list * poisoned list =
  match base_measurement_with ?store opts s with
  | exception Impact_sim.Sim.Timeout ->
    (* No base, no speedups: the whole subject is poisoned. *)
    ( [],
      [ { psubject = s.sname; plevel = Level.Conv;
          pmachine = Machine.issue_1.Machine.name } ] )
  | base ->
    (* Machine-independent prefix, at most once per level, shared by
       machines and forced only on the first store miss of that level.
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
    let cells =
      List.concat_map
        (fun machine ->
          List.filter_map
            (fun (level, prefix) ->
              match measure ?store ~prefix s opts level machine with
              | _, m ->
                Some
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
              | exception Impact_sim.Sim.Timeout ->
                poisons :=
                  { psubject = s.sname; plevel = level;
                    pmachine = machine.Machine.name }
                  :: !poisons;
                None)
            transformed)
        machines
    in
    (cells, List.rev !poisons)

let run_all_with ?store ?workers ?(progress = fun _ -> ())
    ?(on_poison = default_on_poison) (opts : Opts.t) (machines : Machine.t list)
    (levels : Level.t list) (subjects : subject list) : cell list =
  let results =
    Impact_exec.Pool.map ?workers
      (fun s ->
        progress s.sname;
        run_subject_full ?store opts machines levels s)
      (Array.of_list subjects)
  in
  (* Poison reports after the join, in deterministic subject order. *)
  Array.iter (fun (_, ps) -> List.iter on_poison ps) results;
  List.concat_map fst (Array.to_list results)

(* Per-cell listing, useful for debugging and EXPERIMENTS.md. *)
let cells_csv (cells : cell list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,group,level,machine,cycles,dyn_insns,speedup,int_regs,float_regs\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%s,%d,%d,%.3f,%d,%d\n" c.subject.sname c.subject.group
           (Level.to_string c.level) c.machine.Machine.name c.cycles c.dyn_insns c.speedup
           c.int_regs c.float_regs))
    cells;
  Buffer.contents buf

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
