(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 3) from our implementation. The evaluation matrix
   runs on the domain work pool (Impact_exec.Pool); worker count comes
   from -j N, the IMPACT_JOBS environment variable, or the core count,
   in that order.

   Usage:
     main.exe [-j N]          run the tables, figures, summary and
                              ablation
     main.exe fig8 ... fig15  specific figures
     main.exe table1 table2 summary ablation csv
     main.exe json            write per-stage timings, the host factor
                              they are guarded by, summary speedups and
                              telemetry metrics to BENCH_eval.json
     main.exe --trace-out f.json ...
                              additionally record every span as a
                              Chrome trace_event JSON (Perfetto)
     main.exe --no-cache | --cache-dir DIR
                              persistent result cache control

   The evaluation matrix consults the persistent content-addressed
   result cache (default directory _cache/, overridable with
   --cache-dir or IMPACT_CACHE_DIR; disable with --no-cache or
   IMPACT_CACHE=0), so a warm re-run answers every cell from disk.
   Cache hit/miss totals go to stderr; stdout is byte-identical cold
   or warm, at any worker count.

   Stage timings are printed to stderr at the end of every run; all
   tables and figures on stdout stay byte-identical for any worker
   count. Unknown arguments are an error (exit 2). *)

open Impact_ir
open Impact_core
module Experiment = Impact_svc.Experiment

(* Resolved options for the whole matrix: the defaults, i.e. list
   scheduling, Level's unroll factor, Sim's fuel. Echoed into
   BENCH_eval.json's [config]. *)
let bench_opts = Opts.default

(* Persistent result cache: on by default, off with --no-cache or
   IMPACT_CACHE=0; directory from --cache-dir, else IMPACT_CACHE_DIR,
   else _cache/. *)
let cache_enabled = ref (Sys.getenv_opt "IMPACT_CACHE" <> Some "0")
let cache_dir = ref (Impact_svc.Store.resolve_dir ())
let cache_store : Impact_svc.Store.t option ref = ref None

let subjects : Experiment.subject list =
  List.map Impact_svc.Service.subject_of_workload Impact_workloads.Suite.all

let machines = Report.matrix_machines ()

(* Wall-clock of forcing the full evaluation matrix (for `json`). *)
let cells_wall = ref 0.0

(* The full evaluation matrix, computed once on demand. *)
let cells : Experiment.cell list Lazy.t =
  lazy
    (let t0 = Impact_obs.Obs.now () in
     let cs =
       Experiment.run_all_with ?store:!cache_store
         ~progress:(fun name ->
           prerr_string (Printf.sprintf "  [run] %s\n" name);
           flush stderr)
         bench_opts machines Level.all subjects
     in
     cells_wall := Impact_obs.Obs.now () -. t0;
     cs)

let print_table1 () = print_string (Report.table1 ())

let print_table2 () =
  Printf.printf "Table 2: loop nest descriptions (our kernels vs. paper labels)\n";
  Printf.printf "%-12s %-8s %4s %5s %4s %-9s %-9s %5s\n" "Name" "Origin" "Size" "Iters"
    "Nest" "Type" "OurClass" "Conds";
  print_string (String.make 70 '-');
  print_newline ();
  List.iter
    (fun (w : Impact_workloads.Suite.t) ->
      let p = Impact_opt.Conv.run (Impact_fir.Lower.lower w.Impact_workloads.Suite.ast) in
      let ours =
        match List.filter Block.is_innermost (Block.loops p.Prog.entry) with
        | l :: _ ->
          Impact_analysis.Classify.to_string (Impact_analysis.Classify.classify l)
        | [] -> "?"
      in
      Printf.printf "%-12s %-8s %4d %5d %4d %-9s %-9s %5s\n"
        w.Impact_workloads.Suite.name w.Impact_workloads.Suite.origin
        w.Impact_workloads.Suite.size w.Impact_workloads.Suite.iters
        w.Impact_workloads.Suite.nest
        (Impact_workloads.Suite.ltype_to_string w.Impact_workloads.Suite.ltype)
        ours
        (if w.Impact_workloads.Suite.conds then "yes" else "no"))
    Impact_workloads.Suite.all

let speedup_figure ~title ?group ~bounds ~labels machine =
  let dist = Experiment.speedup_distribution ?group ~bounds machine (Lazy.force cells) in
  print_string (Report.distribution_table ~title ~labels dist)

let register_figure ~title ?group machine =
  let dist = Experiment.register_distribution ?group machine (Lazy.force cells) in
  print_string (Report.distribution_table ~title ~labels:Experiment.reg_labels dist)

let print_fig8 () =
  speedup_figure ~title:"Figure 8: speedup distribution, issue-2"
    ~bounds:Experiment.fig8_bounds ~labels:Experiment.fig8_labels Machine.issue_2

let print_fig9 () =
  speedup_figure ~title:"Figure 9: speedup distribution, issue-4"
    ~bounds:Experiment.fig9_bounds ~labels:Experiment.fig9_labels Machine.issue_4

let print_fig10 () =
  speedup_figure ~title:"Figure 10: speedup distribution, issue-8"
    ~bounds:Experiment.fig10_bounds ~labels:Experiment.fig10_labels Machine.issue_8

let print_fig11 () =
  register_figure ~title:"Figure 11: register usage distribution, issue-8"
    Machine.issue_8

let print_fig12 () =
  speedup_figure ~title:"Figure 12: speedup distribution of DOALL loops, issue-8"
    ~group:"doall" ~bounds:Experiment.fig10_bounds ~labels:Experiment.fig10_labels
    Machine.issue_8

let print_fig13 () =
  register_figure ~title:"Figure 13: register usage of DOALL loops, issue-8"
    ~group:"doall" Machine.issue_8

let print_fig14 () =
  speedup_figure ~title:"Figure 14: speedup distribution of non-DOALL loops, issue-8"
    ~group:"non-doall" ~bounds:Experiment.fig10_bounds ~labels:Experiment.fig10_labels
    Machine.issue_8

let print_fig15 () =
  register_figure ~title:"Figure 15: register usage of non-DOALL loops, issue-8"
    ~group:"non-doall" Machine.issue_8

(* Summary quantities (Section 3.2 / Section 4), shared by the text
   summary and the `json` emitter. *)
let summary_stats cs : (string * float) list =
  let avg ?group level machine =
    Experiment.avg_speedup (Experiment.filter_cells ?group ~level ~machine cs)
  in
  let avg_r level =
    Experiment.avg_regs (Experiment.filter_cells ~level ~machine:Machine.issue_8 cs)
  in
  let within128 =
    float_of_int
      (List.length
         (List.filter
            (fun c -> Experiment.total_regs c < 128)
            (Experiment.filter_cells ~level:Level.Lev4 ~machine:Machine.issue_8 cs)))
  in
  [
    ("speedup_lev3_issue4", avg Level.Lev3 Machine.issue_4);
    ("speedup_lev4_issue4", avg Level.Lev4 Machine.issue_4);
    ("speedup_lev3_issue8", avg Level.Lev3 Machine.issue_8);
    ("speedup_lev4_issue8", avg Level.Lev4 Machine.issue_8);
    ("speedup_lev2_issue8", avg Level.Lev2 Machine.issue_8);
    ("speedup_lev2_issue8_doall", avg ~group:"doall" Level.Lev2 Machine.issue_8);
    ("speedup_lev2_issue8_nondoall", avg ~group:"non-doall" Level.Lev2 Machine.issue_8);
    ("speedup_lev4_issue8_doall", avg ~group:"doall" Level.Lev4 Machine.issue_8);
    ("speedup_lev4_issue8_nondoall", avg ~group:"non-doall" Level.Lev4 Machine.issue_8);
    ("regs_lev1_issue8", avg_r Level.Lev1);
    ("regs_lev2_issue8", avg_r Level.Lev2);
    ("regs_lev3_issue8", avg_r Level.Lev3);
    ("regs_lev4_issue8", avg_r Level.Lev4);
    ("reg_growth_conv_to_lev4", avg_r Level.Lev4 /. avg_r Level.Conv);
    ("loops_under_128_regs_lev4_issue8", within128);
  ]

let print_summary () =
  let cs = Lazy.force cells in
  let stats = summary_stats cs in
  let g name = List.assoc name stats in
  Printf.printf "Summary (Section 3.2 / Section 4 quantities; paper values in parens)\n";
  Printf.printf "%s\n" (String.make 72 '-');
  Printf.printf "avg speedup issue-4: Lev3 %.2f (3.73)   Lev4 %.2f (4.35)\n"
    (g "speedup_lev3_issue4") (g "speedup_lev4_issue4");
  Printf.printf "avg speedup issue-8: Lev3 %.2f (5.10)   Lev4 %.2f (6.68)\n"
    (g "speedup_lev3_issue8") (g "speedup_lev4_issue8");
  Printf.printf "issue-8 Lev2 overall %.2f (5.1)  doall %.2f (6.8)  non-doall %.2f (3.7)\n"
    (g "speedup_lev2_issue8")
    (g "speedup_lev2_issue8_doall")
    (g "speedup_lev2_issue8_nondoall");
  Printf.printf "issue-8 Lev4 doall %.2f (7.8)  non-doall %.2f (5.8)\n"
    (g "speedup_lev4_issue8_doall")
    (g "speedup_lev4_issue8_nondoall");
  Printf.printf
    "avg registers issue-8: Lev1 %.0f (28)  Lev2 %.0f (57)  Lev3 %.0f (65)  Lev4 %.0f (71)\n"
    (g "regs_lev1_issue8") (g "regs_lev2_issue8") (g "regs_lev3_issue8")
    (g "regs_lev4_issue8");
  Printf.printf "register growth Conv->Lev4 issue-8: %.1fx (2.6x)\n"
    (g "reg_growth_conv_to_lev4");
  Printf.printf "loops under 128 registers at Lev4, issue-8: %.0f/40 (37/40)\n"
    (g "loops_under_128_regs_lev4_issue8")

(* Leave-one-out ablation at issue-8: Lev4's pass list minus one name
   per row; a name not in the list exactly once stops the run. Bases
   come from the process-wide cache; subjects run on the pool. *)
let print_ablation () =
  let lev4 = Level.pipeline Level.Lev4 in
  let without name =
    match List.partition (fun (n, _) -> n = name) lev4 with
    | [ _ ], rest -> rest
    | hits, _ ->
      Printf.eprintf "ablation removes %S, which Lev4's pass list holds %d times\n" name
        (List.length hits);
      exit 2
  in
  let variants =
    ("full Lev4", lev4)
    :: List.map
         (fun (label, name) -> (label, without name))
         [ ("no renaming", "rename"); ("no accumulator exp.", "accum_expand");
           ("no induction exp.", "ind_expand"); ("no search exp.", "search_expand");
           ("no combining", "combine"); ("no strength red.", "strength");
           ("no tree height red.", "tree_height") ]
  in
  Printf.printf "Ablation: average issue-8 speedup of Lev4 with one transformation removed\n";
  Printf.printf "%s\n" (String.make 72 '-');
  List.iter
    (fun (name, passes) ->
      let speedups =
        Impact_exec.Pool.map_list
          (fun (s : Experiment.subject) ->
            let base = Experiment.base_measurement_with ?store:!cache_store bench_opts s in
            let p = Level.run passes (Impact_fir.Lower.lower s.Experiment.ast) in
            let p = Impact_sched.Superblock.run p in
            let p = Impact_sched.List_sched.run Machine.issue_8 p in
            let r = Impact_sim.Sim.run Machine.issue_8 p in
            float_of_int base.Compile.cycles /. float_of_int r.Impact_sim.Sim.cycles)
          subjects
      in
      let avg = List.fold_left ( +. ) 0.0 speedups /. float_of_int (List.length speedups) in
      Printf.printf "%-24s %.2f\n%!" name avg)
    variants

let print_csv () = print_string (Experiment.cells_csv (Lazy.force cells))

(* ---- `pipe`: software pipelining vs list scheduling ---- *)

(* Outputs equal within the suites' float tolerance? *)
let same_result ?(tol = 1e-6) (a : Impact_sim.Sim.result) (b : Impact_sim.Sim.result) =
  let close x y =
    let d = abs_float (x -. y) in
    d <= tol *. (1.0 +. max (abs_float x) (abs_float y))
  in
  List.for_all2
    (fun (n1, v1) (n2, v2) ->
      n1 = n2
      &&
      match (v1, v2) with
      | Impact_sim.Sim.VI x, Impact_sim.Sim.VI y -> x = y
      | Impact_sim.Sim.VF x, Impact_sim.Sim.VF y -> close x y
      | _ -> false)
    a.Impact_sim.Sim.outputs b.Impact_sim.Sim.outputs
  && List.for_all2
       (fun (n1, x1) (n2, x2) ->
         n1 = n2 && Array.length x1 = Array.length x2
         && Array.for_all2 close x1 x2)
       a.Impact_sim.Sim.arrays_out b.Impact_sim.Sim.arrays_out

type pipe_row = {
  pm : Machine.t;
  plist_cycles : int;
  ppipe_cycles : int;
  pok : bool;  (* pipelined outputs match the issue-1 Conv baseline *)
  preports : Impact_pipe.Pipe.report list;
}

(* Evaluate every subject under both schedulers on the work pool. The
   result (and hence the printed table) is deterministic and identical
   for any worker count: one task per subject, joined in input order. *)
let pipe_eval (mlist : Machine.t list) (ss : Experiment.subject list) :
    (Experiment.subject * pipe_row list) list =
  Impact_exec.Pool.map_list
    (fun (s : Experiment.subject) ->
      let base = Experiment.base_measurement_with ?store:!cache_store bench_opts s in
      let tp =
        Compile.transform_with bench_opts Level.Conv
          (Impact_fir.Lower.lower s.Experiment.ast)
      in
      let rows =
        List.map
          (fun machine ->
            let lr = Impact_sim.Sim.run machine (Compile.schedule_with bench_opts machine tp) in
            let piped, reports = Impact_pipe.Pipe.run_with_report machine tp in
            let pr = Impact_sim.Sim.run machine piped in
            {
              pm = machine;
              plist_cycles = lr.Impact_sim.Sim.cycles;
              ppipe_cycles = pr.Impact_sim.Sim.cycles;
              pok = same_result base.Compile.result pr;
              preports = reports;
            })
          mlist
      in
      (s, rows))
    ss

type pipe_totals = {
  tloops : int;  (* innermost loop instances across the matrix *)
  tpipelined : int;
  tmismatch : int;  (* subject x machine output mismatches (want 0) *)
  tratio_sum : float;  (* sum of II / list-cycles-per-iteration *)
}

let pipe_totals (data : (Experiment.subject * pipe_row list) list) : pipe_totals =
  List.fold_left
    (fun acc (_, rows) ->
      List.fold_left
        (fun acc row ->
          let acc =
            if row.pok then acc else { acc with tmismatch = acc.tmismatch + 1 }
          in
          List.fold_left
            (fun acc (r : Impact_pipe.Pipe.report) ->
              match r.Impact_pipe.Pipe.status with
              | Impact_pipe.Pipe.Pipelined i ->
                {
                  acc with
                  tloops = acc.tloops + 1;
                  tpipelined = acc.tpipelined + 1;
                  tratio_sum =
                    acc.tratio_sum
                    +. (float_of_int i.Impact_pipe.Pipe.ii
                        /. float_of_int i.Impact_pipe.Pipe.list_ci);
                }
              | Impact_pipe.Pipe.Skipped _ -> { acc with tloops = acc.tloops + 1 })
            acc row.preports)
        acc rows)
    { tloops = 0; tpipelined = 0; tmismatch = 0; tratio_sum = 0.0 }
    data

let print_pipe_table (data : (Experiment.subject * pipe_row list) list) =
  Printf.printf
    "Software pipelining (iterative modulo scheduling) vs list scheduling\n";
  Printf.printf
    "Conv transform; pipelined outputs checked against the issue-1 Conv baseline\n";
  Printf.printf "%s\n" (String.make 104 '-');
  Printf.printf "%-12s %-8s %4s %5s %6s %6s %4s %4s %3s %3s %5s  %s\n" "subject"
    "machine" "loop" "trip" "ResMII" "RecMII" "MII" "II" "SC" "K" "list" "status";
  List.iter
    (fun ((s : Experiment.subject), rows) ->
      List.iter
        (fun row ->
          List.iter
            (fun (r : Impact_pipe.Pipe.report) ->
              match r.Impact_pipe.Pipe.status with
              | Impact_pipe.Pipe.Pipelined i ->
                Printf.printf
                  "%-12s %-8s %4d %5d %6d %6d %4d %4d %3d %3d %5d  pipelined\n"
                  s.Experiment.sname row.pm.Machine.name r.Impact_pipe.Pipe.lid
                  i.Impact_pipe.Pipe.trip i.Impact_pipe.Pipe.res_mii
                  i.Impact_pipe.Pipe.rec_mii i.Impact_pipe.Pipe.mii
                  i.Impact_pipe.Pipe.ii i.Impact_pipe.Pipe.stages
                  i.Impact_pipe.Pipe.kunroll i.Impact_pipe.Pipe.list_ci
              | Impact_pipe.Pipe.Skipped { reason; list_ci } ->
                Printf.printf "%-12s %-8s %4d %5s %6s %6s %4s %4s %3s %3s %5s  %s\n"
                  s.Experiment.sname row.pm.Machine.name r.Impact_pipe.Pipe.lid "-"
                  "-" "-" "-" "-" "-" "-"
                  (match list_ci with Some c -> string_of_int c | None -> "-")
                  reason)
            row.preports;
          Printf.printf "%-12s %-8s kernel: list %d cyc, pipe %d cyc (%.2fx), outputs %s\n"
            s.Experiment.sname row.pm.Machine.name row.plist_cycles row.ppipe_cycles
            (float_of_int row.plist_cycles /. float_of_int row.ppipe_cycles)
            (if row.pok then "ok" else "MISMATCH"))
        rows)
    data;
  let t = pipe_totals data in
  Printf.printf "%s\n" (String.make 104 '-');
  Printf.printf
    "pipelined %d of %d innermost loop instances; avg II/list = %.2f; output mismatches: %d\n"
    t.tpipelined t.tloops
    (if t.tpipelined = 0 then nan else t.tratio_sum /. float_of_int t.tpipelined)
    t.tmismatch

let print_pipe () = print_pipe_table (pipe_eval machines subjects)

(* The CI subset that pipe-smoke, ooo-smoke and oracle-smoke share. *)
let smoke_subjects =
  List.filter (fun s -> List.mem s.Experiment.sname Impact_exact.Oracle.smoke_names) subjects

let print_pipe_smoke () = print_pipe_table (pipe_eval [ Machine.issue_4 ] smoke_subjects)

(* Exact-oracle certification of the pipeliner (see DESIGN.md "Exact
   scheduling oracle"): every analyzable innermost loop across the
   matrix machines gets a certified optimal II (or an explicit bounded
   gap) from lib/exact's branch-and-bound solver, one executor-pool
   task per subject x machine. `oracle` refreshes BENCH_oracle.json —
   the body is deterministic at any -j, so CI diffs it against the
   committed baseline; `oracle-smoke` certifies the pipe-smoke subset
   under a reduced budget and writes nothing. *)
let oracle_smoke_budget = 20_000

let run_oracle mode =
  let budget, only =
    match mode with
    | `Full -> (Impact_exact.Exact.default_budget, None)
    | `Smoke -> (oracle_smoke_budget, Some Impact_exact.Oracle.smoke_names)
  in
  let rows = Impact_exact.Oracle.run ~budget ?only () in
  print_string (Impact_exact.Oracle.table ~budget rows);
  match mode with
  | `Smoke -> ()
  | `Full ->
    let path = "BENCH_oracle.json" in
    let oc = open_out path in
    output_string oc (Impact_exact.Oracle.doc ~budget rows);
    close_out oc;
    Printf.eprintf "wrote %s\n%!" path

(* Extension figure (ours): average speedup per level across issue rates
   1..16, showing the paper's claim that the demand for higher
   transformation levels grows with the issue rate. *)
let print_issue_sweep () =
  Printf.printf
    "Issue-rate sweep (ours): average speedup per level, issue 1..16\n";
  Printf.printf "%s\n" (String.make 60 '-');
  let issues = [ 1; 2; 4; 8; 16 ] in
  let machines = List.map (fun i -> Machine.make ~issue:i ()) issues in
  let cells = Experiment.run_all_with ?store:!cache_store bench_opts machines Level.all subjects in
  Printf.printf "%-7s" "issue";
  List.iter (fun l -> Printf.printf " %6s" (Level.to_string l)) Level.all;
  print_newline ();
  List.iter
    (fun machine ->
      Printf.printf "%-7d" machine.Machine.issue;
      List.iter
        (fun level ->
          Printf.printf " %6.2f"
            (Experiment.avg_speedup (Experiment.filter_cells ~level ~machine cells)))
        Level.all;
      print_newline ())
    machines

(* Extension table (ours): dynamic-instruction overhead of the
   transformations — the preconditioning loops, expansion bookkeeping and
   tail duplication all add instructions; this shows the price paid for
   the cycle reductions. *)
let print_overhead () =
  Printf.printf
    "Dynamic instruction overhead (ours): dyn insns relative to Conv, issue-8\n";
  Printf.printf "%s\n" (String.make 60 '-');
  let cs = Lazy.force cells in
  let conv_of name =
    match
      List.find_opt
        (fun (c : Experiment.cell) ->
          c.Experiment.subject.Experiment.sname = name
          && c.Experiment.level = Level.Conv
          && c.Experiment.machine.Machine.name = "issue-8")
        cs
    with
    | Some c -> float_of_int c.Experiment.dyn_insns
    | None -> nan
  in
  List.iter
    (fun level ->
      let ratios =
        List.filter_map
          (fun (c : Experiment.cell) ->
            if c.Experiment.level = level && c.Experiment.machine.Machine.name = "issue-8"
            then Some (float_of_int c.Experiment.dyn_insns /. conv_of c.Experiment.subject.Experiment.sname)
            else None)
          cs
      in
      let avg = List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios) in
      let mx = List.fold_left max 0.0 ratios in
      Printf.printf "%-6s avg %.2fx   max %.2fx\n" (Level.to_string level) avg mx)
    Level.all

(* ---- `json`: machine-readable perf trajectory ---- *)

(* Wall-clock of `summary csv` on the pre-engine (sequential,
   re-transforming, interpreting) harness, measured on this host before
   the change. Kept so BENCH_eval.json records the speedup. *)
let seed_summary_wall_s = 10.6

module Json = Impact_obs.Json

(* One artifact document per file, newline-terminated. *)
let write_doc path doc =
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

let write_json path =
  Impact_obs.Obs.reset_stages ();
  (* Collect counters and span totals for the [metrics] object. Scoped
     to the work done from here on: when `json` runs alone (the CI
     invocation) that is the whole matrix; if an earlier argument
     already forced [cells], the transform counters are theirs. *)
  Impact_obs.Obs.set_collecting true;
  (* Calibration slices just before and just after the timed work (see
     Calib): the stage times are guarded divided by this host factor. *)
  let before = Calib.slices 50 in
  let t0 = Impact_obs.Obs.now () in
  let cs = Lazy.force cells in
  let total_wall = Impact_obs.Obs.now () -. t0 in
  let stats = summary_stats cs in
  (* Pipelining pass at issue-8 over the whole suite: records the
     "pipe" stage timing and the achieved-II summary. *)
  let pipe_stats =
    let t = pipe_totals (pipe_eval [ Machine.issue_8 ] subjects) in
    [
      ("loops", Json.Int t.tloops);
      ("pipelined", Json.Int t.tpipelined);
      ( "avg_ii_over_list",
        Json.Float
          (if t.tpipelined = 0 then nan
           else t.tratio_sum /. float_of_int t.tpipelined) );
      ("output_mismatches", Json.Int t.tmismatch);
    ]
  in
  let host_factor = Calib.factor (before @ Calib.slices 50) in
  let stages =
    ("cells_wall_s", Json.Float !cells_wall)
    :: List.map
         (fun (name, secs) -> (name ^ "_busy_s", Json.Float secs))
         (Impact_obs.Obs.stage_snapshot ())
  in
  (* Telemetry totals: pass/pipe/sim counters (deterministic integer
     sums for any worker count) and per-span call counts and busy
     time. *)
  let metrics =
    let rep = Impact_obs.Obs.report () in
    Json.Obj
      [
        ( "counters",
          Json.Obj
            (List.map (fun (k, v) -> (k, Json.Int v)) rep.Impact_obs.Obs.r_counters)
        );
        ( "spans",
          Json.Obj
            (List.map
               (fun (s : Impact_obs.Obs.span_total) ->
                 ( s.Impact_obs.Obs.sp_name,
                   Json.Obj
                     [
                       ("calls", Json.Int s.Impact_obs.Obs.sp_calls);
                       ("busy_s", Json.Float s.Impact_obs.Obs.sp_total_s);
                     ] ))
               rep.Impact_obs.Obs.r_spans) );
      ]
  in
  (* The resolved run configuration (satellite: every run echoes the
     query it answered, so a JSON consumer can key results without
     reverse-engineering defaults). *)
  let config =
    let cache =
      match !cache_store with
      | None -> [ ("enabled", Json.Bool false) ]
      | Some st ->
        ("enabled", Json.Bool true)
        :: ("dir", Json.Str !cache_dir)
        :: Impact_svc.Store.stats_json st
    in
    let opt_int = Option.fold ~none:Json.Null ~some:(fun n -> Json.Int n) in
    Json.Obj
      [
        ("levels", Json.List (List.map (fun l -> Json.Str (Level.to_string l)) Level.all));
        ( "machines",
          Json.List
            (List.map
               (fun (m : Machine.t) ->
                 Json.Obj
                   [
                     ("name", Json.Str m.Machine.name);
                     ("issue", Json.Int m.Machine.issue);
                     ("branch_slots", Json.Int m.Machine.branch_slots);
                   ])
               machines) );
        ("sched", Json.Str (Opts.sched_to_string bench_opts.Opts.sched));
        ("unroll", opt_int bench_opts.Opts.unroll);
        ("fuel", opt_int bench_opts.Opts.fuel);
        ("cache_format_version", Json.Int Impact_svc.Query.format_version);
        ("cache", Json.Obj cache);
      ]
  in
  write_doc path
    (Json.Obj
       [
         ("schema", Json.Str "impact-bench-eval/2");
         ("schema_version", Json.Int 2);
         ("generated_at_unix", Json.Float (Unix.gettimeofday ()));
         ("workers", Json.Int (Impact_exec.Pool.resolve_workers ()));
         ("config", config);
         ("subjects", Json.Int (List.length subjects));
         ("cells", Json.Int (List.length cs));
         ("host_factor", Json.Float host_factor);
         ("total_wall_s", Json.Float total_wall);
         ("seed_summary_wall_s", Json.Float seed_summary_wall_s);
         ("speedup_vs_seed", Json.Float (seed_summary_wall_s /. total_wall));
         ("stages", Json.Obj stages);
         ("summary", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) stats));
         ("pipe", Json.Obj pipe_stats);
         ("metrics", metrics);
       ]);
  Printf.eprintf "wrote %s (%d cells, %.2fs)\n%!" path (List.length cs) total_wall

(* ---- `ooo` / `ooo-smoke`: the out-of-order machine-model matrix ----

   Runs the full level x issue matrix on both cores — the paper's
   in-order interlocked pipeline and the OOO core at reorder-buffer
   sizes 8/32/128 (physical registers matching the ROB) — prints the
   per-core speedup matrix and the Lev1-vs-Lev2 collapse table, and
   writes BENCH_ooo.json. The Lev1->Lev2 step (register renaming +
   accumulator/induction expansion) is precisely what hardware renaming
   subsumes: a large-ROB OOO core pulls the two levels together while
   the in-order core keeps them apart. Speedups stay normalized to the
   issue-1 Conv *in-order* base, so the cores are directly comparable. *)

let ooo_robs = [ 8; 32; 128 ]

type ooo_config = {
  oc_name : string;
  oc_core : Machine.core;
  oc_machines : Machine.t list;
  oc_cells : Experiment.cell list;
}

let ooo_eval (ss : Experiment.subject list) : ooo_config list =
  let eval name core =
    let ms = Report.matrix_machines ~core () in
    {
      oc_name = name;
      oc_core = core;
      oc_machines = ms;
      oc_cells =
        Experiment.run_all_with ?store:!cache_store
          ~progress:(fun n ->
            prerr_string (Printf.sprintf "  [ooo %s] %s\n" name n);
            flush stderr)
          bench_opts ms Level.all ss;
    }
  in
  eval "inorder" Machine.Inorder
  :: List.map
       (fun rob ->
         eval
           (Printf.sprintf "ooo-rob%d" rob)
           (Machine.Ooo { rob; phys_regs = rob }))
       ooo_robs

let ooo_avg (c : ooo_config) level machine =
  Experiment.avg_speedup (Experiment.filter_cells ~level ~machine c.oc_cells)

let ooo_issue8 (c : ooo_config) =
  List.find (fun (m : Machine.t) -> m.Machine.issue = 8) c.oc_machines

let print_ooo_matrix (configs : ooo_config list) =
  Printf.printf
    "Average speedup vs issue-1 Conv in-order, per core x level x issue\n";
  Printf.printf "%s\n" (String.make 60 '-');
  List.iter
    (fun c ->
      Printf.printf "%-12s" c.oc_name;
      List.iter
        (fun (m : Machine.t) -> Printf.printf " %8s" (Printf.sprintf "issue-%d" m.Machine.issue))
        c.oc_machines;
      print_newline ();
      List.iter
        (fun level ->
          Printf.printf "  %-10s" (Level.to_string level);
          List.iter
            (fun m -> Printf.printf " %8.2f" (ooo_avg c level m))
            c.oc_machines;
          print_newline ())
        Level.all)
    configs

let print_ooo_collapse (configs : ooo_config list) =
  Printf.printf
    "Lev1-vs-Lev2 collapse at issue-8: hardware renaming subsumes the\n\
     renaming/expansion level as the reorder buffer grows\n";
  Printf.printf "%s\n" (String.make 60 '-');
  Printf.printf "%-12s %10s %10s %12s\n" "core" "Lev1" "Lev2" "Lev2/Lev1";
  List.iter
    (fun c ->
      let m = ooo_issue8 c in
      let l1 = ooo_avg c Level.Lev1 m in
      let l2 = ooo_avg c Level.Lev2 m in
      Printf.printf "%-12s %10.2f %10.2f %12.2f\n" c.oc_name l1 l2 (l2 /. l1))
    configs

let write_ooo_json path ~mode ~nsubjects (configs : ooo_config list) =
  let config_json c =
    let speedups =
      List.map
        (fun level ->
          ( Level.to_string level,
            Json.Obj
              (List.map
                 (fun (m : Machine.t) ->
                   (string_of_int m.Machine.issue, Json.Float (ooo_avg c level m)))
                 c.oc_machines) ))
        Level.all
    in
    Json.Obj
      ((("name", Json.Str c.oc_name) :: Impact_svc.Service.core_fields c.oc_core)
      @ [
          ("cells", Json.Int (List.length c.oc_cells));
          ("avg_speedup", Json.Obj speedups);
        ])
  in
  let collapse_json c =
    let m = ooo_issue8 c in
    let l1 = ooo_avg c Level.Lev1 m in
    let l2 = ooo_avg c Level.Lev2 m in
    Json.Obj
      [
        ("name", Json.Str c.oc_name);
        ("lev1_issue8", Json.Float l1);
        ("lev2_issue8", Json.Float l2);
        ("lev2_over_lev1", Json.Float (l2 /. l1));
      ]
  in
  write_doc path
    (Json.Obj
       [
         ("schema", Json.Str "impact-bench-ooo/1");
         ("schema_version", Json.Int 1);
         ("mode", Json.Str mode);
         ("generated_at_unix", Json.Float (Unix.gettimeofday ()));
         ("workers", Json.Int (Impact_exec.Pool.resolve_workers ()));
         ("subjects", Json.Int nsubjects);
         ("robs", Json.List (List.map (fun r -> Json.Int r) ooo_robs));
         ("configs", Json.List (List.map config_json configs));
         ("collapse", Json.List (List.map collapse_json configs));
       ]);
  Printf.eprintf "wrote %s (%d configs, %d subjects)\n%!" path
    (List.length configs) nsubjects

let run_ooo mode =
  let ss, mode_name =
    match mode with
    | `Full -> (subjects, "full")
    | `Smoke -> (smoke_subjects, "smoke")
  in
  let configs = ooo_eval ss in
  print_ooo_matrix configs;
  print_newline ();
  print_ooo_collapse configs;
  write_ooo_json "BENCH_ooo.json" ~mode:mode_name ~nsubjects:(List.length ss)
    configs

let usage () =
  prerr_string
    "usage: main.exe [-j N] [--trace-out FILE] [table1 table2 fig8..fig15 \
     summary ablation csv issue-sweep overhead pipe pipe-smoke oracle \
     oracle-smoke ooo ooo-smoke json]\n"

(* Chrome trace destination from --trace-out, when given. *)
let trace_out = ref None

(* Parse -j/--jobs, --trace-out and the cache options out of the
   argument list; returns remaining args. Exits 2 on a malformed
   option. *)
let rec parse_opts acc = function
  | [] -> List.rev acc
  | ("-j" | "--jobs") :: v :: rest -> (
    match int_of_string_opt v with
    | Some n when n >= 1 ->
      Impact_exec.Pool.set_default_workers n;
      parse_opts acc rest
    | Some _ | None ->
      Printf.eprintf "invalid worker count %s\n" v;
      exit 2)
  | ("-j" | "--jobs") :: [] ->
    prerr_string "-j requires a worker count\n";
    exit 2
  | "--trace-out" :: path :: rest ->
    trace_out := Some path;
    Impact_obs.Obs.set_tracing true;
    parse_opts acc rest
  | "--trace-out" :: [] ->
    prerr_string "--trace-out requires a file name\n";
    exit 2
  | "--no-cache" :: rest ->
    cache_enabled := false;
    parse_opts acc rest
  | "--cache-dir" :: dir :: rest ->
    cache_dir := dir;
    parse_opts acc rest
  | "--cache-dir" :: [] ->
    prerr_string "--cache-dir requires a directory\n";
    exit 2
  | arg :: rest -> parse_opts (arg :: acc) rest

(* Stage timings from the spans, to stderr so every table and figure on
   stdout stays byte-identical whether or not telemetry is on. *)
let print_stage_timings () =
  match Impact_obs.Obs.stage_snapshot () with
  | [] -> ()
  | stages ->
    Printf.eprintf "stage timings (busy seconds summed across workers):";
    List.iter (fun (name, secs) -> Printf.eprintf " %s %.3f" name secs) stages;
    prerr_newline ()

(* Cache hit/miss totals, to stderr (stdout stays byte-identical cold or
   warm). The CI warm-rerun step greps this line. *)
let print_cache_stats () =
  Option.iter
    (fun st -> Printf.eprintf "%s\n%!" (Impact_svc.Store.stats_line st))
    !cache_store

let () =
  let args = parse_opts [] (List.tl (Array.to_list Sys.argv)) in
  if !cache_enabled then cache_store := Some (Impact_svc.Store.open_store !cache_dir);
  let args =
    if args = [] then
      [
        "table1"; "table2"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13";
        "fig14"; "fig15"; "summary"; "ablation"; "issue-sweep"; "overhead";
      ]
    else args
  in
  (* Reject unknown arguments before doing any work. *)
  let known =
    [
      "table1"; "table2"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "fig13";
      "fig14"; "fig15"; "summary"; "ablation"; "csv"; "issue-sweep"; "overhead";
      "pipe"; "pipe-smoke"; "oracle"; "oracle-smoke"; "ooo"; "ooo-smoke"; "json";
    ]
  in
  (match List.find_opt (fun a -> not (List.mem a known)) args with
  | Some bad ->
    Printf.eprintf "unknown argument %s\n" bad;
    usage ();
    exit 2
  | None -> ());
  List.iter
    (fun arg ->
      (match arg with
      | "table1" -> print_table1 ()
      | "table2" -> print_table2 ()
      | "fig8" -> print_fig8 ()
      | "fig9" -> print_fig9 ()
      | "fig10" -> print_fig10 ()
      | "fig11" -> print_fig11 ()
      | "fig12" -> print_fig12 ()
      | "fig13" -> print_fig13 ()
      | "fig14" -> print_fig14 ()
      | "fig15" -> print_fig15 ()
      | "summary" -> print_summary ()
      | "ablation" -> print_ablation ()
      | "csv" -> print_csv ()
      | "issue-sweep" -> print_issue_sweep ()
      | "overhead" -> print_overhead ()
      | "pipe" -> print_pipe ()
      | "pipe-smoke" -> print_pipe_smoke ()
      | "oracle" -> run_oracle `Full
      | "oracle-smoke" -> run_oracle `Smoke
      | "ooo" -> run_ooo `Full
      | "ooo-smoke" -> run_ooo `Smoke
      | "json" -> write_json "BENCH_eval.json"
      | _ -> assert false);
      print_newline ())
    args;
  print_stage_timings ();
  print_cache_stats ();
  match !trace_out with
  | Some path ->
    Impact_obs.Obs.write_trace path;
    Printf.eprintf "wrote %s (%d trace events)\n%!" path
      (List.length (Impact_obs.Obs.events ()))
  | None -> ()
