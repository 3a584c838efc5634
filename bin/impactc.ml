(* impactc: command-line driver for the IMPACT-reproduction compiler.

   Subcommands:
     list                     list the 40 Table-2 loop nests
     show    -l NAME          print a loop nest's generated code at a level
     run     -l NAME          compile, simulate and report one loop nest
     sweep   -l NAME          run one loop nest across all levels/machines
     profile NAME             stall attribution + pass telemetry report
     certify NAME             exact-oracle certification of the pipeliner's II
     run-file FILE            compile and run a mini-Fortran source file
     show-file FILE           print a source file's generated code
     serve   [FILE]           answer a batch of JSON queries (one per line)

   Every subcommand shares one option block ([common_opts]):
   --level/--issue/--unroll/--sched/--trace-out, so e.g. `profile` takes
   exactly the flags `run` does. --trace-out FILE dumps every recorded
   span as Chrome trace_event JSON (open in Perfetto). `serve` consults
   and fills the persistent content-addressed result cache under
   _cache/ (see DESIGN.md "Query API & result cache"). *)

open Cmdliner
open Impact_ir
open Impact_core
module Obs = Impact_obs.Obs

let find_workload name =
  match Impact_workloads.Suite.find name with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown loop nest %s (try `impactc list`)\n" name;
    exit 1

let level_conv =
  let parse s =
    match Level.of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown level %s" s))
  in
  Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (Level.to_string l))

let loop_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "l"; "loop" ] ~docv:"NAME" ~doc:"Loop nest name from Table 2.")

(* ---- The shared option block ---- *)

type common_opts = {
  co_level : Level.t;
  co_issue : int;
  co_core : [ `Inorder | `Ooo ];
  co_rob : int;
  co_phys : int option;
  co_unroll : int option;
  co_sched : Opts.sched;
  co_trace_out : string option;
}

let opts_of (co : common_opts) : Opts.t =
  Opts.make ?unroll:co.co_unroll ~sched:co.co_sched ()

let machine_of (co : common_opts) =
  match co.co_core with
  | `Inorder -> Machine.make ~issue:co.co_issue ()
  | `Ooo -> Machine.ooo ?phys_regs:co.co_phys ~issue:co.co_issue ~rob:co.co_rob ()

let common_opts_term =
  let level_arg =
    Arg.(
      value
      & opt level_conv Level.Lev4
      & info [ "O"; "level" ] ~docv:"LEVEL"
          ~doc:"Transformation level (Conv, Lev1..Lev4). Ignored by $(b,sweep), which runs all levels.")
  in
  let issue_arg =
    Arg.(
      value
      & opt int 8
      & info [ "issue" ] ~docv:"N"
          ~doc:"Processor issue rate (instructions/cycle). Ignored by $(b,sweep), which runs all machines.")
  in
  let unroll_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "unroll" ] ~docv:"N" ~doc:"Override the unroll factor (default 8).")
  in
  let sched_arg =
    Arg.(
      value
      & opt (enum [ ("list", `List); ("pipe", `Pipe) ]) `List
      & info [ "sched" ] ~docv:"SCHED"
          ~doc:
            "Scheduler: $(b,list) (default) is plain list scheduling; $(b,pipe) \
             software-pipelines every eligible innermost loop by iterative modulo \
             scheduling (II bounded below by max(ResMII, RecMII), modulo variable \
             expansion, prologue/kernel/epilogue code generation) and \
             list-schedules everything else.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record every compiler/simulator span and write them to $(docv) as \
             Chrome trace_event JSON (loadable in Perfetto or chrome://tracing).")
  in
  let core_arg =
    Arg.(
      value
      & opt (enum [ ("inorder", `Inorder); ("ooo", `Ooo) ]) `Inorder
      & info [ "core" ] ~docv:"CORE"
          ~doc:
            "Machine model: $(b,inorder) (default) is the paper's statically \
             scheduled interlocked pipeline; $(b,ooo) is a dynamically \
             scheduled core with a finite reorder buffer ($(b,--rob)), \
             hardware renaming onto a finite physical register file \
             ($(b,--phys-regs)) and out-of-order issue. Same Table 1 \
             latencies and architectural results either way.")
  in
  let rob_arg =
    Arg.(
      value
      & opt int 32
      & info [ "rob" ] ~docv:"N"
          ~doc:"Reorder-buffer entries for $(b,--core ooo) (default 32).")
  in
  let phys_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "phys-regs" ] ~docv:"N"
          ~doc:
            "Physical registers per class for $(b,--core ooo) (default: the \
             reorder-buffer size).")
  in
  Term.(
    const (fun co_level co_issue co_core co_rob co_phys co_unroll co_sched
               co_trace_out ->
        { co_level; co_issue; co_core; co_rob; co_phys; co_unroll; co_sched;
          co_trace_out })
    $ level_arg $ issue_arg $ core_arg $ rob_arg $ phys_arg $ unroll_arg
    $ sched_arg $ trace_out_arg)

(* Enable tracing for the command body when --trace-out is given, and
   write the trace file at the end (also on error). *)
let with_trace (co : common_opts) f =
  match co.co_trace_out with
  | None -> f ()
  | Some path ->
    Obs.set_tracing true;
    Fun.protect
      ~finally:(fun () ->
        Obs.write_trace path;
        Printf.eprintf "wrote %s (%d trace events)\n%!" path
          (List.length (Obs.events ())))
      f

(* Per-loop pipelining reports, printed as `;` comment lines ahead of the
   generated code. *)
let print_pipe_reports reports =
  List.iter
    (fun (r, _) -> Printf.printf "; %s\n" (Impact_pipe.Pipe.report_to_string r))
    reports

(* -- list -- *)

let list_cmd =
  let run () =
    Printf.printf "%-12s %-8s %5s %5s %4s %-9s %5s\n" "name" "origin" "size" "iters"
      "nest" "type" "conds";
    List.iter
      (fun (w : Impact_workloads.Suite.t) ->
        Printf.printf "%-12s %-8s %5d %5d %4d %-9s %5s\n" w.Impact_workloads.Suite.name
          w.Impact_workloads.Suite.origin w.Impact_workloads.Suite.size
          w.Impact_workloads.Suite.iters w.Impact_workloads.Suite.nest
          (Impact_workloads.Suite.ltype_to_string w.Impact_workloads.Suite.ltype)
          (if w.Impact_workloads.Suite.conds then "yes" else "no"))
      Impact_workloads.Suite.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the Table 2 loop nests")
    Term.(const run $ const ())

(* -- show / run, and their -file twins: one body each over a parsed
   source, whether it names a Table 2 loop nest or a file -- *)

let show_source co scheduled ast =
  let p = Impact_fir.Lower.lower ast in
  (* --sched pipe implies scheduling: the pipelined structure only
     exists after the scheduler has run. *)
  if scheduled || co.co_sched = `Pipe then begin
    let opts = opts_of co in
    let p, reports =
      Compile.schedule_with opts (machine_of co) (Compile.transform_with opts co.co_level p)
    in
    print_pipe_reports reports;
    print_string (Pp.prog_to_string p)
  end
  else print_string (Pp.prog_to_string (Level.apply ?unroll_factor:co.co_unroll co.co_level p))

let scheduled_arg =
  Arg.(value & flag & info [ "scheduled" ] ~doc:"Apply superblock formation and scheduling.")

(* [title] names the source in the report's first line. *)
let run_source ~title co ast =
  let lower () = Impact_fir.Lower.lower ast in
  let machine = machine_of co in
  let opts = opts_of co in
  let base = Compile.measure_with (Opts.base opts) Level.Conv Machine.issue_1 (lower ()) in
  let m = Compile.measure_with opts co.co_level machine (lower ()) in
  Printf.printf "%s at %s on %s%s\n" title (Level.to_string co.co_level)
    machine.Machine.name
    (match co.co_sched with `Pipe -> " (software pipelined)" | `List -> "");
  Printf.printf "  cycles        %d (base issue-1 Conv: %d)\n" m.Compile.cycles
    base.Compile.cycles;
  Printf.printf "  dyn insns     %d\n" m.Compile.dyn_insns;
  Printf.printf "  speedup       %.2f\n" (Compile.speedup ~base ~this:m);
  Printf.printf "  registers     %d int + %d float\n"
    m.Compile.usage.Impact_regalloc.Regalloc.int_used
    m.Compile.usage.Impact_regalloc.Regalloc.float_used;
  List.iter
    (fun (n, v) -> Printf.printf "  output %-6s %s\n" n (Impact_sim.Sim.value_to_string v))
    m.Compile.result.Impact_sim.Sim.outputs

let show_cmd =
  let run name co scheduled =
    with_trace co @@ fun () ->
    show_source co scheduled (find_workload name).Impact_workloads.Suite.ast
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print the generated code of a loop nest at a level")
    Term.(const run $ loop_arg $ common_opts_term $ scheduled_arg)

let run_cmd =
  let run name co =
    with_trace co @@ fun () ->
    run_source ~title:("loop " ^ name) co (find_workload name).Impact_workloads.Suite.ast
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile, simulate and report one loop nest")
    Term.(const run $ loop_arg $ common_opts_term)

(* -- sweep -- *)

let sweep_cmd =
  let run name co =
    with_trace co @@ fun () ->
    let w = find_workload name in
    let cells =
      Impact_svc.Experiment.run_all_with ~workers:1 (opts_of co)
        (Report.matrix_machines ~core:(machine_of co).Machine.core ())
        Level.all
        [ Impact_svc.Service.subject_of_workload w ]
    in
    Printf.printf "%-6s %-9s %10s %8s %6s\n" "level" "machine" "cycles" "speedup" "regs";
    List.iter
      (fun (c : Impact_svc.Experiment.cell) ->
        Printf.printf "%-6s %-9s %10d %8.2f %6d\n" (Level.to_string c.level)
          c.machine.Machine.name c.cycles c.speedup
          (Impact_svc.Experiment.total_regs c))
      cells
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Run one loop nest across all levels and machines")
    Term.(const run $ loop_arg $ common_opts_term)

(* -- profile -- *)

module Sim = Impact_sim.Sim

(* How the report names one line of the slot ledger: its stall-table
   label, its key in the JSON and the level matrix, and its level-matrix
   column header and width. *)
type words = { label : string; key : string; col : string * int }

(* How the report words each core's ledger: the in-order core fills
   issue slots, the out-of-order one dispatch slots. [w_columns] are the
   causes the JSON [stalls] section and the level matrix list after the
   filled slots; an [Interlock] column stands for every producer
   latency. *)
type wording = {
  w_title : string;  (* stall table title *)
  w_slot : string;  (* what a slot is *)
  w_by : string;  (* what the hottest instructions are counted by *)
  w_empty : string;  (* the empty slots, in the conservation line *)
  w_summary : string;  (* level matrix title *)
  w_machine_width : int;  (* level matrix machine column *)
  w_filled : words;  (* also the ILP histogram's verb *)
  w_branch_limit : words;
  w_columns : Sim.cause list;
}

let wording (core : Machine.core) =
  match core with
  | Machine.Inorder ->
    {
      w_title = "stall attribution";
      w_slot = "issue";
      w_by = "issues";
      w_empty = "empty slot-cycles";
      w_summary = "stall";
      w_machine_width = 8;
      w_filled = { label = "issued"; key = "issued"; col = ("issued%", 7) };
      w_branch_limit =
        { label = "branch-slot limit"; key = "branch_limit"; col = ("brlim%", 7) };
      w_columns = [ Sim.Interlock 0; Branch_limit; Redirect; Drain ];
    }
  | Machine.Ooo _ ->
    {
      w_title = "dispatch-slot attribution";
      w_slot = "dispatch";
      w_by = "dispatches";
      w_empty = "empty dispatch slots";
      w_summary = "dispatch";
      w_machine_width = 10;
      w_filled = { label = "dispatched"; key = "dispatched"; col = ("disp%", 6) };
      w_branch_limit =
        { label = "fetch (branch-slot limit)"; key = "fetch"; col = ("fetch%", 6) };
      w_columns = [ Sim.Rob_full; Rs_wait; No_phys; Branch_limit; Redirect; Drain ];
    }

let cause_words w : Sim.cause -> words = function
  | Interlock lat ->
    {
      label = Printf.sprintf "interlock (producer latency %d)" lat;
      key = "interlock";
      col = ("interlock%", 10);
    }
  | Branch_limit -> w.w_branch_limit
  | Redirect -> { label = "taken-branch redirect"; key = "redirect"; col = ("redirect%", 9) }
  | Drain -> { label = "drain (out of instructions)"; key = "drain"; col = ("drain%", 6) }
  | Rob_full -> { label = "rob full (oldest executing)"; key = "rob_full"; col = ("rob%", 6) }
  | Rs_wait ->
    { label = "rs wait (oldest needs operands)"; key = "rs_wait"; col = ("rswait%", 7) }
  | No_phys -> { label = "no free physical register"; key = "no_phys"; col = ("phys%", 6) }

let slot_pct (prof : Sim.profile) n =
  100.0 *. float_of_int n /. float_of_int (max 1 (prof.p_cycles * prof.p_issue))

(* The slots [prof] charges to a column's cause. *)
let column_slots (prof : Sim.profile) (c : Sim.cause) =
  List.fold_left
    (fun acc (c', n) ->
      match c, c' with
      | Sim.Interlock _, Sim.Interlock _ -> acc + n
      | _ -> if c = c' then acc + n else acc)
    0 prof.p_stalls

(* The level matrix's columns, the filled slots first, and their counts
   in [prof]. *)
let columns w = w.w_filled :: List.map (cause_words w) w.w_columns

let column_counts w (prof : Sim.profile) =
  prof.p_filled :: List.map (column_slots prof) w.w_columns

(* Human-readable stall-attribution table: every slot of every cycle is
   either filled or empty with exactly one attributed cause, so the rows
   sum to cycles x issue. *)
let print_stall_table w (prof : Sim.profile) =
  let total = prof.p_cycles * prof.p_issue in
  Printf.printf "%s (%d cycles x issue %d = %d %s slots)\n" w.w_title prof.p_cycles
    prof.p_issue total w.w_slot;
  Printf.printf "  %-36s %10s %6s\n" "category" "slots" "share";
  let row label n = Printf.printf "  %-36s %10d %5.1f%%\n" label n (slot_pct prof n) in
  row w.w_filled.label prof.p_filled;
  List.iter (fun (c, n) -> row (cause_words w c).label n) prof.p_stalls;
  Option.iter (Printf.printf "  peak reorder-buffer occupancy %d\n") prof.p_max_rob;
  let classified = Sim.classified_slots prof in
  let empty = Sim.empty_slots prof in
  Printf.printf "  classified %d of %d %s%s\n" classified empty w.w_empty
    (if classified = empty then " (exact)" else " (MISMATCH)")

(* Histogram of the slots filled per cycle. *)
let print_ilp_histogram w (prof : Sim.profile) =
  let verb = w.w_filled.label and total = prof.p_cycles in
  Printf.printf "%s-per-cycle histogram\n" verb;
  Array.iteri
    (fun k cycles ->
      if cycles > 0 then
        Printf.printf "  %2d %s %9d cycles %5.1f%%  %s\n" k verb cycles
          (100.0 *. float_of_int cycles /. float_of_int (max 1 total))
          (String.make (max 1 (40 * cycles / max 1 total)) '#'))
    prof.p_ilp

(* The 8 hottest static instructions by dynamic count, hottest first;
   ties keep program order and instructions that never ran are left out.
   The printed report and `profile --json` both list these. *)
let hot_insns counts =
  Array.to_list counts
  |> List.filter (fun (_, n) -> n > 0)
  |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun k _ -> k < 8)

let print_hot_insns w (prof : Sim.profile) =
  Printf.printf "hottest static instructions (by dynamic %s)\n" w.w_by;
  List.iter
    (fun (i, n) -> Printf.printf "  %9d  %s\n" n (Insn.to_string i))
    (hot_insns prof.p_insn_counts)

(* Stall summary per level x issue rate for one kernel on the profiled
   machine's core (keeping its rob/phys sizes): the paper's Fig. 8-10
   mechanism made visible (interlock share shrinking as the
   transformation level rises). One (level, machine, profile) per cell. *)
let level_matrix_rows w (opts : Opts.t) ~(core : Machine.core) =
  List.concat_map
    (fun level ->
      let tp =
        Compile.transform_with opts level
          (Impact_fir.Lower.lower w.Impact_workloads.Suite.ast)
      in
      List.map
        (fun machine ->
          let scheduled, _ = Compile.schedule_with opts machine tp in
          ( Level.to_string level,
            machine.Machine.name,
            snd (Sim.run_profiled machine scheduled) ))
        (Report.matrix_machines ~core ()))
    Level.all

let print_level_matrix w rows =
  Printf.printf "%s summary per level x issue rate (%% of %s slots)\n" w.w_summary
    w.w_slot;
  Printf.printf "  %-6s %-*s %9s %5s" "level" w.w_machine_width "machine" "cycles" "ipc";
  List.iter (fun c -> Printf.printf " %*s" (snd c.col) (fst c.col)) (columns w);
  print_newline ();
  List.iter
    (fun (level, machine, (prof : Sim.profile)) ->
      Printf.printf "  %-6s %-*s %9d %5.2f" level w.w_machine_width machine prof.p_cycles
        (float_of_int prof.p_filled /. float_of_int prof.p_cycles);
      List.iter2
        (fun c n -> Printf.printf " %*.1f%%" (snd c.col - 1) (slot_pct prof n))
        (columns w) (column_counts w prof);
      print_newline ())
    rows

(* ---- profile --json: the same data as the printed report, as a
   schema-versioned machine-readable dump (impact-profile/1) covering
   both cores. ---- *)

module J = Impact_svc.Json

let json_of_hot counts =
  J.List
    (List.map
       (fun (i, n) -> J.Obj [ ("insn", J.Str (Insn.to_string i)); ("count", J.Int n) ])
       (hot_insns counts))

let json_of_matrix w rows =
  J.List
    (List.map
       (fun (level, machine, (prof : Sim.profile)) ->
         J.Obj
           [
             ("level", J.Str level);
             ("machine", J.Str machine);
             ("issue", J.Int prof.p_issue);
             ("cycles", J.Int prof.p_cycles);
             ("dyn_insns", J.Int prof.p_filled);
             ( "slots",
               J.Obj (List.map2 (fun c n -> (c.key, J.Int n)) (columns w) (column_counts w prof))
             );
           ])
       rows)

(* Slot-attribution fields for the dump; keys mirror the printed stall
   table, and the interlock column keeps its per-latency split. *)
let sim_json w (prof : Sim.profile) =
  let column (c : Sim.cause) =
    ( (cause_words w c).key,
      match c with
      | Interlock _ ->
        J.List
          (List.filter_map
             (function
               | Sim.Interlock lat, n ->
                 Some (J.Obj [ ("latency", J.Int lat); ("slots", J.Int n) ])
               | _ -> None)
             prof.p_stalls)
      | _ -> J.Int (column_slots prof c) )
  in
  (("stalls", J.Obj ((w.w_filled.key, J.Int prof.p_filled) :: List.map column w.w_columns))
  :: Option.fold ~none:[] ~some:(fun n -> [ ("max_rob", J.Int n) ]) prof.p_max_rob)
  @ [
      ("ilp", J.List (Array.to_list (Array.map (fun n -> J.Int n) prof.p_ilp)));
      ("hot_insns", json_of_hot prof.p_insn_counts);
    ]

let profile_json ~name ~(co : common_opts) ~(machine : Machine.t) ~w ~result ~prof ~rep
    ~pipe_reports ~rows =
  J.Obj
    ([
       ("schema", J.Str "impact-profile/1");
       ("loop", J.Str name);
       ("level", J.Str (Level.to_string co.co_level));
       ("machine", J.Str machine.Machine.name);
       ("issue", J.Int machine.Machine.issue);
     ]
    @ Impact_svc.Service.core_fields machine.Machine.core
    @ [
        ("sched", J.Str (Opts.sched_to_string co.co_sched));
        ("unroll", match co.co_unroll with None -> J.Null | Some n -> J.Int n);
        ("cycles", J.Int result.Sim.cycles);
        ("dyn_insns", J.Int result.Sim.dyn_insns);
        ( "ipc",
          J.Float
            (float_of_int result.Sim.dyn_insns /. float_of_int (max 1 result.Sim.cycles)) );
      ]
    @ sim_json w prof
    @ [
        ( "counters",
          J.Obj (List.map (fun (k, v) -> (k, J.Int v)) rep.Obs.r_counters) );
        ( "spans",
          J.List
            (List.map
               (fun (s : Obs.span_total) ->
                 J.Obj
                   [
                     ("name", J.Str s.Obs.sp_name);
                     ("calls", J.Int s.Obs.sp_calls);
                     ("busy_ms", J.Float (s.Obs.sp_total_s *. 1e3));
                   ])
               rep.Obs.r_spans) );
        ( "pipeline",
          J.List
            (List.map
               (fun (r, _) -> J.Str (Impact_pipe.Pipe.report_to_string r))
               pipe_reports) );
        ("level_matrix", json_of_matrix w rows);
      ])

let profile_loop_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"NAME" ~doc:"Loop nest name from Table 2.")

let profile_cmd =
  let run name json_out co =
    let w = find_workload name in
    Obs.reset ();
    Obs.set_collecting true;
    with_trace co @@ fun () ->
    let machine = machine_of co in
    let opts = opts_of co in
    let tp =
      Compile.transform_with opts co.co_level
        (Impact_fir.Lower.lower w.Impact_workloads.Suite.ast)
    in
    let scheduled, pipe_reports = Compile.schedule_with opts machine tp in
    (* Pass telemetry ([rep]) is captured right after the profiled run,
       before the level-matrix sweep recompiles the kernel and would
       pollute the counters. *)
    let result, prof = Sim.run_profiled machine scheduled in
    let rep = Obs.report () in
    let rows = level_matrix_rows w opts ~core:machine.Machine.core in
    let words = wording machine.Machine.core in
    Printf.printf "profile %s at %s on %s%s\n" name (Level.to_string co.co_level)
      machine.Machine.name
      (match co.co_sched with `Pipe -> " (software pipelined)" | `List -> "");
    Printf.printf "  cycles %d, dyn insns %d, ipc %.2f\n\n" result.Sim.cycles
      result.Sim.dyn_insns
      (float_of_int result.Sim.dyn_insns /. float_of_int result.Sim.cycles);
    Printf.printf "pass telemetry (this compile)\n";
    List.iter
      (fun (k, v) -> Printf.printf "  %-42s %8d\n" k v)
      rep.Obs.r_counters;
    Printf.printf "  %-42s %8s %10s\n" "span" "calls" "busy ms";
    List.iter
      (fun (s : Obs.span_total) ->
        Printf.printf "  %-42s %8d %10.3f\n" s.Obs.sp_name s.Obs.sp_calls
          (s.Obs.sp_total_s *. 1e3))
      rep.Obs.r_spans;
    print_newline ();
    (match pipe_reports with
    | [] -> ()
    | rs ->
      Printf.printf "pipelining per-loop reports\n";
      List.iter
        (fun (r, _) -> Printf.printf "  %s\n" (Impact_pipe.Pipe.report_to_string r))
        rs;
      print_newline ());
    print_stall_table words prof;
    print_newline ();
    print_ilp_histogram words prof;
    print_newline ();
    print_hot_insns words prof;
    print_newline ();
    print_level_matrix words rows;
    match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (J.to_string
           (profile_json ~name ~co ~machine ~w:words ~result ~prof ~rep ~pipe_reports
              ~rows));
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "wrote %s\n%!" path
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the full profile as machine-readable JSON (schema \
             $(b,impact-profile/1)) to $(docv): identity, cycles/ipc, the \
             slot-attribution stall table, ILP histogram, hottest \
             instructions, pass telemetry and the level x issue matrix.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Report stall attribution, ILP histogram and pass telemetry for one \
          loop nest")
    Term.(const run $ profile_loop_arg $ json_arg $ common_opts_term)

(* -- certify -- *)

let certify_cmd =
  let run name budget co =
    let w = find_workload name in
    with_trace co @@ fun () ->
    let machine = machine_of co in
    let opts = opts_of co in
    let tp =
      Compile.transform_with opts co.co_level
        (Impact_fir.Lower.lower w.Impact_workloads.Suite.ast)
    in
    let _, reps = Impact_pipe.Pipe.run_with_problems machine tp in
    Printf.printf "certify %s at %s on %s\n" name (Level.to_string co.co_level)
      machine.Machine.name;
    let rows =
      List.map
        (Impact_exact.Oracle.certify_loop ~budget ~subject:name
           ~machine:machine.Machine.name)
        reps
    in
    print_string (Impact_exact.Oracle.table ~budget rows)
  in
  let budget_arg =
    Arg.(
      value
      & opt int Impact_exact.Exact.default_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Node budget for the exact search across each loop's II walk: \
             every row assignment the solver tries costs one node. Within \
             budget every verdict is a proof; past it the loop reports an \
             explicit bounded gap instead of a wrong answer.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Certify the software pipeliner's initiation intervals for one loop \
          nest against the exact modulo-scheduling oracle: per-loop heuristic \
          II, certified optimal II (or bounds), gap, proof status and search \
          nodes")
    Term.(const run $ profile_loop_arg $ budget_arg $ common_opts_term)

(* -- run-file / show-file -- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:"Mini-Fortran source file (see examples/kernels and lib/workloads/table2).")

(* Parse and type-check here, so a bad file is [FILE: message] and exit 1
   rather than an exception out of lowering. *)
let load_file path =
  try
    let ast = Impact_fir.Parse.parse_file path in
    ignore (Impact_fir.Typecheck.check ast);
    ast
  with
  | Impact_fir.Parse.Parse_error msg | Impact_fir.Typecheck.Type_error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1

let run_file_cmd =
  let run path co = with_trace co @@ fun () -> run_source ~title:path co (load_file path) in
  Cmd.v
    (Cmd.info "run-file" ~doc:"Compile and run a mini-Fortran source file")
    Term.(const run $ file_arg $ common_opts_term)

let show_file_cmd =
  let run path co scheduled =
    with_trace co @@ fun () -> show_source co scheduled (load_file path)
  in
  Cmd.v
    (Cmd.info "show-file" ~doc:"Print a source file's generated code at a level")
    Term.(const run $ file_arg $ common_opts_term $ scheduled_arg)

(* -- serve -- *)

let print_cache_stats store =
  Option.iter
    (fun st -> Printf.eprintf "%s\n%!" (Impact_svc.Store.stats_line st))
    store

(* HOST:PORT for --listen; a bare port listens on loopback. *)
let parse_listen s =
  let fail () =
    Printf.eprintf "impactc serve: --listen expects HOST:PORT, got %S\n" s;
    exit 2
  in
  match String.rindex_opt s ':' with
  | None -> (
    match int_of_string_opt s with Some p when p >= 0 -> ("127.0.0.1", p) | _ -> fail ())
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && host <> "" -> (host, p)
    | _ -> fail ())

(* All serve-tier flags, validated together by the one term that builds
   this record; the listener and stdin paths both consume it, so
   listen-only constraints live in exactly one place. *)
type serve_opts = {
  so_listen : (string * int) option;
  so_jobs : int option;
  so_queue_depth : int;
  so_deadline_ms : int option;
  so_max_line : int;
  so_cache_dir : string;
  so_no_cache : bool;
  so_access_log : string option;
  so_trace_sample : int option;
  so_trace_out : string option;
}

let env_faults () =
  match Impact_net.Faults.of_env () with
  | Ok f -> f
  | Error msg ->
    Printf.eprintf "impactc serve: IMPACT_FAULTS: %s\n" msg;
    exit 2

let print_drained (s : Impact_net.Listener.stats) =
  Printf.eprintf
    "impactc serve: drained (%d conns, %d requests, %d responses, %d shed, \
     %d deadline, %d too-long, %d dropped)\n%!"
    s.Impact_net.Listener.accepted s.Impact_net.Listener.requests
    s.Impact_net.Listener.responses s.Impact_net.Listener.shed
    s.Impact_net.Listener.deadlined s.Impact_net.Listener.too_long
    s.Impact_net.Listener.dropped_conns

let serve_listen ~store o ~host ~port =
  let faults = env_faults () in
  let cfg =
    {
      (Impact_net.Listener.default_config ?store ()) with
      Impact_net.Listener.host;
      port;
      workers = o.so_jobs;
      queue_depth = o.so_queue_depth;
      deadline_ms = o.so_deadline_ms;
      max_line = o.so_max_line;
      faults;
      access_log = o.so_access_log;
      trace_sample = o.so_trace_sample;
    }
  in
  let t = Impact_net.Listener.start cfg in
  Printf.eprintf
    "impactc serve: listening on %s:%d (workers %d, queue %d%s%s%s%s%s)\n%!" host
    (Impact_net.Listener.port t)
    (match o.so_jobs with
    | Some j -> j
    | None -> Impact_exec.Pool.resolve_workers ())
    o.so_queue_depth
    (match o.so_deadline_ms with
    | Some ms -> Printf.sprintf ", deadline %d ms" ms
    | None -> "")
    (if Impact_net.Faults.active faults then
       ", faults " ^ Impact_net.Faults.to_string faults
     else "")
    (match store with None -> ", cache off" | Some _ -> "")
    (match o.so_access_log with
    | Some path -> ", access-log " ^ path
    | None -> "")
    (match o.so_trace_sample with
    | Some n -> Printf.sprintf ", trace 1/%d" n
    | None -> "");
  let handler = Sys.Signal_handle (fun _ -> Impact_net.Listener.stop t) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  Impact_net.Listener.wait t;
  print_drained (Impact_net.Listener.stats t);
  (match o.so_trace_out with
  | None -> ()
  | Some path ->
    Obs.write_trace path;
    Printf.eprintf "impactc serve: wrote %s (%d trace events, %d dropped)\n%!"
      path
      (List.length (Obs.events ()))
      (Obs.events_dropped ()));
  print_cache_stats store

let serve_cmd =
  let run file o =
    let store =
      if o.so_no_cache then None
      else Some (Impact_svc.Store.open_store o.so_cache_dir)
    in
    Obs.set_collecting true;
    match o.so_listen with
    | Some (host, port) -> serve_listen ~store o ~host ~port
    | None ->
      let ic = match file with None -> stdin | Some f -> open_in f in
      Fun.protect
        ~finally:(fun () -> if file <> None then close_in_noerr ic)
        (fun () ->
          Impact_svc.Service.run_channel ?workers:o.so_jobs
            ~max_line:o.so_max_line ~store ic stdout);
      print_cache_stats store
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Read queries from $(docv) instead of standard input.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string (Impact_svc.Store.resolve_dir ())
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persistent result-cache directory (default: \\$IMPACT_CACHE_DIR \
             or $(b,_cache)).")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Recompute every query; touch no cache directory.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the batch (default: IMPACT_JOBS or the core count).")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Serve the same one-JSON-per-line protocol over TCP instead of \
             standard input: accept connections on $(docv) (port 0 picks an \
             ephemeral port, printed to stderr), answer each connection's \
             requests in order, shed load with $(b,overloaded) records when \
             the admission queue is full, and drain gracefully on SIGTERM or \
             SIGINT (stop accepting, finish in-flight work, flush, exit 0). \
             $(b,IMPACT_FAULTS) injects deterministic protocol faults (see \
             DESIGN.md \"Network service\").")
  in
  let queue_depth_arg =
    Arg.(
      value
      & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission-queue bound for $(b,--listen): requests beyond $(docv) \
             pending are answered with an $(b,overloaded) record instead of \
             buffering.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline for $(b,--listen): a request not picked up \
             by a worker within $(docv) milliseconds of being read is answered \
             with a $(b,deadline) record instead of being evaluated.")
  in
  let max_line_arg =
    Arg.(
      value
      & opt int Impact_svc.Service.default_max_line
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:
            "Request-line byte bound (default 1 MiB): longer lines are \
             answered with a $(b,line too long) record and discarded without \
             buffering.")
  in
  let access_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "With $(b,--listen): write one JSON record per answered request \
             line to $(docv) (JSONL; truncated at start, closed at drain) \
             carrying connection and line ids, outcome, cache disposition and \
             the total/queue/eval/write latency breakdown in milliseconds.")
  in
  let trace_sample_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "With $(b,--listen): record Chrome-trace request/queue/eval/write \
             spans for 1-in-$(docv) connections (one Perfetto row per sampled \
             connection); requires $(b,--trace-out) to write the trace file.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "With $(b,--listen): write the recorded trace events as Chrome \
             trace_event JSON to $(docv) after the drain completes (open in \
             Perfetto).")
  in
  (* The one validated term all serve-mode flags funnel through. *)
  let serve_opts_term =
    let build listen cache_dir no_cache jobs queue_depth deadline_ms
        max_line access_log trace_sample trace_out =
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            Printf.eprintf "impactc serve: %s\n" msg;
            exit 2)
          fmt
      in
      if listen = None && (access_log <> None || trace_sample <> None
                           || trace_out <> None)
      then fail "--access-log/--trace-sample/--trace-out require --listen";
      (match trace_sample with
      | Some n when n < 1 -> fail "--trace-sample expects N >= 1, got %d" n
      | Some _ when trace_out = None ->
        fail
          "--trace-sample records spans but --trace-out FILE is needed to \
           write them"
      | _ -> ());
      {
        so_listen = Option.map parse_listen listen;
        so_jobs = jobs;
        so_queue_depth = queue_depth;
        so_deadline_ms = deadline_ms;
        so_max_line = max_line;
        so_cache_dir = cache_dir;
        so_no_cache = no_cache;
        so_access_log = access_log;
        so_trace_sample = trace_sample;
        so_trace_out = trace_out;
      }
    in
    Term.(
      const build $ listen_arg $ cache_dir_arg $ no_cache_arg
      $ jobs_arg $ queue_depth_arg $ deadline_arg $ max_line_arg
      $ access_log_arg $ trace_sample_arg $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Answer JSON queries (one object per line; see DESIGN.md \"Query API \
          & result cache\"), from standard input or a file by default, or as \
          a concurrent TCP service with $(b,--listen) (one process; $(b,-j) \
          sets its worker domains). Every request line is \
          answered in order with a JSON result or a structured error record; \
          the exit code is 0 even when individual queries fail.")
    Term.(const run $ file_arg $ serve_opts_term)

let () =
  let doc = "IMPACT-style ILP transformation compiler (SC'92 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "impactc" ~doc)
          [ list_cmd; show_cmd; run_cmd; sweep_cmd; profile_cmd; certify_cmd;
            run_file_cmd; show_file_cmd; serve_cmd ]))
