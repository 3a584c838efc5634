(* perfbench: the repository's seeded, layered benchmark.

     pb --workload <paper-matrix|ooo-pipe|serve-zipf> --seed N --seconds S --trace 0|1

   An untraced run (--trace 0) measures the end-to-end metrics; a
   traced run (--trace 1) times every layer from outside and reports
   the per-layer metrics. The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. Progress and
   diagnostics go to standard error. *)

open Impact_ir
module Obs = Impact_obs.Obs

(* ---- Batch workloads ---- *)

let ooo_machines = List.map (fun issue -> Machine.ooo ~issue ~rob:32 ()) [ 2; 4; 8 ]

(* Certification node budget for ooo-pipe: the hardest loop (NAS-6 at
   issue 8) exhausts it, every other loop is decided well below it. At
   20,000 nodes that one task took 1.3 to 2.1 s, a third of the batch,
   and its swings set the run-to-run spread; at 5,000 it takes 0.3 to
   0.5 s and the same 98 of 99 loops are decided. *)
let cert_budget = 5_000

let batch_config = function
  | "paper-matrix" ->
    Some { Batch.machines = Impact_core.Report.matrix_machines (); sched = `List; budget = None }
  | "ooo-pipe" ->
    Some { Batch.machines = ooo_machines; sched = `Pipe; budget = Some cert_budget }
  | _ -> None

(* Set up several times and keep the median: the reference observables
   for every kernel and the seeded task list. Each set-up time is
   normalised to the reference host's speed. *)
let batch_setup cfg seed =
  let runs =
    List.init 5 (fun _ ->
      let t, (refs, tasks) =
        Calib.time (fun () ->
          let refs = Batch.references () in
          (refs, Batch.tasks cfg seed))
      in
      (t, refs, tasks))
  in
  let _, refs, tasks = List.hd runs in
  (Lay.median (List.map (fun (t, _, _) -> t) runs), refs, tasks)

(* Run batches until [seconds] have elapsed (at least [min_batches]). *)
let repeat_batches ~seconds ~min_batches run =
  let t0 = Lay.now () in
  let rec go acc =
    if List.length acc >= min_batches && Lay.now () -. t0 >= seconds then List.rev acc
    else go (run () :: acc)
  in
  go []

(* Batches run at -j 1: at -j 2 the ooo-pipe throughput spread 26%
   across runs on a 2-vCPU host, against 7% at -j 1. Traced runs rerun
   the batch at -j 2 for the determinism guard, and the pool's balance
   is measured there. *)
let workers = 1

(* How far the traced layer times may sum from the traced wall time
   before the run fails. *)
let conservation_bound = 0.1

(* The host's speed swings by tens of percent within a run and between
   runs, so every task is paired with a calibration slice run just
   before it, and each batch's times are normalised by the mean slice
   time of that batch (see Calib). The time metrics are medians over the
   batches of a run. *)
let batch_untraced cfg ~seed ~seconds =
  let setup_s, refs, tasks = batch_setup cfg seed in
  (* Peak memory of one batch, so it does not grow with the number of
     batches the run happens to fit. *)
  let rss = ref nan in
  let bs =
    repeat_batches ~seconds ~min_batches:3 (fun () ->
      let b = Batch.run_batch ~calibrate:true cfg ~workers refs tasks in
      let f = Batch.host_factor b in
      Lay.log "  batch: %d cells in %.3fs, host factor %.3f, %.1f cells/s normalised\n"
        (List.length (Batch.cells b)) b.Batch.wall f (Batch.cells_per_s b);
      if Float.is_nan !rss then rss := Lay.peak_rss_mb "self";
      b)
  in
  let first = List.hd bs in
  let sig0 = Batch.signature first in
  let drift = List.length (List.filter (fun b -> Batch.signature b <> sig0) bs) in
  if drift > 0 then Lay.log "determinism guard: %d batches differ from the first\n" drift;
  let failed = Lay.isum (List.map Batch.failures bs) + drift in
  let attempted = Lay.isum (List.map Batch.checks bs) in
  let durs =
    List.concat_map (fun b -> List.map (fun d -> d /. Batch.host_factor b) (Batch.durs b)) bs
  in
  let speedup, regs = Batch.lev4_issue8 first in
  let metrics =
    [
      ("setup_s", "s", setup_s);
      ("cells_per_s", "1/s", Lay.median (List.map Batch.cells_per_s bs));
      ("peak_rss_mb", "MB", !rss);
      ("speedup_lev4_issue8", "x", speedup);
      ("regs_lev4_issue8", "regs", regs);
      ("static_insns", "count", float_of_int (Batch.cell_isum (fun c -> c.Batch.static) first));
      ("certify_decided_frac", "ratio", Batch.decided_frac first);
      ("req_p50_ms", "ms", 1e3 *. Lay.pct 50.0 durs);
    ]
  in
  (failed = 0, attempted, failed, metrics)

let batch_traced cfg ~seed ~seconds =
  let _, refs, tasks = batch_setup cfg seed in
  let untraced = Batch.run_batch cfg ~workers refs tasks in
  Lay.tracing := true;
  Obs.set_collecting true;
  let traced workers = Batch.traced_batch cfg ~workers refs tasks in
  let runs = repeat_batches ~seconds ~min_batches:1 (fun () -> traced workers) in
  (* Determinism across worker counts: the same batch at -j 2. *)
  let other = traced 2 in
  Lay.tracing := false;
  Obs.set_collecting false;
  let r0 = List.hd runs in
  let sig0 = Batch.signature r0.Batch.tb in
  let guard_fail =
    List.length
      (List.filter
         (fun r -> Batch.signature r.Batch.tb <> sig0 || r.Batch.counts <> r0.Batch.counts)
         (other :: runs))
  in
  if guard_fail > 0 then
    Lay.log "determinism guard: %d batches differ across repeats or -j 1/-j 2\n" guard_fail;
  let wall = Lay.median (List.map (fun r -> r.Batch.tb.Batch.wall) runs) in
  Lay.log "tracing overhead: %.4fs (traced wall %.4fs, untraced %.4fs)\n"
    (wall -. untraced.Batch.wall) wall untraced.Batch.wall;
  (* Conservation: at -j 1 the layer busy times must add up to the
     traced wall time. *)
  let conserve_fail =
    let r =
      Lay.median
        (List.map (fun r -> Lay.sum (List.map snd r.Batch.busy) /. r.Batch.tb.Batch.wall) runs)
    in
    Lay.log "conservation: layer sum / traced wall = %.4f\n" r;
    if abs_float (r -. 1.0) <= conservation_bound then 0 else 1
  in
  let metrics =
    Batch.layer_metrics ~exec:other runs
    @ List.map (fun (n, u) -> (n, u, 0.0)) Serve.layers
    @ [
        ( "load.req_p99_ms",
          "ms",
          1e3 *. Lay.pct 99.0 (List.concat_map (fun r -> Batch.durs r.Batch.tb) runs) );
      ]
  in
  let failed =
    Lay.isum (List.map (fun r -> Batch.failures r.Batch.tb) runs) + guard_fail + conserve_fail
  in
  let attempted = Lay.isum (List.map (fun r -> Batch.checks r.Batch.tb) runs) in
  (failed = 0, attempted, failed, metrics)

(* ---- Command line ---- *)

let usage =
  "usage: pb --workload <paper-matrix|ooo-pipe|serve-zipf> --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer metrics)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seconds = float_of_int !seconds and traced = !trace = 1 in
  let correct, attempted, failed, metrics =
    match (batch_config !workload, !workload) with
    | Some cfg, _ ->
      if traced then batch_traced cfg ~seed:!seed ~seconds
      else batch_untraced cfg ~seed:!seed ~seconds
    | None, "serve-zipf" -> Serve.run ~seed:!seed ~seconds ~traced
    | None, w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  print_endline (Lay.result_line ~correct ~attempted ~failed metrics)
