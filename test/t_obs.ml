(* Tests for the observability layer (lib/obs) and the simulator's
   stall attribution:

   - Obs: span totals, counters and stages accumulate under the
     switches; trace events rebase to 0 and survive JSON export; reset
     clears tables but not switches; everything is off by default.
   - Stall attribution: categories sum exactly to
     cycles * issue - dyn_insns (vecadd at issue 2/4/8, every level);
     the ILP histogram sums to cycles and its weighted sum to
     dyn_insns; per-instruction issue counts sum to dyn_insns.
   - Telemetry invariance (qcheck): enabling collecting + tracing never
     changes cycles, dyn_insns or observables of a run. *)

open Impact_ir
open Impact_core
module Obs = Impact_obs.Obs
module Sim = Impact_sim.Sim

(* Run [f] with both switches forced to [c]/[t], restoring the previous
   state (tests share the process with the rest of the suite). With
   collecting off, [enabled] reads the tracing switch. *)
let with_switches ~collecting ~tracing f =
  let c0 = Obs.collecting () in
  Obs.set_collecting false;
  let t0 = Obs.enabled () in
  Obs.set_collecting collecting;
  Obs.set_tracing tracing;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_collecting c0;
      Obs.set_tracing t0)
    f

(* ---- Obs core ---- *)

let test_off_by_default () =
  with_switches ~collecting:false ~tracing:false @@ fun () ->
  Obs.reset ();
  ignore (Obs.span "t.off" (fun () -> Obs.count "t.off.counter"; 41 + 1));
  let rep = Obs.report () in
  Helpers.check_int "no spans" 0 (List.length rep.Obs.r_spans);
  Helpers.check_int "no counters" 0 (List.length rep.Obs.r_counters);
  Helpers.check_int "no events" 0 (List.length (Obs.events ()))

let test_span_totals () =
  with_switches ~collecting:true ~tracing:false @@ fun () ->
  Obs.reset ();
  for _ = 1 to 3 do
    ignore (Obs.span "t.outer" (fun () -> Obs.span "t.inner" (fun () -> ())))
  done;
  let rep = Obs.report () in
  let find n =
    List.find (fun (s : Obs.span_total) -> s.Obs.sp_name = n) rep.Obs.r_spans
  in
  Helpers.check_int "outer calls" 3 (find "t.outer").Obs.sp_calls;
  Helpers.check_int "inner calls" 3 (find "t.inner").Obs.sp_calls;
  Helpers.check_bool "outer >= inner" true
    ((find "t.outer").Obs.sp_total_s >= (find "t.inner").Obs.sp_total_s);
  (* Collecting without tracing must not buffer events. *)
  Helpers.check_int "no events" 0 (List.length (Obs.events ()))

let test_span_raises () =
  with_switches ~collecting:true ~tracing:false @@ fun () ->
  Obs.reset ();
  (try Obs.span "t.raise" (fun () -> failwith "boom") with Failure _ -> ());
  let rep = Obs.report () in
  Helpers.check_bool "span recorded despite raise" true
    (List.exists (fun (s : Obs.span_total) -> s.Obs.sp_name = "t.raise")
       rep.Obs.r_spans)

let test_counters () =
  with_switches ~collecting:true ~tracing:false @@ fun () ->
  Obs.reset ();
  Obs.count "t.a";
  Obs.count ~n:4 "t.a";
  Obs.count "t.b";
  let rep = Obs.report () in
  Helpers.check_int "t.a" 5 (List.assoc "t.a" rep.Obs.r_counters);
  Helpers.check_int "t.b" 1 (List.assoc "t.b" rep.Obs.r_counters)

let test_stages_always_on () =
  with_switches ~collecting:false ~tracing:false @@ fun () ->
  Obs.reset ();
  ignore (Obs.stage "t.stage" (fun () -> 7));
  let s = Obs.stage_snapshot () in
  Helpers.check_bool "stage accumulated with switches off" true
    (List.assoc_opt "t.stage" s |> Option.fold ~none:false ~some:(fun t -> t >= 0.0));
  Obs.reset_stages ();
  Helpers.check_int "stages cleared" 0 (List.length (Obs.stage_snapshot ()))

(* Naive substring test (no Str dependency). *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go k = k + nn <= nh && (String.sub haystack k nn = needle || go (k + 1)) in
  go 0

let test_trace_events_and_json () =
  with_switches ~collecting:false ~tracing:true @@ fun () ->
  Obs.reset ();
  ignore (Obs.span ~cat:"t" ~args:[ ("k", "v\"esc") ] "t.ev1" (fun () -> ()));
  ignore (Obs.span ~cat:"t" "t.ev2" (fun () -> ()));
  let evs = Obs.events () in
  Helpers.check_int "two events" 2 (List.length evs);
  Helpers.check_bool "rebased to zero" true
    (List.exists (fun e -> e.Obs.ets_us = 0.0) evs);
  List.iter
    (fun e -> Helpers.check_bool "non-negative ts" true (e.Obs.ets_us >= 0.0))
    evs;
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.write_trace path;
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Helpers.check_bool "has traceEvents key" true (contains body "\"traceEvents\"");
  Helpers.check_bool "has event name" true (contains body "t.ev1");
  Helpers.check_bool "escaped arg value" true (contains body "\\\"esc");
  Helpers.check_bool "valid tail" true (contains body "]}")

let test_reset_keeps_switches () =
  with_switches ~collecting:true ~tracing:true @@ fun () ->
  Obs.count "t.gone";
  Obs.reset ();
  Helpers.check_bool "collecting survives reset" true (Obs.collecting ());
  Helpers.check_int "counters cleared" 0 (List.length (Obs.report ()).Obs.r_counters);
  ignore (Obs.span "t.after" (fun () -> ()));
  Helpers.check_bool "tracing survives reset" true (Obs.events () <> [])

(* ---- Latency histograms ---- *)

let hist_eq name (a : Obs.Hist.snapshot) (b : Obs.Hist.snapshot) =
  Helpers.check_string (name ^ ": name") a.Obs.Hist.h_name b.Obs.Hist.h_name;
  Helpers.check_int (name ^ ": count") a.Obs.Hist.h_count b.Obs.Hist.h_count;
  Helpers.check_int (name ^ ": sum_ns") a.Obs.Hist.h_sum_ns b.Obs.Hist.h_sum_ns;
  Helpers.check_bool (name ^ ": buckets") true
    (a.Obs.Hist.h_buckets = b.Obs.Hist.h_buckets)

let get_hist name =
  match List.find_opt (fun s -> s.Obs.Hist.h_name = name) (Obs.Hist.snapshot ()) with
  | Some s -> s
  | None -> Alcotest.failf "histogram %s missing" name

(* Element-wise sum of two snapshots (the name is taken from [a]). *)
let hist_add (a : Obs.Hist.snapshot) (b : Obs.Hist.snapshot) =
  { a with
    Obs.Hist.h_count = a.Obs.Hist.h_count + b.Obs.Hist.h_count;
    h_sum_ns = a.Obs.Hist.h_sum_ns + b.Obs.Hist.h_sum_ns;
    h_buckets = Array.map2 ( + ) a.Obs.Hist.h_buckets b.Obs.Hist.h_buckets }

(* Bucket boundaries are powers of 10^(1/5); values landing exactly on
   a bound go into that bound's bucket, negatives and NaN clamp to 0,
   values above the last finite bound (100 s) go into overflow. *)
let test_hist_bucket_placement () =
  with_switches ~collecting:false ~tracing:false @@ fun () ->
  Obs.reset ();
  Obs.Hist.observe "t.h" 1e-6 (* = bounds.(0), bucket 0 *);
  Obs.Hist.observe "t.h" 0.0;
  Obs.Hist.observe "t.h" (-5.0);
  Obs.Hist.observe "t.h" Float.nan;
  Obs.Hist.observe "t.h" 2e-6 (* bucket 2: 1.58us < 2us <= 2.51us *);
  Obs.Hist.observe "t.h" 200.0 (* > 100 s: overflow *);
  let s = get_hist "t.h" in
  Helpers.check_int "count" 6 s.Obs.Hist.h_count;
  Helpers.check_int "bucket 0" 4 s.Obs.Hist.h_buckets.(0);
  Helpers.check_int "bucket 2" 1 s.Obs.Hist.h_buckets.(2);
  Helpers.check_int "overflow" 1
    s.Obs.Hist.h_buckets.(Obs.Hist.buckets - 1);
  (* Integer-nanosecond sum: 1000 + 2000 + 200e9. *)
  Helpers.check_int "sum ns" (3_000 + 200_000_000_000) s.Obs.Hist.h_sum_ns;
  Helpers.check_int "total in buckets" 6
    (Array.fold_left ( + ) 0 s.Obs.Hist.h_buckets)

let test_hist_percentiles () =
  Obs.reset ();
  (* 90 samples at 1 us, 10 at 1 s — both exact bucket bounds, so the
     nearest-rank extraction is exact, not just within a bucket ratio. *)
  for _ = 1 to 90 do Obs.Hist.observe "t.p" 1e-6 done;
  for _ = 1 to 10 do Obs.Hist.observe "t.p" 1.0 done;
  let s = get_hist "t.p" in
  let check name want got =
    Helpers.check_bool
      (Printf.sprintf "%s: %g = %g" name want got)
      true
      (Float.abs (want -. got) <= 1e-12 *. Float.max 1.0 want)
  in
  check "p50" 1e-6 (Obs.Hist.percentile s 50.0);
  check "p90" 1e-6 (Obs.Hist.percentile s 90.0);
  check "p99" 1.0 (Obs.Hist.percentile s 99.0);
  check "p999" 1.0 (Obs.Hist.percentile s 99.9);
  (* Empty histogram reports 0, overflow reports the last finite bound. *)
  let empty =
    { Obs.Hist.h_name = "e"; h_count = 0; h_sum_ns = 0;
      h_buckets = Array.make Obs.Hist.buckets 0 }
  in
  check "empty p50" 0.0 (Obs.Hist.percentile empty 50.0);
  Obs.reset ();
  Obs.Hist.observe "t.over" 1e9;
  check "overflow p50"
    Obs.Hist.bounds.(Array.length Obs.Hist.bounds - 1)
    (Obs.Hist.percentile (get_hist "t.over") 50.0)

let test_hist_merge () =
  Obs.reset ();
  let vals_a = [ 1e-6; 3e-4; 0.2; 7.0 ] and vals_b = [ 2e-5; 0.2; 150.0 ] in
  List.iter (Obs.Hist.observe "t.m") vals_a;
  let a = get_hist "t.m" in
  Obs.reset ();
  List.iter (Obs.Hist.observe "t.m") vals_b;
  let b = get_hist "t.m" in
  Obs.reset ();
  List.iter (Obs.Hist.observe "t.m") (vals_a @ vals_b);
  let whole = get_hist "t.m" in
  hist_eq "merge = observe-all" whole (hist_add a b);
  hist_eq "merge commutes" (hist_add a b) (hist_add b a)

(* The determinism claim: recording a fixed value stream must yield a
   bit-identical snapshot whether one domain records it or eight record
   interleaved slices of it. (Integer bucket counts and nanosecond sums
   make accumulation order invisible.) *)
let test_hist_determinism_across_domains () =
  let n = 4_000 in
  let value i =
    (* Deterministic spread across ~9 decades, some negatives. *)
    let x = float_of_int ((i * 7919 mod 9973) - 50) in
    x *. 3.7e-6
  in
  Obs.reset ();
  for i = 0 to n - 1 do Obs.Hist.observe "t.d" (value i) done;
  let serial = Obs.Hist.snapshot () in
  Obs.reset ();
  let domains =
    List.init 8 (fun d ->
        Domain.spawn (fun () ->
            let i = ref d in
            while !i < n do
              Obs.Hist.observe "t.d" (value !i);
              i := !i + 8
            done))
  in
  List.iter Domain.join domains;
  let parallel = Obs.Hist.snapshot () in
  Helpers.check_int "one histogram" 1 (List.length serial);
  Helpers.check_int "same table size" (List.length serial)
    (List.length parallel);
  List.iter2 (hist_eq "serial = 8 domains") serial parallel

(* Merge-order invariance (qcheck): any split of a value stream into
   chunks, merged in any association order, equals observing the whole
   stream at once. Guards the integer representation — float sums would
   break this under reassociation. *)
let prop_hist_merge_invariant =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 60)
           (map (fun i -> float_of_int i *. 2.3e-7) (int_range (-1000) 2_000_000)))
        (pair (int_range 0 100) (int_range 0 100)))
  in
  let arb =
    QCheck.make gen ~print:(fun (vs, (i, j)) ->
        Printf.sprintf "%d values, cuts %d %d" (List.length vs) i j)
  in
  QCheck.Test.make ~count:60 ~name:"histogram merge is order-invariant" arb
    (fun (vs, (i, j)) ->
      let n = List.length vs in
      let cut1 = i mod (n + 1) in
      let cut2 = cut1 + (j mod (n - cut1 + 1)) in
      let chunk lo hi = List.filteri (fun k _ -> k >= lo && k < hi) vs in
      let snap vals =
        Obs.reset ();
        List.iter (Obs.Hist.observe "t.q") vals;
        match List.find_opt (fun s -> s.Obs.Hist.h_name = "t.q") (Obs.Hist.snapshot ()) with
        | Some s -> s
        | None ->
          { Obs.Hist.h_name = "t.q"; h_count = 0; h_sum_ns = 0;
            h_buckets = Array.make Obs.Hist.buckets 0 }
      in
      let a = snap (chunk 0 cut1)
      and b = snap (chunk cut1 cut2)
      and c = snap (chunk cut2 n)
      and whole = snap vs in
      let left = hist_add (hist_add a b) c in
      let right = hist_add a (hist_add b c) in
      left = whole && right = whole)

(* ---- Stall attribution ---- *)

let test_conservation_vecadd () =
  let ast = Helpers.vecadd_ast 64 in
  List.iter
    (fun level ->
      List.iter
        (fun issue ->
          let machine = Machine.make ~issue () in
          let prog = Helpers.compile Opts.default level machine (Helpers.lower ast) in
          let r, p = Sim.run_profiled machine prog in
          Helpers.check_profile
            (Printf.sprintf "vecadd/%s/issue-%d" (Level.to_string level) issue)
            machine r p)
        [ 2; 4; 8 ])
    Level.all

(* Conservation must also hold on control-heavy and recurrence-bound
   kernels, and under software pipelining. *)
let test_conservation_other_kernels () =
  List.iter
    (fun (name, ast, sched) ->
      let machine = Machine.issue_8 in
      let prog =
        Helpers.compile (Opts.make ~sched ()) Level.Lev4 machine (Helpers.lower ast)
      in
      let r, p = Sim.run_profiled machine prog in
      Helpers.check_profile name machine r p)
    [
      ("maxval", Helpers.maxval_ast 64, `List);
      ("recurrence", Helpers.recurrence_ast 64, `List);
      ("dotprod-pipe", Helpers.dotprod_ast 64, `Pipe);
    ]

let same_profile name (a : Sim.profile) (b : Sim.profile) =
  Helpers.check_int (name ^ ": issue") a.Sim.p_issue b.Sim.p_issue;
  Helpers.check_int (name ^ ": cycles") a.Sim.p_cycles b.Sim.p_cycles;
  Helpers.check_int (name ^ ": filled") a.Sim.p_filled b.Sim.p_filled;
  Helpers.check_bool (name ^ ": stall causes") true (a.Sim.p_stalls = b.Sim.p_stalls);
  Helpers.check_bool (name ^ ": ilp histogram") true (a.Sim.p_ilp = b.Sim.p_ilp);
  Helpers.check_bool (name ^ ": per-insn counts") true
    (Array.for_all2 (fun (_, x) (_, y) -> x = y) a.Sim.p_insn_counts
       b.Sim.p_insn_counts);
  Helpers.check_bool (name ^ ": peak rob") true (a.Sim.p_max_rob = b.Sim.p_max_rob)

(* Redundant with the t_exec conformance sweep but cheap and local:
   fast-path and reference profiles agree bit for bit. *)
let test_fast_vs_ref_profile () =
  let ast = Helpers.dotprod_ast 64 in
  List.iter
    (fun issue ->
      let machine = Machine.make ~issue () in
      let prog = Helpers.compile Opts.default Level.Lev3 machine (Helpers.lower ast) in
      let _, pf = Sim.run_profiled machine prog in
      let _, pr = Sim.run_ref_profiled machine prog in
      same_profile (Printf.sprintf "dotprod/issue-%d" issue) pf pr)
    [ 2; 8 ]

(* ---- Telemetry invariance (qcheck) ---- *)

let kernel_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> ("vecadd", Helpers.vecadd_ast n)) (int_range 4 48);
        map (fun n -> ("dotprod", Helpers.dotprod_ast n)) (int_range 4 48);
        map (fun n -> ("maxval", Helpers.maxval_ast n)) (int_range 4 48);
        map (fun n -> ("recurrence", Helpers.recurrence_ast n)) (int_range 4 48);
      ])

let config_gen =
  QCheck.Gen.(
    triple kernel_gen
      (oneofl Level.all)
      (oneofl [ Machine.issue_2; Machine.issue_4; Machine.issue_8 ]))

let config_arb =
  QCheck.make config_gen ~print:(fun (((name, _), level, machine)) ->
      Printf.sprintf "%s/%s/%s" name (Level.to_string level)
        machine.Machine.name)

(* Turning every switch on (and profiling) must not change what the
   program computes or how long it takes. *)
let prop_telemetry_invariant =
  QCheck.Test.make ~count:40 ~name:"telemetry never changes results"
    config_arb
    (fun ((_, ast), level, machine) ->
      let prog () = Helpers.compile Opts.default level machine (Helpers.lower ast) in
      let off =
        with_switches ~collecting:false ~tracing:false @@ fun () ->
        Sim.run machine (prog ())
      in
      let on, (r_prof, _) =
        with_switches ~collecting:true ~tracing:true @@ fun () ->
        Obs.reset ();
        let p = prog () in
        (Sim.run machine p, Sim.run_profiled machine p)
      in
      let same (a : Sim.result) (b : Sim.result) =
        a.Sim.cycles = b.Sim.cycles
        && a.Sim.dyn_insns = b.Sim.dyn_insns
        && a.Sim.outputs = b.Sim.outputs
        && a.Sim.arrays_out = b.Sim.arrays_out
      in
      same off on && same off r_prof)

let suite =
  [
    ( "obs.core",
      [
        Alcotest.test_case "everything off by default" `Quick test_off_by_default;
        Alcotest.test_case "span totals and nesting" `Quick test_span_totals;
        Alcotest.test_case "span records on raise" `Quick test_span_raises;
        Alcotest.test_case "counters accumulate" `Quick test_counters;
        Alcotest.test_case "stages accumulate with switches off" `Quick
          test_stages_always_on;
        Alcotest.test_case "trace events and JSON export" `Quick
          test_trace_events_and_json;
        Alcotest.test_case "reset keeps switches" `Quick test_reset_keeps_switches;
      ] );
    ( "obs.hist",
      [
        Alcotest.test_case "bucket placement, clamping, overflow" `Quick
          test_hist_bucket_placement;
        Alcotest.test_case "exact percentile extraction" `Quick
          test_hist_percentiles;
        Alcotest.test_case "merge = observing the concatenation" `Quick
          test_hist_merge;
        Alcotest.test_case "serial and 8-domain snapshots identical" `Quick
          test_hist_determinism_across_domains;
        QCheck_alcotest.to_alcotest prop_hist_merge_invariant;
      ] );
    ( "obs.stalls",
      [
        Alcotest.test_case "conservation: vecadd, all levels x issue 2/4/8"
          `Quick test_conservation_vecadd;
        Alcotest.test_case "conservation: branchy / recurrence / pipelined"
          `Quick test_conservation_other_kernels;
        Alcotest.test_case "fast and reference profiles identical" `Quick
          test_fast_vs_ref_profile;
      ] );
    ( "obs.props",
      [ QCheck_alcotest.to_alcotest prop_telemetry_invariant ] );
  ]
