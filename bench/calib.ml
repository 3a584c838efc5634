(* Host-speed calibration for the `json` artifact.

   Shared hosts change speed by tens of percent between runs, so a raw
   stage time in BENCH_eval.json says as much about the host as about
   the compiler. A calibrated run times slices of a fixed reference
   workload that belongs to the benchmark, not to the compiler, in the
   bench process itself, just before and just after the timed run. A
   stage time divided by the resulting factor reads as it would on a
   host where one slice takes [nominal_s];
   scripts/check_bench_regression.py compares stage times divided by
   their own file's factor.

   The slice does the kinds of work the compiler does: it builds a
   balanced tree, sorts a list and fills a hash table. Its allocations
   die young and its data stays cache-resident, like the compiler's hot
   loops. perfbench pairs the same kind of slice with every benchmark
   task. *)

(* The cost of one slice on the reference host (a 2-vCPU x86-64 VM);
   only ratios between runs matter. *)
let nominal_s = 1e-3

module IM = Map.Make (Int)

(* Keeps the slice's results live. *)
let sink = ref 0

let work () =
  let x = ref 12345 in
  let lcg () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  let m = ref IM.empty in
  for _ = 1 to 1500 do
    m := IM.add (lcg () land 4095) (lcg ()) !m
  done;
  let l = List.init 1500 (fun _ -> lcg () land 0xffff) in
  let h = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace h (k land 511) k) (List.sort compare l);
  sink := !sink + IM.cardinal !m + Hashtbl.length h

(* Wall times of [k] slices. *)
let slices k =
  List.init k (fun _ ->
    let t0 = Impact_obs.Obs.now () in
    work ();
    Impact_obs.Obs.now () -. t0)

(* Host slowness from slice times: the median slice over [nominal_s],
   1.0 on the reference host and 1.3 when the host runs 30% slower.
   The median ignores a slice that an interrupt or a GC slice
   stretched. *)
let factor ts =
  let a = Array.of_list ts in
  Array.sort compare a;
  a.(Array.length a / 2) /. nominal_s
