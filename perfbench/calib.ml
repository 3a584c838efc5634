(* Host-speed calibration.

   The shared hosts the benchmark runs on change speed by tens of
   percent within seconds and between runs, while process CPU time
   tracks wall time: the work itself runs slower, it is not descheduled.
   So every timed unit of work is paired with a [slice] of a fixed
   reference workload that belongs to the benchmark, not to the
   program, run right next to it. A time normalised by the slices timed
   around it reads as it would on a host where one slice takes
   [nominal_s].

   The slice does the kinds of work the compiler does: it builds a
   balanced tree, sorts a list and fills a hash table. Its allocations
   die young, so the program's heap hardly changes its cost. A slice that
   also chased pointers through a 4 MB table tracked the batches worse
   (it missed most of the slowdown that an interpreter loop saw), so it
   stays cache-resident like the compiler's hot loops. *)

(* The cost of one slice on the reference host. A slice takes 0.6 to
   0.8 ms on a 2-vCPU x86-64 VM; only ratios between runs matter. *)
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

(* Run one slice; returns its wall time. *)
let slice () =
  let t0 = Lay.now () in
  work ();
  Lay.now () -. t0

(* Host slowness measured by [k] slices: 1.0 on the reference host, 1.3
   when the host runs 30% slower. *)
let factor k =
  let ts = List.init k (fun _ -> slice ()) in
  Lay.sum ts /. (float_of_int k *. nominal_s)

(* Run [f] between two sets of slices; returns its wall time divided by
   the host factor measured around it, and its result. *)
let time f =
  let before = factor 20 in
  let t0 = Lay.now () in
  let r = f () in
  let dt = Lay.now () -. t0 in
  (dt /. ((before +. factor 20) /. 2.0), r)
