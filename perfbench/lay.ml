(* Layer timing from outside the program: every call into a layer's
   public entry point goes through [time], which (when tracing) adds the
   call's wall time to that layer's busy total. Untraced runs pay one
   branch per call. Totals are shared by all worker domains, so on a
   parallel batch a layer's busy time can exceed wall time. *)

let now = Impact_obs.Obs.now

let tracing = ref false

let layers =
  [
    "fir.lower"; "core.transform"; "sched.superblock"; "sched.list"; "pipe.run";
    "exact.certify"; "regalloc.measure"; "sim.run"; "ooo.run";
  ]

let busy : (string, float) Hashtbl.t = Hashtbl.create 16

let mutex = Mutex.create ()

let add name dt =
  Mutex.lock mutex;
  Hashtbl.replace busy name (dt +. Option.value (Hashtbl.find_opt busy name) ~default:0.0);
  Mutex.unlock mutex

let time name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    add name (now () -. t0);
    r
  end

let busy_of name = Option.value (Hashtbl.find_opt busy name) ~default:0.0

let reset () = Hashtbl.reset busy

(* ---- Statistics ---- *)

let sorted xs = List.sort compare xs

(* Nearest-rank percentile, p in (0, 100]. *)
let pct p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = List.fold_left ( +. ) 0.0 xs

let isum xs = List.fold_left ( + ) 0 xs

(* Peak resident set of a process, from /proc (Linux). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
      | _ -> go ()
    in
    let r = go () in
    close_in ic;
    r

(* Relative float comparison: the expansion transformations reorder
   floating-point reductions, so results agree to rounding only. *)
let close a b = abs_float (a -. b) <= 1e-6 *. (1.0 +. max (abs_float a) (abs_float b))

let same_result (r1 : Impact_sim.Sim.result) (r2 : Impact_sim.Sim.result) =
  let value (n1, v1) (n2, v2) =
    n1 = n2
    &&
    match (v1, v2) with
    | Impact_sim.Sim.VI a, Impact_sim.Sim.VI b -> a = b
    | Impact_sim.Sim.VF a, Impact_sim.Sim.VF b -> close a b
    | _ -> false
  in
  let arr (n1, a1) (n2, a2) =
    n1 = n2
    && Array.length a1 = Array.length a2
    && Array.for_all2 close a1 a2
  in
  let all2 f l1 l2 = List.length l1 = List.length l2 && List.for_all2 f l1 l2 in
  all2 value r1.Impact_sim.Sim.outputs r2.Impact_sim.Sim.outputs
  && all2 arr r1.Impact_sim.Sim.arrays_out r2.Impact_sim.Sim.arrays_out

(* ---- Output ---- *)

let log fmt = Printf.ksprintf (fun s -> prerr_string s; flush stderr) fmt

(* Every figure keeps all its digits; a non-finite value is a harness
   bug, reported as such rather than printed as invalid JSON. *)
let num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let result_line ~correct ~attempted ~failed (metrics : (string * string * float) list) =
  let ms =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
