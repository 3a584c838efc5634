(* Cross-layer observability. Design constraints, in order:

   - Disabled cost: every instrumented call site in the compiler and
     simulator hot paths must reduce to a single atomic load when both
     switches are off, so telemetry never perturbs benchmark results.
   - Determinism: worker domains record concurrently, so everything
     aggregated here is either a commutative sum (counters, span
     totals, stage seconds) or carries its own ordering key (trace
     events carry timestamps; Perfetto sorts). Readback sorts by name,
     so reports are byte-stable for any worker count and interleaving.
   - One clock: bechamel's monotonic clock (clock_gettime MONOTONIC,
     nanoseconds), already a dependency of the bench harness. *)

type event = {
  ename : string;
  ecat : string;
  ets_us : float;
  edur_us : float;
  etid : int;
  eargs : (string * string) list;
}

type span_total = { sp_name : string; sp_calls : int; sp_total_s : float }

type report = {
  r_spans : span_total list;
  r_counters : (string * int) list;
}

let collecting_flag = Atomic.make false

let tracing_flag = Atomic.make false

let set_collecting b = Atomic.set collecting_flag b

let collecting () = Atomic.get collecting_flag

let set_tracing b = Atomic.set tracing_flag b

let enabled () = Atomic.get collecting_flag || Atomic.get tracing_flag

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* One mutex for all tables: contention is negligible at span/stage
   granularity, and a single lock keeps the invariants simple. *)
let m = Mutex.create ()

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let events_rev : event list ref = ref []

(* Bound the trace buffer so a long-running sampled server cannot grow
   it without limit; drops are counted and reported by [events_dropped]. *)
let max_events = 2_000_000

let n_events = ref 0

let events_dropped_count = ref 0

let span_tbl : (string, float * int) Hashtbl.t = Hashtbl.create 64

let counter_tbl : (string, int) Hashtbl.t = Hashtbl.create 64

let stage_tbl : (string, float) Hashtbl.t = Hashtbl.create 16

let tid () = (Domain.self () :> int)

let add_span_total name dur =
  locked (fun () ->
    let total, calls =
      Option.value ~default:(0.0, 0) (Hashtbl.find_opt span_tbl name)
    in
    Hashtbl.replace span_tbl name (total +. dur, calls + 1))

let push_event ?tid:tid_opt ~cat ~args name ~t0 ~t1 =
  let ev =
    {
      ename = name;
      ecat = cat;
      ets_us = t0 *. 1e6;
      edur_us = (t1 -. t0) *. 1e6;
      etid = (match tid_opt with Some t -> t | None -> tid ());
      eargs = args;
    }
  in
  locked (fun () ->
    if !n_events < max_events then begin
      events_rev := ev :: !events_rev;
      incr n_events
    end
    else incr events_dropped_count)

(* Sampler-decided event recording: unconditional, so a caller that
   samples 1-in-N connections can record spans while the global tracing
   switch stays off (and the compiler hot paths stay unperturbed). *)
let event ?(cat = "") ?(args = []) ?tid name ~t0 ~t1 =
  push_event ?tid ~cat ~args name ~t0 ~t1

let events_dropped () = locked (fun () -> !events_dropped_count)

(* Shared close-out for span/emit/stage. *)
let finish ~cat ~args ~as_stage name t0 =
  let t1 = now () in
  let dur = t1 -. t0 in
  if as_stage then
    locked (fun () ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt stage_tbl name) in
      Hashtbl.replace stage_tbl name (prev +. dur))
  else if Atomic.get collecting_flag then add_span_total name dur;
  if Atomic.get tracing_flag then push_event ~cat ~args name ~t0 ~t1

let span ?(cat = "") ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> finish ~cat ~args ~as_stage:false name t0) f
  end

let emit ?(cat = "") ?(args = []) name ~t0 =
  if enabled () then finish ~cat ~args ~as_stage:false name t0

let count ?(n = 1) name =
  if Atomic.get collecting_flag then
    locked (fun () ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt counter_tbl name) in
      Hashtbl.replace counter_tbl name (prev + n))

let stage name f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> finish ~cat:"stage" ~args:[] ~as_stage:true name t0) f

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let stage_snapshot () = locked (fun () -> sorted_bindings stage_tbl)

let reset_stages () = locked (fun () -> Hashtbl.reset stage_tbl)

let counter_value name =
  locked (fun () -> Option.value ~default:0 (Hashtbl.find_opt counter_tbl name))

let report () =
  locked (fun () ->
    {
      r_spans =
        List.map
          (fun (name, (total, calls)) ->
            { sp_name = name; sp_calls = calls; sp_total_s = total })
          (sorted_bindings span_tbl);
      r_counters = sorted_bindings counter_tbl;
    })

(* ---- Latency histograms ----

   Log-bucketed, fixed boundaries, always on (like the stage
   accumulators): the only recording sites are the serve tier's
   per-request paths, where one mutex-guarded array increment per
   request is negligible. Everything aggregated is an integer
   (bucket counts, value count, sum in nanoseconds), so merging is a
   commutative, associative sum and snapshots are bit-identical for any
   worker count, recording interleaving or merge order. *)

module Hist = struct
  (* 5 buckets per decade from 1 us to 100 s: upper bounds
     10^(k/5 - 6) for k = 0..40, resolution ratio 10^(1/5) ~ 1.58x.
     One final overflow bucket catches anything above 100 s. *)
  let bounds = Array.init 41 (fun k -> 10.0 ** ((float_of_int k /. 5.0) -. 6.0))

  let buckets = Array.length bounds + 1

  type snapshot = {
    h_name : string;
    h_count : int;
    h_sum_ns : int;
    h_buckets : int array;  (* length [buckets]; last is overflow *)
  }

  (* name -> (bucket counts, value count, sum ns); guarded by [m]. *)
  let tbl : (string, int array * int ref * int ref) Hashtbl.t = Hashtbl.create 16

  let bucket_of v =
    (* First bound >= v; bounds are sorted so a binary search would do,
       but 41 entries make a linear scan perfectly fine and simpler. *)
    let rec go k =
      if k >= Array.length bounds then Array.length bounds
      else if v <= bounds.(k) then k
      else go (k + 1)
    in
    go 0

  let observe name seconds =
    let v = if Float.is_nan seconds || seconds < 0.0 then 0.0 else seconds in
    let k = bucket_of v in
    let ns = int_of_float (Float.round (v *. 1e9)) in
    locked (fun () ->
      let counts, count, sum =
        match Hashtbl.find_opt tbl name with
        | Some entry -> entry
        | None ->
          let entry = (Array.make buckets 0, ref 0, ref 0) in
          Hashtbl.add tbl name entry;
          entry
      in
      counts.(k) <- counts.(k) + 1;
      incr count;
      sum := !sum + ns)

  let snapshot () =
    locked (fun () ->
      Hashtbl.fold
        (fun name (counts, count, sum) acc ->
          { h_name = name; h_count = !count; h_sum_ns = !sum;
            h_buckets = Array.copy counts }
          :: acc)
        tbl []
      |> List.sort (fun a b -> String.compare a.h_name b.h_name))

  (* Exact nearest-rank extraction over the bucket counts: the value
     returned is the upper bound of the bucket holding the ceil(p% * n)-th
     smallest sample — deterministic, and within one bucket ratio
     (~1.58x) of the true sample. The overflow bucket reports the last
     finite bound. *)
  let percentile s p =
    if s.h_count <= 0 then 0.0
    else begin
      let rank =
        let r = int_of_float (Float.ceil (float_of_int s.h_count *. p /. 100.0)) in
        max 1 (min s.h_count r)
      in
      let rec go k seen =
        if k >= buckets then bounds.(Array.length bounds - 1)
        else
          let seen = seen + s.h_buckets.(k) in
          if seen >= rank then
            if k < Array.length bounds then bounds.(k)
            else bounds.(Array.length bounds - 1)
          else go (k + 1) seen
      in
      go 0 0
    end

  let reset_tbl () = Hashtbl.reset tbl
end

let reset () =
  locked (fun () ->
    events_rev := [];
    n_events := 0;
    events_dropped_count := 0;
    Hashtbl.reset span_tbl;
    Hashtbl.reset counter_tbl;
    Hashtbl.reset stage_tbl;
    Hist.reset_tbl ())

(* ---- Chrome trace export ---- *)

let events () =
  let evs = locked (fun () -> List.rev !events_rev) in
  match evs with
  | [] -> []
  | _ ->
    (* Rebase to the earliest start: raw timestamps count from boot. *)
    let t0 = List.fold_left (fun a ev -> Float.min a ev.ets_us) Float.infinity evs in
    List.map (fun ev -> { ev with ets_us = ev.ets_us -. t0 }) evs

let write_trace path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  List.iteri
    (fun k ev ->
      if k > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \
         \"ts\": %.3f, \"dur\": %.3f"
        (Json.escape ev.ename)
        (Json.escape (if ev.ecat = "" then "misc" else ev.ecat))
        ev.etid ev.ets_us ev.edur_us;
      (match ev.eargs with
      | [] -> ()
      | args ->
        output_string oc ", \"args\": {";
        List.iteri
          (fun j (k', v) ->
            if j > 0 then output_string oc ", ";
            Printf.fprintf oc "\"%s\": \"%s\"" (Json.escape k') (Json.escape v))
          args;
        output_char oc '}');
      output_char oc '}')
    (events ());
  output_string oc "\n]}\n";
  close_out oc
