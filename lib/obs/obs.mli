(** Cross-layer observability: spans, counters, stage timers and Chrome
    trace export for the whole compiler/simulator stack.

    Two independent switches control the fine-grained instrumentation,
    both off by default so the instrumented code paths cost one atomic
    read when telemetry is unused:

    - {e collecting} accumulates span totals and counters into the
      in-process tables read back by {!report};
    - {e tracing} additionally records every span as a timed event for
      {!write_trace} (Chrome [trace_event] JSON, loadable in Perfetto).

    The coarse {e stage} accumulators ([transform], [schedule],
    [simulate], [regalloc], [pipe]) are always on: they feed the
    [stages] object of [BENCH_eval.json] and the stderr stage report,
    exactly as the former [Impact_exec.Timing] did.

    All tables are guarded by one mutex and all counters are
    commutative sums, so concurrent worker domains may record freely:
    totals are deterministic for any worker count. *)

val set_collecting : bool -> unit

val collecting : unit -> bool

val set_tracing : bool -> unit

val enabled : unit -> bool
(** [collecting () || tracing ()]. *)

val now : unit -> float
(** Monotonic clock, in seconds. Not related to the epoch; use only for
    durations. *)

(** {1 Spans} *)

val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()], attributing its wall time to [name].
    Nestable (events record the domain they ran on, so Perfetto renders
    nesting per worker). When telemetry is disabled the only cost is
    one atomic load. The duration is recorded even when [f] raises. *)

val emit : ?cat:string -> ?args:(string * string) list -> string -> t0:float -> unit
(** [emit name ~t0] closes a span opened by hand at time [t0 = now ()];
    for call sites whose [args] are only known after the work is done. *)

(** {1 Counters} *)

val count : ?n:int -> string -> unit
(** Add [n] (default 1) to the named counter. No-op unless collecting. *)

val counter_value : string -> int
(** Current value of one counter ([0] if it was never bumped). Used by
    the drivers to report e.g. result-cache hit/miss totals without
    scanning the full report. *)

(** {1 Latency histograms (always on)}

    Log-bucketed histograms for the serve tier's request latencies.
    Bucket boundaries are fixed at process start (5 per decade from
    1 us to 100 s, ratio [10^(1/5)] ~ 1.58x, plus one overflow bucket),
    increments are mutex-guarded integer adds, and sums are kept in
    integer nanoseconds — so snapshots are bit-identical for any worker
    count, recording interleaving or merge order, and percentile
    extraction is an exact nearest-rank walk over the counts. *)

module Hist : sig
  val bounds : float array
  (** Bucket upper bounds in seconds, strictly increasing. *)

  val buckets : int
  (** [Array.length bounds + 1]; the final bucket is the overflow. *)

  type snapshot = {
    h_name : string;
    h_count : int;  (** values observed *)
    h_sum_ns : int;  (** sum of observed values, integer nanoseconds *)
    h_buckets : int array;  (** per-bucket counts, length {!buckets} *)
  }

  val observe : string -> float -> unit
  (** [observe name seconds] adds one sample (clamped below at 0). *)

  val snapshot : unit -> snapshot list
  (** All histograms, sorted by name. *)

  val percentile : snapshot -> float -> float
  (** [percentile s p] for [p] in [(0, 100]]: the upper bound (seconds)
      of the bucket holding the [ceil(p/100 * count)]-th smallest
      sample; [0.0] when the histogram is empty; the last finite bound
      for samples in the overflow bucket. *)
end

(** {1 Stages (always on)} *)

val stage : string -> (unit -> 'a) -> 'a
(** Like {!span} but for the coarse pipeline stages: the duration is
    always accumulated (and also recorded as a trace event when tracing
    is on). *)

val stage_snapshot : unit -> (string * float) list
(** Accumulated (stage, busy seconds), sorted by name. Busy time is
    summed across worker domains, so a stage can exceed elapsed wall
    time on a parallel run. *)

val reset_stages : unit -> unit

(** {1 Report} *)

type span_total = { sp_name : string; sp_calls : int; sp_total_s : float }

type report = {
  r_spans : span_total list;  (** per-span call counts and total time *)
  r_counters : (string * int) list;
}

val report : unit -> report

val reset : unit -> unit
(** Clear spans, counters, stages and buffered trace events.
    Leaves the [collecting]/[tracing] switches untouched. *)

(** {1 Chrome trace export} *)

type event = {
  ename : string;
  ecat : string;
  ets_us : float;  (** start, microseconds, rebased to the first event *)
  edur_us : float;
  etid : int;  (** recording domain *)
  eargs : (string * string) list;
}

val event :
  ?cat:string ->
  ?args:(string * string) list ->
  ?tid:int ->
  string ->
  t0:float ->
  t1:float ->
  unit
(** Record one completed trace event {e unconditionally} — for callers
    that make their own sampling decision (e.g. the TCP listener tracing
    1-in-N connections) while the global tracing switch stays off.
    [tid] overrides the recording domain id (sampled request spans use
    the connection id, so Perfetto renders one row per connection). The
    buffer is bounded; events past the cap are dropped and counted in
    {!events_dropped}. *)

val events : unit -> event list
(** Buffered trace events in recording order, timestamps rebased so the
    earliest event starts at 0. *)

val events_dropped : unit -> int
(** Events discarded because the buffer cap was reached. *)

val write_trace : string -> unit
(** Write the buffered events to [path] as Chrome [trace_event] JSON
    ([{"traceEvents": [...]}]), loadable in Perfetto / chrome://tracing. *)
