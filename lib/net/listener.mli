(** Concurrent TCP front end for the query service.

    A listener accepts connections and speaks the batch protocol of
    {!Impact_svc.Service} per connection: one JSON request per line in,
    one JSON record per line out, answers in per-connection request
    order even though evaluation is concurrent (clients may pipeline
    freely). Every answered line is byte-identical to what
    {!Impact_svc.Service.serve_lines} produces for the same input —
    the differential oracle enforced by [test/t_net.ml].

    Admission control sits between the connections and the
    {!Impact_exec.Pool} executor domains:

    - requests enter a queue bounded at [queue_depth]; when it is full
      the request is answered immediately with an
      [{"error": "overloaded"}] record instead of buffering — load is
      shed per request, never by dropping the connection;
    - with [deadline_ms] set, a request that a worker picks up after
      its deadline (measured from the moment the line was read) is
      answered with an [{"error": "deadline"}] record without being
      evaluated. The deadline is re-checked after any injected
      slow-cell delay, immediately before evaluation begins; once
      evaluation starts it runs to completion;
    - request lines longer than [max_line] bytes are answered with the
      same ["line too long"] record the batch service emits;
    - [{"op": "health"}] requests bypass the admission queue and are
      answered inline with queue depth, worker occupancy, request
      counters, uptime and cache statistics (including the [stale]
      format-version-rollover count) — so health stays observable under
      full overload;
    - [{"op": "metrics"}] likewise bypasses the queue and returns the
      full observability snapshot: the [serve.latency.*] histograms
      (total latency split by outcome, queue wait, eval time, write
      time — exact integer bucket counts plus extracted
      p50/p90/p99/p999), executor occupancy and lifetime accounting
      (submitted/completed/rejected/peak queue), request counters and
      cache statistics.

    Every answered request line carries a lifecycle record stamped at
    read, queue-admit, eval-start, eval-end and write-flush; it is
    closed out into the histograms, the optional access log
    ([config.access_log]) and, for sampled connections
    ([config.trace_sample]), Chrome-trace spans at the moment the
    response's last byte is accepted by the kernel.

    {b Architecture.} One event-loop thread owns every socket: the
    listening socket, all connection sockets (nonblocking, multiplexed
    with [Unix.select], interest sets re-armed per readiness) and a
    self-pipe. Each connection carries an incremental line framer, a
    FIFO of answer cells and an ordered write queue; executor worker
    domains fill cells and ring the self-pipe ({!Impact_exec.Pool}
    completion notification), and the loop serializes the filled prefix
    of each connection's cell queue into its write queue — so pipelined
    evaluation completes out of order while the wire order never does,
    with no per-connection threads anywhere.

    {!stop} begins a graceful drain: the listening socket closes, the
    read side of every open connection is shut down, requests already
    read are evaluated and their responses written and flushed, then
    connections close and the executor drains. {!wait} returns when the
    drain is complete. Faults from {!Faults} are injected at the
    protocol boundary (reader delays, mid-line disconnects, slow
    cells); a severed connection loses only its own remaining
    responses.

    The request counters live in one place, the atomics behind
    {!stats}. *)

type config = {
  host : string;  (** interface to bind, name or dotted quad *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  workers : int option;  (** executor domains (default: pool default) *)
  queue_depth : int;  (** admission-queue bound *)
  deadline_ms : int option;  (** per-request deadline *)
  max_line : int;  (** request-line byte bound *)
  faults : Faults.t;
  store : Impact_svc.Store.t option;  (** measurement cache, if any *)
  access_log : string option;
      (** write one JSON record per answered request line to this file
          (truncated at start, closed at drain): read timestamp, conn
          and line ids, event kind, outcome, cache disposition, loop,
          and the total/queue/eval/write timing breakdown in ms *)
  trace_sample : int option;
      (** [Some n] records Chrome-trace spans (req/queue/eval/write,
          one Perfetto row per connection) for 1-in-[n] connections via
          {!Impact_obs.Obs.event}; the caller writes them out with
          {!Impact_obs.Obs.write_trace} after {!wait} *)
}

val default_config : ?store:Impact_svc.Store.t -> unit -> config
(** Loopback host, ephemeral port, pool-default workers, queue depth
    64, no deadline, {!Impact_svc.Service.default_max_line}, no
    faults, no access log, no trace sampling. *)

type t

type stats = {
  accepted : int;  (** connections accepted *)
  requests : int;  (** non-blank request lines read *)
  responses : int;  (** response lines fully written *)
  shed : int;  (** requests answered [overloaded] *)
  deadlined : int;  (** requests answered [deadline] *)
  too_long : int;  (** request lines over the byte bound *)
  dropped_conns : int;  (** connections severed by fault injection *)
}

val start : config -> t
(** Bind, listen and return immediately; accepting and serving run on
    background threads. Raises [Unix.Unix_error] if the address cannot
    be bound. Ignores [SIGPIPE] process-wide (writes to dead sockets
    must surface as errors, not kill the server). *)

val port : t -> int
(** The bound port — the actual one when the config asked for 0. *)

val stop : t -> unit
(** Begin graceful drain (idempotent, callable from a signal handler:
    it only flips an atomic and writes to a self-pipe). *)

val wait : t -> unit
(** Block until the drain completes: accept loop exited, every
    connection finished and closed, executor drained and joined. *)

val stats : t -> stats
