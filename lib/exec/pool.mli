(** Domain-based work pool for the evaluation harness.

    [map f xs] applies [f] to every element of [xs] on a short-lived
    executor (below) of worker domains and returns the results in input
    order — the output is deterministic and identical to
    [Array.map f xs] for any worker count, provided [f] itself is
    deterministic and the tasks do not share mutable state. Exceptions
    raised by a task are re-raised in the caller (first failing index
    wins). With [w >= 2] workers [map] spawns [w] domains and the
    calling domain only waits, so [-j N] runs N worker domains; with
    one worker it runs inline as [Array.map]. *)

val set_default_workers : int -> unit
(** Override the default worker count for subsequent [map] calls
    ([0] restores auto-detection). *)

val resolve_workers : unit -> int
(** The worker count [map] will use when [?workers] is omitted: the
    [set_default_workers] override if set, else [IMPACT_JOBS] from the
    environment, else [Domain.recommended_domain_count ()]. *)

val map : ?workers:int -> ('a -> 'b) -> 'a array -> 'b array

val map_list : ?workers:int -> ('a -> 'b) -> 'a list -> 'b list

(** {1 Persistent executor}

    A long-lived pool of worker domains behind a {e bounded} job queue —
    the admission-control stage of the network query service, and the
    one worker loop behind {!map}, which runs a short-lived executor per
    batch. A persistent one keeps its domains alive and lets
    independent producers (connection handlers) feed jobs continuously.
    The queue bound turns overload into an explicit, testable signal:
    {!submit} returns [false] instead of buffering without limit. *)

type executor

val create_executor :
  ?workers:int -> ?on_complete:(unit -> unit) -> queue_depth:int -> unit -> executor
(** Spawn [workers] domains (default {!resolve_workers}) behind a queue
    bounded at [queue_depth] pending jobs (clamped to at least 1).

    [on_complete] is the completion notification: it runs on the worker
    domain after every job finishes (normally or by exception), outside
    the executor lock. An event-driven consumer passes a self-pipe
    wakeup here so it can multiplex job completions with socket
    readiness instead of blocking on a condition variable; the callback
    must therefore be cheap, non-blocking and exception-free
    (exceptions escaping it are swallowed like job exceptions). *)

val submit : executor -> (unit -> unit) -> bool
(** Enqueue a job, or return [false] when the queue is at capacity or
    the executor was shut down. Jobs run on an arbitrary worker domain
    in FIFO pick-up order; exceptions escaping a job are swallowed (a
    job is responsible for reporting its own failures). *)

val queue_length : executor -> int
(** Jobs accepted but not yet picked up by a worker. *)

val running : executor -> int
(** Jobs currently executing. *)

type executor_stats = {
  submitted : int;  (** jobs accepted by {!submit} over the lifetime *)
  completed : int;  (** jobs that finished running *)
  rejected : int;  (** submissions refused (queue full or shut down) *)
  peak_queue : int;  (** high-water mark of the pending queue *)
}

val executor_stats : executor -> executor_stats
(** Lifetime accounting snapshot; the occupancy counterpart to the
    instantaneous {!queue_length}/{!running}. Feeds the serve tier's
    [{"op": "metrics"}] executor object. *)

val executor_workers : executor -> int

val shutdown_executor : executor -> unit
(** Drain and join: refuse new submissions, run every already-accepted
    job, then join the worker domains. Blocks until the queue is empty
    and all workers have exited. *)
