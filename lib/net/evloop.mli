(** Building blocks for the select-based event loop of the serve tier.

    {!Listener} is a single-threaded reactor: every socket is
    nonblocking, one thread multiplexes them all with [Unix.select]
    (re-armed with fresh interest sets on each iteration), and executor
    domains signal it through a self-pipe. This module holds the three
    socket-level pieces of that loop:

    - {!Wake}: the self-pipe. Signal-safe, domain-safe, coalescing.
    - {!Framer}: incremental newline framing with a byte bound —
      bytes in, [`Line]/[`Over] events out, O(max_line) memory.
    - {!Outq}: an ordered write queue of response segments with a
      per-segment flush callback, so the loop knows the exact moment a
      response's last byte was accepted by the kernel. *)

module Wake : sig
  type t

  val create : unit -> t
  (** A nonblocking pipe pair. *)

  val ring : t -> unit
  (** Make the next (or current) [select] on {!fd} return. Async-signal-
      safe and callable from any thread or domain; writes one byte and
      ignores a full pipe — a pending byte already guarantees a wakeup. *)

  val fd : t -> Unix.file_descr
  (** The read end, to include in every [select] read set. *)

  val drain : t -> unit
  (** Consume all pending wakeup bytes (nonblocking). *)

  val close : t -> unit
end

module Framer : sig
  type t

  val create : max_line:int -> t

  val feed : t -> Bytes.t -> int -> ([ `Line of string | `Over ] -> unit) -> unit
  (** [feed t buf n k] consumes [buf[0..n-1]], invoking [k] once per
      completed line in input order. A line whose length exceeds
      [max_line] is reported as [`Over] (its bytes are discarded as they
      stream in, so memory stays bounded by [max_line]). *)

  val final : t -> [ `Line of string | `Over ] option
  (** The unterminated tail at EOF, if any — the protocol treats it as a
      final line, exactly like the batch reader. Resets the framer. *)
end

module Outq : sig
  type t

  val create : unit -> t

  val push : t -> ?on_flush:(wrote:bool -> unit) -> string -> unit
  (** Append a segment. [on_flush ~wrote:true] fires when its last byte
      has been written to the socket; [~wrote:false] if the queue is
      aborted first. *)

  val is_empty : t -> bool

  val flush : t -> Unix.file_descr -> [ `Drained | `Blocked | `Error ]
  (** Write segments in order until the queue empties ([`Drained]), the
      socket would block ([`Blocked]), or it errors ([`Error] — the
      queue is aborted: every unflushed segment's callback fires with
      [~wrote:false]). *)
end
