(** Batch query service: JSON queries in, JSON results out.

    The protocol is one JSON object per line. A request selects a Table 2
    loop nest and a configuration:

    {v {"loop": "dotprod", "level": "Lev4", "issue": 8,
    "sched": "pipe", "unroll": 4, "fuel": 1000000} v}

    Only ["loop"] is required; [level] defaults to [Lev4], [issue] to 8,
    [sched] to ["list"], [unroll]/[fuel] to the compiler defaults
    ([null] fields read as absent). Every input line is answered by
    exactly one output line, in input order; blank lines are skipped.
    Malformed queries, unknown loops and simulation timeouts produce
    structured [{"ok": false, ...}] error records instead of failures —
    the service never crashes on input. Requests are evaluated in
    batches across the {!Impact_exec.Pool} worker domains, consulting
    (and filling) the persistent measurement {!Store} when one is
    given. *)

val subject_of_workload : Impact_workloads.Suite.t -> Impact_core.Experiment.subject
(** A Table 2 loop nest as an evaluation subject, grouped by its
    published loop type. *)

val install_cache : Store.t -> unit
(** Install measurement-cache hooks backed by the store into
    {!Impact_core.Experiment.set_cache}, so [Experiment.run_all_with]
    (and the bench harness built on it) consults the persistent store
    before scheduling any cell work. Keys follow the {!Query} recipe, so
    entries are shared with the query service. *)

val uninstall_cache : unit -> unit

val answer_line : store:Store.t option -> line:int -> string -> string
(** Answer one request line ([line] is its 1-based input position, echoed
    in the response). Always returns a single-line JSON record. *)

val core_fields : Impact_ir.Machine.core -> (string * Json.t) list
(** The [core]/[rob]/[phys_regs] members that name a machine's core
    (["inorder"] with [null] sizes, or ["ooo"] with both sizes), as every
    query response, [impactc profile --json] and [BENCH_ooo.json] carry
    them. *)

type answer = {
  a_text : string;  (** the single-line JSON record (= {!answer_line}) *)
  a_ok : bool;  (** whether the record carries [{"ok": true}] *)
  a_cache : string option;
      (** cache disposition of a successful evaluation
          (["hit"]/["miss"]/["off"]); [None] on errors *)
  a_loop : string option;  (** the loop the request named, when parsed *)
}

val answer_line_ex : store:Store.t option -> line:int -> string -> answer
(** {!answer_line} plus the metadata the TCP listener stamps into its
    request-lifecycle records (outcome and cache disposition) without
    re-parsing the response text. [a_text] is byte-identical to
    {!answer_line} on the same input. *)

type input =
  | Line of string  (** a complete request line, verbatim *)
  | Oversized of int
      (** a line that exceeded the reader's byte bound (the payload is
          the bound it blew through; its bytes were discarded) *)

val default_max_line : int
(** Default request-line byte bound (1 MiB). A line strictly longer is
    rejected with a structured ["line too long"] record instead of
    buffering without limit. *)

val error_record : line:int -> error:string -> detail:string -> string
(** The single-line JSON error record
    [{"ok": false, "line": N, "error": E, "detail": D}] every failed
    request is answered with, on either path. *)

val too_long_record : line:int -> max_line:int -> string
(** The {!error_record} for an oversized request line; shared with the
    TCP listener so both paths answer byte-identically. *)

(** Incremental newline framing with a byte bound: bytes in, {!input}s
    out, O(max_line) memory. {!read_lines} and the TCP listener both
    frame through it, so a line reads the same on either path. *)
module Framer : sig
  type t

  val create : max_line:int -> t

  val feed : t -> Bytes.t -> int -> (input -> unit) -> unit
  (** [feed t buf n k] consumes [buf[0..n-1]], invoking [k] once per
      completed line in input order. A line longer than [max_line] bytes
      is reported as [Oversized max_line] (its bytes are discarded as
      they stream in). *)

  val final : t -> input option
  (** The unterminated tail at end of input, if any: the protocol treats
      it as a final line. Resets the framer. *)
end

val serve_inputs :
  ?workers:int -> store:Store.t option -> input list -> string list
(** Answer a batch on the domain pool; responses are in request order.
    Blank [Line]s are skipped (but still counted in line numbering);
    [Oversized] inputs are answered with {!too_long_record}. *)

val serve_lines : ?workers:int -> store:Store.t option -> string list -> string list
(** [serve_inputs] over plain [Line]s — the in-process oracle the
    network path is differentially tested against. *)

val read_lines : ?max_line:int -> in_channel -> input list
(** Split a channel into newline-terminated inputs through a {!Framer}
    bounded at [max_line] bytes (default {!default_max_line}); longer
    lines read as [Oversized] with their excess bytes discarded, so
    memory use is O(max_line) regardless of input. *)

val run_channel :
  ?workers:int ->
  ?max_line:int ->
  store:Store.t option ->
  in_channel ->
  out_channel ->
  unit
(** Read all requests from a channel, answer the batch, write one
    response per line, flush. *)
