(** The one JSON reader/printer of the toolchain.

    The toolchain deliberately carries no JSON dependency, so this
    module is the only place that knows the format: the query
    service parses its one-object-per-line protocol with it, and the
    service records, [impactc profile --json], the bench artifacts and
    the oracle census are built as {!t} values and printed with
    {!to_string}. The Chrome trace writer streams its (large) output by
    hand but escapes every string through {!escape}. Covers all of RFC
    8259 except that numbers are read into OCaml [int]/[float] (integers
    that fit an [int] parse as [Int]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in input order *)

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an
    error. Errors carry a character offset and a short message. *)

val escape : string -> string
(** The body of a JSON string literal, without its quotes: double
    quotes and backslashes get a backslash, a newline prints as [\n]
    and every other control byte as a [\u00XX] escape; all other bytes
    pass through unchanged. *)

val to_string : t -> string
(** Compact (single-line) rendering. A finite [Float] always prints with
    a decimal point (integral ones as [N.0], others with six decimals),
    so it parses back as a [Float]; NaN prints as [null]. *)

val member : string -> t -> t option
(** Field lookup in an [Obj] ([None] for other constructors). *)
