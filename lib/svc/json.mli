(** Minimal self-contained JSON reader/printer for the query service.

    The toolchain deliberately carries no JSON dependency (the bench
    harness writes its artifact by hand), so the service parses its
    one-object-per-line protocol with this ~150-line recursive-descent
    parser. Covers all of RFC 8259 except that numbers are read into
    OCaml [int]/[float] (integers that fit an [int] parse as [Int]). *)

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

val to_string : t -> string
(** Compact (single-line) rendering. A finite [Float] always prints with
    a decimal point (integral ones as [N.0], others with six decimals),
    so it parses back as a [Float]; NaN prints as [null]. *)

val member : string -> t -> t option
(** Field lookup in an [Obj] ([None] for other constructors). *)
