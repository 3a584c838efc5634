(** Virtual registers, separated into integer and floating-point classes
    as in the paper's processor model. *)

type cls = Int | Float

type t = { id : int; cls : cls }

(** Fresh-register generator; one per program. *)
type gen

val make_gen : unit -> gen

val fresh : gen -> cls -> t

val gen_count : gen -> int
(** Upper bound (exclusive) on register ids issued so far. *)

val compare : t -> t -> int
(** By id, then class ([Int] before [Float]). *)

val equal : t -> t -> bool

val hash : t -> int
(** [id * 2 + (0 for Int, 1 for Float)]: injective, and ascending hash
    order is ascending {!compare} order. *)

val cls_to_string : cls -> string

val to_string : t -> string
(** [to_string r] prints registers in the paper's style, e.g. [r4f]. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
