(** Dense mutable bitsets over a fixed universe [0, n). The compile hot
    paths (liveness, interference, DCE) use these instead of [Reg.Set]
    so set operations are word-wise. *)

type t

val create : int -> t
(** All-zero set able to hold indices in [0, n). *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val clear : t -> unit

val copy_into : into:t -> t -> unit
(** [copy_into ~into src] overwrites [into] with [src]; both must have
    been created with the same universe size. *)

val union_into : into:t -> t -> bool
(** [union_into ~into src] sets [into := into ∪ src] and reports
    whether [into] grew. *)

val iter : (int -> unit) -> t -> unit
(** Set bits in ascending index order. *)

val first : t -> int
(** Smallest element, or -1 when the set is empty. *)

(** {2 Word-level access}

    For callers that combine several sets of the same universe word by
    word (the interference matrix of the register allocator), then visit
    only the bits of the combined word. *)

val words : t -> int
(** Number of backing words. *)

val word : t -> int -> int
(** [word t w] is the [w]-th backing word. *)

val iter_word : (int -> unit) -> int -> int -> unit
(** [iter_word f w v] calls [f] on the index of every set bit of [v],
    read as word [w] of a set, in ascending order. *)
