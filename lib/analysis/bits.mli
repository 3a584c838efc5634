(** Dense mutable bitsets over a fixed universe [0, n). The compile hot
    paths (liveness, interference, DCE) use these instead of [Reg.Set]
    so set operations are word-wise. *)

type t = int array
(** The backing words, [Sys.int_size] bits each: index [i] is bit
    [i mod Sys.int_size] of word [i / Sys.int_size]. Exposed so that a
    hot loop in another module can read, test and set bits inline:
    the default (dev) build compiles every module opaquely, so a call
    into this one is never inlined. *)

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

val union_diff_into : into:t -> t -> t -> bool
(** [union_diff_into ~into src minus] sets [into := into ∪ (src \ minus)]
    and reports whether [into] grew. *)

val iter : (int -> unit) -> t -> unit
(** Set bits in ascending index order. Each word is read once, when the
    iteration reaches it, so [f] may remove the element it is given. *)

val first : t -> int
(** Smallest element, or -1 when the set is empty. *)

(** {2 Word-level access}

    For callers that combine several sets of the same universe word by
    word through {!t}'s words (the interference matrix of the register
    allocator), then visit only the bits of the combined word. *)

val lowest : int -> int
(** [lowest v] is the position of the lowest set bit of a nonzero word,
    for loops that walk a word's bits without a closure per bit. *)

val rank : int array -> int array * int array
(** [rank prio] is [(order, rank_of)]: [order.(r)] is the position of
    rank [r], highest [prio] first, lower position first on ties, and
    [rank_of] its inverse. Over ranks, {!first} is the top priority. *)
