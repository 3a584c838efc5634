(** Linear symbolic values for integer registers within a loop body:
    each value is, when derivable, a linear combination
    [sum coeff_k * key_k + c] over symbolic keys. One engine powers
    memory disambiguation, induction-variable strength reduction, loop
    classification, and the expansion transformations' legality checks. *)

open Impact_ir

module Key : sig
  type t =
    | KReg of Reg.t  (** a register's value at region entry *)
    | KOpq of int  (** an unknowable value (instruction id or merge key) *)
    | KLab of string  (** an array base address *)
    | KTrip of int  (** the unknown trip count of an intermediate loop *)
end
(** {!KMap} orders keys as [Stdlib.compare] does: constructor first,
    then the argument. *)

module KMap : Map.S with type key = Key.t

type lin = { coeffs : int KMap.t; c : int }
(** Every [lin] this module builds keeps only non-zero coefficients;
    {!diff}, {!equal} and {!relation} rely on it. *)

val sub : lin -> lin -> lin

val is_const : lin -> bool

val equal : lin -> lin -> bool

val diff : lin -> lin -> int option
(** [diff a b = Some d] when [a - b] is the constant [d], decided by
    comparing the coefficient maps (no map is built). *)

val terms : lin -> (Key.t * int) list

(** Result of analyzing one body / segment. *)
type t = {
  sb : Sb.t;
  res : lin option array;  (** per position: value written to the int dst *)
  addr : lin option array;  (** per position: memory address of a load/store *)
  end_env : lin Reg.Map.t option;  (** env on reaching the back-branch *)
  final_env : lin Reg.Map.t option;  (** env after the last item *)
  def_counts : (int, int) Hashtbl.t;
}

val analyze : Sb.t -> t

val result : t -> int -> lin option

val address : t -> int -> lin option

val invariant : t -> Reg.t -> bool

val iv_step : t -> Reg.t -> int option
(** [Some d] when the register gains exactly [d] per complete iteration. *)

val lin_step : t -> lin -> int option
(** Per-iteration change of a linear value, when derivable. *)

val label_of_addr : lin -> string option

val subst : lin Reg.Map.t -> lin -> lin
(** Substitute register-entry keys by their values in the environment. *)

val env_of_items : Block.item list -> lin Reg.Map.t
(** Forward evaluation of a loop-preheader region: each integer
    register's value at the end in terms of the values at the start. *)

type relation = Same | Disjoint | May

val relation : lin option -> lin option -> relation
(** Within-iteration relation between two memory addresses: [Same] or
    [Disjoint] when they differ by a constant, [Disjoint] on two
    different single array labels, [May] otherwise. *)
