(** Data-dependence graph of a superblock. Edges carry the latencies the
    list scheduler must respect; control edges encode branch ordering,
    store/branch ordering, and the superblock speculation rules (an
    instruction may move above a branch only if it is speculatable and
    its destination is dead at the branch target, and may not sink below
    a branch whose taken path needs its result). *)

open Impact_ir

type kind = Flow | Anti | Output | Mem | Ctrl

type edge = { esrc : int; edst : int; kind : kind; lat : int }

type t = {
  sb : Sb.t;
  nodes : int list;  (** instruction positions in program order *)
  edges : edge list;
  succs : (int * int) list array;  (** position -> (successor, latency) *)
  preds : (int * int) list array;
}

val build :
  ?live_at_target:(Insn.t -> Reg.Set.t option) ->
  ?pre_env:Linval.lin Reg.Map.t ->
  Sb.t ->
  t
(** [pre_env] supplies preheader-established relations between live-in
    registers (e.g. expanded induction pointers), used to disambiguate
    addresses whose difference is iteration-invariant. *)

val heights : t -> int array
(** Longest-latency path from each node to the segment end (the list
    scheduling priority). *)

type cedge = { cesrc : int; cedst : int; clat : int; cdist : int }
(** A loop-carried flow or memory dependence: the instruction at
    [cesrc] in iteration [j] must precede the one at [cedst] in
    iteration [j + cdist] by [clat] cycles. Register flow always has
    distance 1; memory dependences get an exact distance from the
    linear address analysis when both addresses share a per-iteration
    step, and a conservative distance-1 pair of edges otherwise. *)

val carried : ?pre_env:Linval.lin Reg.Map.t -> t -> cedge list
(** Cross-iteration extension of the dependence graph: carried register
    flow edges and carried memory edges with (latency, distance) pairs.
    Carried anti and output dependences are not built; the modulo
    scheduler removes them by register versioning. [pre_env] plays the
    same role as in {!build}. *)
