(** Data-dependence graph of a label-free instruction segment (a
    superblock's straight-line code, whose only breaks are side exits).
    Edges carry the latencies the list scheduler must respect; control
    edges encode branch ordering, store/branch ordering, and the
    superblock speculation rules (an instruction may move above a branch
    only if it is speculatable and its destination is dead at the branch
    target, and may not sink below a branch whose taken path needs its
    result). *)

open Impact_ir

type t = {
  insns : Insn.t array;  (** the segment; nodes are its positions *)
  succs : (int * int) list array;
      (** position -> (successor, latency), one entry per successor at
          the max latency of the dependences between the two *)
}

val build :
  live_at_target:(Insn.t -> Reg.Set.t) ->
  pre_env:Linval.lin Reg.Map.t ->
  Insn.t array ->
  t
(** [live_at_target] gives the registers live at a branch's target.
    [pre_env] supplies preheader-established relations between live-in
    registers (e.g. expanded induction pointers), used to disambiguate
    addresses whose difference is iteration-invariant. *)

val heights : t -> int array
(** Longest-latency path from each node to the segment end (the list
    scheduling priority). *)

type edge = { src : int; dst : int; lat : int; dist : int }
(** One dependence of the modulo constraint system: in iteration
    [j + dist], the instruction at [dst] starts at least [lat] cycles
    after the one at [src] in iteration [j]. *)

val modulo_edges : pre_env:Linval.lin Reg.Map.t -> Insn.t array -> edge list
(** The modulo scheduler's dependence edges over a branch-free loop
    body: within-iteration flow and memory edges ([dist = 0], the max
    latency per pair, as in {!build}) and loop-carried flow and memory
    edges ([dist >= 1], latency clamped to at least 1; register flow at
    distance 1, memory at the exact distance the linear address
    analysis gives when both addresses share a per-iteration step, and
    a conservative distance-1 pair otherwise). Carried anti and output
    dependences are not built; modulo variable expansion removes them.
    Sorted by (src, dst, lat, dist), duplicates kept. [pre_env] plays
    the same role as in {!build}. *)
