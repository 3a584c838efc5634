(** Persistent, content-addressed measurement store.

    Maps {!Query.digest}s to serialized {!Impact_core.Compile.measurement}s
    under a cache directory (default [_cache/]), fronted by an
    in-process LRU. Designed to never crash an evaluation:

    - writers publish with write-to-temp + atomic rename, so concurrent
      processes and worker domains may share one directory;
    - every entry carries the {!Query.format_version}, its query digest
      and an MD5 of the serialized payload; version-mismatched, truncated,
      corrupt or otherwise implausible entries read as cache misses and
      are recomputed;
    - I/O errors (unreadable directory, ENOSPC, races with concurrent
      cleanup) degrade to miss / no-op, never to an exception.

    A hit is byte-equivalent to recomputing the measurement: the payload
    is an exact [Marshal] round-trip, so warm evaluation output is
    byte-identical to cold. All operations are domain-safe; lookups and
    stores bump the [svc.cache.*] {!Impact_obs.Obs} counters (when
    collecting) as well as the always-on {!stats}. *)

open Impact_core

type t

type stats = {
  mem_hits : int;  (** lookups served by the in-process LRU *)
  disk_hits : int;  (** lookups served by the directory *)
  misses : int;  (** lookups that found nothing usable *)
  stores : int;  (** entries published *)
  corrupt : int;  (** entries rejected as corrupt (subset of misses) *)
  stale : int;
      (** entries rejected for a {!Query.format_version} mismatch
          (subset of misses; distinct from [corrupt]) *)
}

val hits : stats -> int
(** [mem_hits + disk_hits]. *)

val resolve_dir : unit -> string
(** [IMPACT_CACHE_DIR] from the environment, else [_cache]. *)

val open_store : ?lru_capacity:int -> string -> t
(** Open (creating the directory if needed) a store rooted at the given
    directory. [lru_capacity] bounds the in-process front (default
    4096 entries). Opening sweeps orphaned writer temp files left by a
    process killed mid-publication; entries themselves are never swept
    (a torn or truncated entry reads as a miss and is republished on the
    next store). *)

val dir : t -> string

val lookup : t -> Query.t -> Compile.measurement option

val add : t -> Query.t -> Compile.measurement -> unit

val stats : t -> stats
