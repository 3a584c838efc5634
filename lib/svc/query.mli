(** Canonical evaluation query: everything that determines one
    measurement, reduced to a stable digest.

    A query identifies a cell of the evaluation matrix by {e content},
    not by name: the subject is its source digest (so two loops with
    identical lowered source share cache entries, and editing a kernel
    invalidates exactly its own cells), plus the transformation level,
    the machine description, and the resolved {!Impact_core.Opts.t}.
    {!digest} additionally folds in {!format_version}, so bumping the
    version invalidates every persisted entry at once — the rule when
    the serialized measurement layout or any semantics-affecting
    compiler behaviour changes. *)

open Impact_ir
open Impact_core

type t = {
  q_subject : string;  (** hex digest of the subject's content *)
  q_level : Level.t;
  q_machine : Machine.t;
  q_opts : Opts.t;
}

val format_version : int
(** Cache format stamp. Bump when the serialized measurement layout, the
    digest recipe, or compiler semantics change; old entries then read
    as misses and are recomputed. *)

val subject_digest : Impact_fir.Ast.program -> string
(** Content digest (hex MD5) of a subject: the pretty-printed
    deterministic lowering plus every array's evaluated initial contents
    (the AST itself holds initializer closures and cannot be hashed
    structurally). *)

val make : subject:string -> opts:Opts.t -> Level.t -> Machine.t -> t

val digest : t -> string
(** Hex MD5 of the query's canonical single-line rendering (which
    includes {!format_version}); the key of the persistent store. *)
