(** The 40 loop nests of the paper's Table 2, as synthetic mini-Fortran
    kernels matching the published per-loop characteristics (see
    DESIGN.md section 2 for the substitution rationale). *)

type ltype = Doall | Doacross | Serial

val ltype_to_string : ltype -> string

type t = {
  name : string;
  origin : string;  (** PERFECT | SPEC | VECTOR *)
  size : int;  (** paper: FORTRAN lines in the innermost loop *)
  iters : int;  (** paper: average innermost iteration count *)
  sim_iters : int;  (** iteration count actually simulated *)
  nest : int;
  ltype : ltype;
  conds : bool;
  ast : Impact_fir.Ast.program;
}

val all : t list
(** In Table 2 order, each [ast] parsed at start-up from the embedded
    source file [lib/workloads/table2/NAME.f]. *)

val find : string -> t option
(** Lookup by [name], also accepting a few aliases (e.g. ["vecadd"] for
    the vector-add kernel ["add"]). *)
