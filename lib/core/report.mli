(** Text rendering of the paper's tables and figures. *)

val distribution_table :
  title:string -> bounds:float list -> step:float -> (Level.t * int array) list -> string
(** One row per bin, one column per level. A bin's label runs from its
    lower bound to one [step] below the next bound (["1.25-1.49"] at
    step 0.01, printed to two decimals; ["16-31"] at step 1, printed
    whole); the last bin is open (["3.00+"]). *)

val matrix_machines : ?core:Impact_ir.Machine.core -> unit -> Impact_ir.Machine.t list
(** One machine per issue width of the paper's matrix (2, 4, 8) on the
    given core (default [Inorder]). The single source of truth for the
    level x issue matrix used by [impactc sweep]/[profile] and the bench
    harness. *)

val table1 : unit -> string
