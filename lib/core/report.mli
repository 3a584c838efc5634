(** Text rendering of the paper's tables and figures. *)

val distribution_table :
  title:string -> labels:string list -> (Level.t * int array) list -> string

val matrix_machines : ?core:Impact_ir.Machine.core -> unit -> Impact_ir.Machine.t list
(** One machine per issue width of the paper's matrix (2, 4, 8) on the
    given core (default [Inorder]). The single source of truth for the
    level x issue matrix used by [impactc sweep]/[profile] and the bench
    harness. *)

val table1 : unit -> string

val cells_csv : Experiment.cell list -> string
