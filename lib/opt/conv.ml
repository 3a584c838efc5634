(* The conventional-optimization pipeline (the paper's "Conv" level): a
   complete set of classical local, global and loop transformations.
   Branch simplification and a cleanup; loop-invariant code motion and
   induction-variable strength reduction back to back, then one cleanup
   for both; induction-variable elimination and a last cleanup. Every
   entry changes some output when dropped alone (t_integration checks
   each), so none runs only to confirm the one before it. *)

(* The combined forward sweep ([Cse.run]: propagation, folding and value
   numbering) followed by DCE. A second sweep would change nothing: the
   tests hold every cleanup input of the corpus and of random kernels
   to that. *)
let cleanup (p : Impact_ir.Prog.t) : Impact_ir.Prog.t = Dce.run (Cse.run p)

let passes : (string * (Impact_ir.Prog.t -> Impact_ir.Prog.t)) list =
  [
    ("branch_simplify", Branch_simplify.run);
    ("cleanup", cleanup);
    ("licm", Licm.run);
    ("ivopt_reduce", Ivopt.reduce);
    ("cleanup", cleanup);
    ("ivopt_eliminate", Ivopt.eliminate);
    ("cleanup", cleanup);
  ]

let run (p : Impact_ir.Prog.t) : Impact_ir.Prog.t =
  List.fold_left (fun p (_, f) -> f p) p passes
