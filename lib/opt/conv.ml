(* The conventional-optimization pipeline (the paper's "Conv" level): a
   complete set of classical local, global and loop transformations,
   with one cleanup sweep between the structural passes. *)

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
    ("cleanup", cleanup);
    ("ivopt_reduce", Ivopt.reduce);
    ("cleanup", cleanup);
    ("ivopt_eliminate", Ivopt.eliminate);
    ("cleanup", cleanup);
    ("branch_simplify", Branch_simplify.run);
  ]

let run (p : Impact_ir.Prog.t) : Impact_ir.Prog.t =
  List.fold_left (fun p (_, f) -> f p) p passes
