(* The conventional-optimization pipeline (the paper's "Conv" level): a
   complete set of classical local, global and loop transformations.
   Cleanup rounds are iterated to a fixpoint between the structural
   passes. *)

(* One round is the combined forward sweep ([Cse.run]: propagation,
   folding and value numbering) followed by DCE. The round count and
   cap hits are flushed to telemetry once per call. *)
let max_rounds = 6

let cleanup (p : Impact_ir.Prog.t) : Impact_ir.Prog.t =
  let p, outcome = Walk.fixpoint ~max_rounds (fun p -> Dce.run (Cse.run p)) p in
  if Impact_obs.Obs.collecting () then begin
    let rounds, capped =
      match outcome with Walk.Converged n -> (n, 0) | Walk.Capped -> (max_rounds, 1)
    in
    Impact_obs.Obs.count ~n:rounds "cleanup.rounds";
    Impact_obs.Obs.count ~n:capped "cleanup.capped"
  end;
  p

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
