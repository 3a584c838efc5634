(* Exact modulo-scheduling oracle (lib/exact):

   - decide: hand-built instances with known Sat/Unsat/Budget verdicts,
     witness validation, and the walk semantics of certify.
   - Reference differential: [Exact.decide]'s worklist propagation
     against the full-sweep [Exact_ref.decide] on random DDGs, hand-built
     warm-start cycles and the corpus straggler; verdicts, node counts
     and witnesses must be identical.
   - Differential qcheck property on random small DDGs: every Sat
     witness validates against the reservation table and all
     (lat, dist) edges (checked independently of the solver); the
     heuristic's own schedule satisfies the oracle's constraint model;
     the certified optimum is never above the heuristic II and never
     below max(ResMII, exact RecMII).
   - Corpus spot checks: the certified statuses the tuning run
     established (see EXPERIMENTS.md "Exact oracle"), and the budget
     behaviour on NAS-6 issue-8, the one loop no budget decides yet. *)

open Impact_ir
module Pipe = Impact_pipe.Pipe
module Exact = Impact_exact.Exact
module Oracle = Impact_exact.Oracle
module Compile = Impact_core.Compile
module Level = Impact_core.Level

let test name f = Alcotest.test_case name `Quick f

let to_alcotest = QCheck_alcotest.to_alcotest

let mk_problem ?(issue = 1) ?(list_ci = max_int) n edges =
  let res_mii = (n + issue - 1) / issue in
  let rec_mii = Pipe.rec_mii_exact ~n edges in
  {
    Pipe.p_n = n;
    p_edges = edges;
    p_issue = issue;
    p_res_mii = res_mii;
    p_rec_mii = rec_mii;
    p_mii = max res_mii rec_mii;
    p_list_ci = list_ci;
  }

let edge src dst lat dist = { Pipe.src; dst; lat; dist }

(* ---- decide on hand-built instances ---- *)

let test_decide_chain () =
  (* 3-op chain, unit latencies, issue 1: any II >= 3 fits, II < 3 has
     too few slots. *)
  let p = mk_problem 3 [ edge 0 1 1 0; edge 1 2 1 0 ] in
  (match Exact.decide p ~ii:3 with
  | Exact.Sat t, _ ->
    Helpers.check_bool "witness validates" true (Exact.check_schedule p ~ii:3 t)
  | _ -> Alcotest.fail "chain at ii=3 should be Sat");
  match Exact.decide p ~ii:2 with
  | Exact.Unsat, _ -> ()
  | _ -> Alcotest.fail "3 ops in 2 issue-1 rows should be Unsat"

let test_decide_recurrence () =
  (* 0 -> 1 (lat 1) and 1 -> 0 carried (lat 3, dist 1): cycle ratio 4,
     so II = 3 is Unsat on precedence alone and II = 4 is Sat. *)
  let p = mk_problem ~issue:2 2 [ edge 0 1 1 0; edge 1 0 3 1 ] in
  Helpers.check_int "rec_mii" 4 p.Pipe.p_rec_mii;
  (match Exact.decide p ~ii:3 with
  | Exact.Unsat, n -> Helpers.check_int "pruned before search" 0 n
  | _ -> Alcotest.fail "ii=3 below the recurrence bound should be Unsat");
  match Exact.decide p ~ii:4 with
  | Exact.Sat t, _ ->
    Helpers.check_bool "witness validates" true (Exact.check_schedule p ~ii:4 t);
    Helpers.check_bool "carried edge honored" true (t.(0) - t.(1) >= 3 - 4)
  | _ -> Alcotest.fail "ii=4 should be Sat"

let test_decide_budget () =
  (* Budget 0 forces the explicit undecided verdict on any instance
     that reaches the search. *)
  let p = mk_problem ~issue:1 4 [ edge 0 1 1 0; edge 2 3 2 0 ] in
  match Exact.decide ~budget:0 p ~ii:4 with
  | Exact.Budget, 0 -> ()
  | _ -> Alcotest.fail "budget 0 must report Budget"

let test_certify_walk () =
  (* Heuristic II 4 on a DOALL-ish body whose true optimum is ResMII=2:
     the walk must find the improvement and prove it. *)
  let p = mk_problem ~issue:2 4 [ edge 0 1 1 0; edge 2 3 1 0 ] ~list_ci:10 in
  let c = Exact.certify p ~heur_ii:(Some 4) in
  Helpers.check_bool "proved" true c.Exact.ct_proved;
  Helpers.check_int "optimal lb" 2 c.Exact.ct_lb;
  Helpers.check_bool "ub = lb" true (c.Exact.ct_ub = Some 2);
  (match c.Exact.ct_witness with
  | Some t -> Helpers.check_bool "witness at 2" true (Exact.check_schedule p ~ii:2 t)
  | None -> Alcotest.fail "search found the optimum, witness expected");
  (* Same problem, heuristic already at the optimum: proved with zero
     search (the walk cap is below MII). *)
  let c2 = Exact.certify p ~heur_ii:(Some 2) in
  Helpers.check_bool "optimal proved free" true
    (c2.Exact.ct_proved && c2.Exact.ct_lb = 2 && c2.Exact.ct_nodes = 0)

let test_warm_start_cycle () =
  (* Two tight recurrences at II 8, issue 1, eight operations: every
     row is taken once. Cycle A (0..3, latency 2 per hop) needs rows
     r, r+2, r+4, r+6; cycle B (4..7, latency 1 per hop, 5 back) needs
     four consecutive rows, two of which are A's. The base weights pass
     the row-free feasibility check, so the search proves Unsat node by node: a row off
     B's stride closes a positive cycle through B's unplaced operations,
     two hops from the one just placed, which the worklist must chase. *)
  let cycle a lats back =
    List.mapi (fun k l -> edge (a + k) (a + k + 1) l 0) lats @ [ edge (a + 3) a back 1 ]
  in
  let a = cycle 0 [ 2; 2; 2 ] 2 in
  let p = mk_problem 8 (a @ cycle 4 [ 1; 1; 1 ] 5) in
  Helpers.check_int "mii" 8 p.Pipe.p_mii;
  let verdict, nodes = Exact.decide p ~ii:8 in
  Helpers.check_bool "Unsat" true (verdict = Exact.Unsat);
  Helpers.check_bool "searched" true (nodes > 0);
  Helpers.check_bool "reference agrees" true ((verdict, nodes) = Exact_ref.decide p ~ii:8);
  (* B on A's stride fits the odd rows: Sat, with the same witness. *)
  let p = mk_problem 8 (a @ cycle 4 [ 2; 2; 2 ] 2) in
  let r = Exact.decide p ~ii:8 in
  Helpers.check_bool "reference agrees (Sat)" true (r = Exact_ref.decide p ~ii:8);
  match r with
  | Exact.Sat t, _ -> Helpers.check_bool "witness validates" true (Exact.check_schedule p ~ii:8 t)
  | _ -> Alcotest.fail "B on the odd rows should be Sat"

(* ---- differential property on random small DDGs ---- *)

type rand_ddg = { rn : int; rissue : int; redges : Pipe.edge list }

let ddg_gen =
  QCheck.Gen.(
    let* rn = int_range 2 8 in
    let* rissue = int_range 1 3 in
    let* nedges = int_range 0 (2 * rn) in
    let edge_gen =
      let* a = int_range 0 (rn - 1) in
      let* b = int_range 0 (rn - 1) in
      let* lat = int_range 1 4 in
      let* carried = bool in
      if carried then
        let* dist = int_range 1 2 in
        return { Pipe.src = a; dst = b; lat; dist }
      else
        (* Within-iteration edges go forward so the dist-0 subgraph is
           acyclic, as in every real extracted loop body. *)
        return
          {
            Pipe.src = min a b;
            dst = max a b;
            lat;
            dist = (if a = b then 1 else 0);
          }
    in
    let* es = list_repeat nedges edge_gen in
    return { rn; rissue; redges = List.sort compare es })

let ddg_print r =
  Printf.sprintf "n=%d issue=%d edges=[%s]" r.rn r.rissue
    (String.concat "; "
       (List.map
          (fun (e : Pipe.edge) ->
            Printf.sprintf "%d->%d l%d d%d" e.Pipe.src e.Pipe.dst e.Pipe.lat
              e.Pipe.dist)
          r.redges))

(* [ddg_gen] plus up to three copies of its operations. A copy gets
   every edge of its original, so the two form a twin class, unless an
   extra self-loop tells them apart: near-twins the symmetry break must
   keep apart. *)
let twin_gen =
  QCheck.Gen.(
    let* r = ddg_gen in
    let* picks = list_size (int_range 0 3) (pair (int_range 0 (r.rn - 1)) (int_range 0 2)) in
    let clone r (j, self_lat) =
      let c = r.rn in
      let at v = if v = j then c else v in
      let copies =
        List.filter_map
          (fun (e : Pipe.edge) ->
            if e.Pipe.src = j || e.Pipe.dst = j then
              Some { e with Pipe.src = at e.Pipe.src; dst = at e.Pipe.dst }
            else None)
          r.redges
      in
      let extra = if self_lat > 0 then [ edge c c self_lat 1 ] else [] in
      { r with rn = c + 1; redges = List.sort compare (r.redges @ copies @ extra) }
    in
    return (List.fold_left clone r picks))

(* The worklist and the reference full sweep reach the same fixpoint
   and the same verdict at every node, so whole searches must match:
   verdict, node count and witness. Small budgets cut both at the same
   node. *)
let prop_decide_vs_ref =
  QCheck.Test.make ~name:"decide = full-sweep reference on random DDGs" ~count:300
    (QCheck.make
       ~print:(fun (r, b) -> Printf.sprintf "%s budget=%d" (ddg_print r) b)
       QCheck.Gen.(pair twin_gen (int_range 1 40)))
    (fun (r, small) ->
      let p = mk_problem ~issue:r.rissue r.rn r.redges in
      List.for_all
        (fun ii ->
          List.for_all
            (fun budget -> Exact.decide ~budget p ~ii = Exact_ref.decide ~budget p ~ii)
            [ 0; small; 30_000 ])
        [ p.Pipe.p_mii; p.Pipe.p_mii + 1; p.Pipe.p_mii + 2 ])

(* Independent witness validation, deliberately not via
   Exact.check_schedule: the reservation table and every edge,
   recomputed from scratch. *)
let validates r ~ii (t : int array) =
  let md x k = ((x mod k) + k) mod k in
  let mrt = Array.make ii 0 in
  Array.iter (fun x -> mrt.(md x ii) <- mrt.(md x ii) + 1) t;
  Array.for_all (fun c -> c <= r.rissue) mrt
  && List.for_all
       (fun (e : Pipe.edge) ->
         t.(e.Pipe.dst) - t.(e.Pipe.src) >= e.Pipe.lat - (ii * e.Pipe.dist))
       r.redges

let prop_oracle_differential =
  QCheck.Test.make ~name:"oracle vs IMS heuristic on random DDGs" ~count:300
    (QCheck.make ~print:ddg_print ddg_gen)
    (fun r ->
      let n = r.rn and issue = r.rissue and edges = r.redges in
      let res_mii = (n + issue - 1) / issue in
      let rec_mii = Pipe.rec_mii_exact ~n edges in
      let mii = max res_mii rec_mii in
      let latsum = List.fold_left (fun a (e : Pipe.edge) -> a + e.Pipe.lat) 1 edges in
      match Pipe.ims_schedule ~issue ~n edges ~mii ~max_ii:(latsum + n) with
      | None -> QCheck.Test.fail_report "heuristic found no schedule at all"
      | Some (ht, heur_ii) ->
        let p = mk_problem ~issue n edges ~list_ci:(latsum + n + 1) in
        (* The heuristic's schedule must satisfy the oracle's constraint
           model — they claim to solve the same problem. *)
        if not (validates r ~ii:heur_ii ht) then
          QCheck.Test.fail_report "heuristic schedule violates the model";
        let c = Exact.certify ~budget:30_000 p ~heur_ii:(Some heur_ii) in
        if c.Exact.ct_lb < mii then
          QCheck.Test.fail_report "certified lb below max(ResMII, RecMII)";
        if c.Exact.ct_lb > heur_ii then
          QCheck.Test.fail_report "certified lb above a known-feasible II";
        (match c.Exact.ct_ub with
        | Some u when u > heur_ii ->
          QCheck.Test.fail_report "ub above the heuristic II"
        | _ -> ());
        (match c.Exact.ct_witness with
        | Some t -> (
          match c.Exact.ct_ub with
          | Some u ->
            if not (validates r ~ii:u t) then
              QCheck.Test.fail_report "oracle witness violates the model"
          | None -> QCheck.Test.fail_report "witness without ub")
        | None -> ());
        (if c.Exact.ct_proved then
           match c.Exact.ct_ub with
           | Some u when u < heur_ii ->
             (* Proved improvement: the optimum must itself be decidable
                Sat, and nothing below it Sat. *)
             (match Exact.decide ~budget:30_000 p ~ii:u with
             | Exact.Sat _, _ -> ()
             | _ -> QCheck.Test.fail_report "proved optimum not Sat on recheck")
           | _ -> ());
        true)

(* ---- corpus spot checks (the tuning outcome, see EXPERIMENTS.md) ---- *)

let certify_kernel name (machine : Machine.t) =
  match Impact_workloads.Suite.find name with
  | None -> Alcotest.failf "unknown kernel %s" name
  | Some w ->
    let tp =
      Compile.transform_with Impact_core.Opts.default Level.Conv
        (Impact_fir.Lower.lower w.Impact_workloads.Suite.ast)
    in
    let _, reps = Pipe.run_with_problems machine tp in
    List.map
      (Oracle.certify_loop ~budget:50_000 ~subject:name
         ~machine:machine.Machine.name)
      reps

let test_corpus_optimal () =
  (* NAS-3 at issue-8: the depth-priority retry recovered II = MII = 3
     (heuristic previously stuck at 4); the oracle proves it optimal
     with zero search because the walk cap is below MII. *)
  match certify_kernel "NAS-3" Machine.issue_8 with
  | [ r ] ->
    Helpers.check_bool "status optimal" true (r.Oracle.r_status = "optimal");
    Helpers.check_bool "II = MII = 3" true
      (r.Oracle.r_heur_ii = Some 3 && r.Oracle.r_mii = Some 3)
  | rs -> Alcotest.failf "expected one NAS-3 loop, got %d" (List.length rs)

let test_corpus_skip_confirmed () =
  (* nasa7-2 at issue-8 skips with MII = list bound; the oracle confirms
     no modulo schedule below the list schedule exists. *)
  let rows = certify_kernel "nasa7-2" Machine.issue_8 in
  let skip =
    List.find_opt (fun r -> r.Oracle.r_heur_ii = None && r.Oracle.r_mii <> None) rows
  in
  match skip with
  | Some r ->
    Helpers.check_bool "skip confirmed" true (r.Oracle.r_status = "skip-confirmed")
  | None -> Alcotest.fail "expected an analyzable skipped loop in nasa7-2"

let test_corpus_straggler () =
  (* NAS-6 at issue 8: 72 operations, II 9 fills every reservation row,
     and 5,000 nodes (perfbench's budget) decide nothing below the
     heuristic's II 10. *)
  match Impact_workloads.Suite.find "NAS-6" with
  | None -> Alcotest.fail "unknown kernel NAS-6"
  | Some w -> (
    let tp =
      Compile.transform_with Impact_core.Opts.default Level.Conv
        (Impact_fir.Lower.lower w.Impact_workloads.Suite.ast)
    in
    let _, reps = Pipe.run_with_problems Machine.issue_8 tp in
    match
      List.filter_map
        (fun ((rep : Pipe.report), p) ->
          match (rep.Pipe.status, p) with
          | Pipe.Pipelined i, Some p -> Some (p, i.Pipe.ii)
          | _ -> None)
        reps
    with
    | [ (p, heur) ] ->
      let c = Exact.certify ~budget:5_000 p ~heur_ii:(Some heur) in
      Helpers.check_int "nodes" 5_000 c.Exact.ct_nodes;
      Helpers.check_bool "not proved" false c.Exact.ct_proved;
      Helpers.check_int "lb" 9 c.Exact.ct_lb;
      Helpers.check_bool "ub = 10" true (c.Exact.ct_ub = Some 10);
      (* At II 11 the search reaches a leaf without backtracking: the
         potentials there, and so the witness, match the reference. *)
      let r = Exact.decide p ~ii:11 in
      Helpers.check_bool "reference agrees at II 11" true (r = Exact_ref.decide p ~ii:11);
      (match r with
      | Exact.Sat t, _ -> Helpers.check_bool "witness" true (Exact.check_schedule p ~ii:11 t)
      | _ -> Alcotest.fail "II 11 should be Sat")
    | ps -> Alcotest.failf "expected one pipelined NAS-6 loop, got %d" (List.length ps))

let suite =
  [
    ( "exact",
      [
        test "decide: chain Sat/Unsat" test_decide_chain;
        test "decide: recurrence bound" test_decide_recurrence;
        test "decide: budget verdict" test_decide_budget;
        test "certify: walk finds and proves the optimum" test_certify_walk;
        test "corpus: NAS-3 issue-8 proved optimal" test_corpus_optimal;
        test "corpus: nasa7-2 issue-8 skip confirmed" test_corpus_skip_confirmed;
        test "corpus: NAS-6 issue-8 bounded at 5k nodes" test_corpus_straggler;
        test "decide: worklist chases a warm-start cycle" test_warm_start_cycle;
      ]
      @ [
          to_alcotest ~rand:(Random.State.make [| 0x5EED |]) prop_oracle_differential;
          to_alcotest ~rand:(Random.State.make [| 0x5EED |]) prop_decide_vs_ref;
        ]
    );
  ]
