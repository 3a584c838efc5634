(* Software pipelining (lib/pipe): recurrence analysis (RecMII,
   feasibility and priorities against the linear-scan reference in
   [Rec_mii_ref]), the pinned Fig. 1 vecadd initiation interval, skipped
   loops keeping the list scheduler's body, and output equivalence of
   modulo-scheduled code against the unscheduled baseline across the
   whole workload suite. *)

open Impact_ir
open Helpers
module Pipe = Impact_pipe.Pipe
module Compile = Impact_core.Compile
module Level = Impact_core.Level
module Liveness = Impact_analysis.Liveness
module Linval = Impact_analysis.Linval
module Suite = Impact_workloads.Suite

let test name f = Alcotest.test_case name `Quick f

let to_alcotest = QCheck_alcotest.to_alcotest

let transform_conv ast = Compile.transform_with Impact_core.Opts.default Level.Conv (lower ast)

let machines = [ Machine.issue_2; Machine.issue_4; Machine.issue_8 ]

(* ---- recurrence circuits in Pipe's modulo-scheduling problems ---- *)

let conv_problem ast =
  match Pipe.run_with_problems Machine.issue_4 (transform_conv ast) with
  | _, [ (_, Some p) ] -> p
  | _ -> Alcotest.fail "expected one analyzable loop"

let self_loops (p : Pipe.problem) =
  List.filter (fun (e : Pipe.edge) -> e.Pipe.src = e.Pipe.dst) p.Pipe.p_edges

let test_dotprod_circuits () =
  let p = conv_problem (dotprod_ast 32) in
  List.iter
    (fun (e : Pipe.edge) -> check_bool "self-circuit distance positive" true (e.Pipe.dist > 0))
    (self_loops p);
  (* The accumulator s = s + A(j)*B(j) is a distance-1 self-recurrence
     through a 3-cycle fadd, so RecMII is at least 3. *)
  check_bool "accumulator self-circuit present" true
    (List.exists (fun (e : Pipe.edge) -> e.Pipe.dist = 1 && e.Pipe.lat >= 3) (self_loops p));
  check_bool "dotprod RecMII >= fadd latency" true (p.Pipe.p_rec_mii >= 3);
  check_bool "infeasible below RecMII" false
    (Pipe.ii_feasible ~n:p.Pipe.p_n p.Pipe.p_edges (p.Pipe.p_rec_mii - 1))

let test_vecadd_circuits () =
  let p = conv_problem (vecadd_ast 32) in
  (* The only true recurrence is the counter increment: a single-node
     circuit of ratio 1 (vecadd is DOALL otherwise). *)
  check_bool "counter self-circuit present" true
    (List.exists (fun (e : Pipe.edge) -> e.Pipe.lat = 1 && e.Pipe.dist = 1) (self_loops p));
  check_int "vecadd RecMII" 1 p.Pipe.p_rec_mii

(* ---- RecMII, feasibility and priorities against the reference ---- *)

let edge src dst lat dist = { Pipe.src; dst; lat; dist }

let check_against_ref tag n edges =
  let want = Rec_mii_ref.rec_mii n edges in
  check_int (tag ^ ": RecMII") want (Pipe.rec_mii_exact ~n edges);
  for ii = 1 to want + 3 do
    let ok = Rec_mii_ref.feasible n edges ii in
    check_bool (Printf.sprintf "%s: feasible at II %d" tag ii) ok (Pipe.ii_feasible ~n edges ii);
    if ok then begin
      check_bool (Printf.sprintf "%s: heights at II %d" tag ii) true
        (Pipe.heights ~n edges ii = Rec_mii_ref.heights n edges ii);
      check_bool (Printf.sprintf "%s: depths at II %d" tag ii) true
        (Pipe.depths ~n edges ii = Rec_mii_ref.depths n edges ii)
    end
  done

let test_rec_mii_cases () =
  let chain k lat = List.init (k - 1) (fun i -> edge i (i + 1) lat 0) in
  let cases =
    [
      ("no edges", 3, [], 1);
      ("n = 1, no edges", 1, [], 1);
      ("n = 1, self-loop", 1, [ edge 0 0 3 1 ], 3);
      ("self-loop over distance 2", 1, [ edge 0 0 5 2 ], 3);
      ("zero-latency cycle", 2, [ edge 0 1 0 0; edge 1 0 0 1 ], 1);
      ( "disjoint SCCs",
        6,
        [
          edge 0 1 1 0; edge 1 0 3 1;
          edge 2 3 2 0; edge 3 4 2 0; edge 4 2 3 2;
          edge 5 5 5 1;
          edge 1 2 9 0; edge 4 5 9 0;
        ],
        5 );
      ("long dist-0 chain closed by one carried edge", 40, edge 39 0 1 1 :: chain 40 2, 79);
      ("dist-0 positive cycle: latsum cap", 2, [ edge 0 1 1 0; edge 1 0 1 0 ], 3);
      ( "latsum cap counts acyclic edges",
        3,
        [ edge 0 1 2 0; edge 1 0 2 0; edge 1 2 7 0 ],
        12 );
      ("ratio equal to the cap minus one", 1, [ edge 0 0 6 1 ], 6);
      (* The search meets the carried cycle 0-1 (ratio 4) at II 1, jumps
         to 4, then meets the distance-0 cycle 2-3 and stops at the cap. *)
      ( "carried cycle, then a distance-0 cycle",
        4,
        [ edge 0 1 3 0; edge 1 0 1 1; edge 1 2 1 0; edge 2 3 1 0; edge 3 2 1 0 ],
        8 );
      (* Two SCCs: the search meets 0-1 (ratio 3) first, jumps to 3,
         meets the critical 2-3 (ratio 8) and jumps to 8. *)
      ( "first cycle found is not the critical one",
        4,
        [ edge 0 1 2 0; edge 1 0 1 1; edge 2 3 4 0; edge 3 2 4 1; edge 1 2 1 0 ],
        8 );
    ]
  in
  List.iter
    (fun (tag, n, edges, want) ->
      check_int (tag ^ ": reference") want (Rec_mii_ref.rec_mii n edges);
      check_against_ref tag n edges)
    cases

(* Random edge systems: dist-0 edges run forward in program order, as
   in real bodies, unless [wild] lets them close zero-distance cycles
   (where the latency-sum cap binds). *)
let gen_edges n wild =
  QCheck.Gen.(
    list_size (int_range 0 (3 * n))
      (quad (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 6)
         (oneofl [ 0; 0; 1; 1; 2; 3 ]))
    >|= fun es ->
    ( n,
      List.map
        (fun (a, b, lat, dist) ->
          if dist = 0 && (not wild) && a >= b then
            if a = b then edge a a lat 1 else edge b a lat 0
          else edge a b lat dist)
        es ))

let gen_system = QCheck.Gen.(int_range 1 12 >>= fun n -> bool >>= gen_edges n)

let gen_tame_system = QCheck.Gen.(int_range 1 12 >>= fun n -> gen_edges n false)

let print_system (n, edges) =
  Printf.sprintf "n=%d [%s]" n
    (String.concat "; "
       (List.map
          (fun (e : Pipe.edge) ->
            Printf.sprintf "%d->%d lat %d dist %d" e.Pipe.src e.Pipe.dst e.Pipe.lat e.Pipe.dist)
          edges))

let prop_rec_mii_ref =
  QCheck.Test.make ~name:"RecMII, feasibility and priorities = reference" ~count:500
    (QCheck.make ~print:print_system gen_system)
    (fun (n, edges) ->
      check_against_ref (print_system (n, edges)) n edges;
      true)

(* ---- IMS against the scanning reference ----

   [Pipe.ims_schedule] picks by priority rank and skips the feasibility
   check [Ims_ref] still makes at every II; both must return the same
   times and II. *)

let ims_agrees ~issue ~n edges ~mii ~max_ii =
  Pipe.ims_schedule ~issue ~n edges ~mii ~max_ii
  = Ims_ref.ims_schedule ~issue ~n edges ~mii ~max_ii

let prop_ims_ref =
  QCheck.Test.make ~name:"IMS = scanning reference at issue 1, 2, 4 and 8" ~count:300
    (QCheck.make ~print:print_system gen_tame_system)
    (fun (n, edges) ->
      let latsum = List.fold_left (fun a (e : Pipe.edge) -> a + e.Pipe.lat) 1 edges in
      let rec_mii = Pipe.rec_mii_exact ~n edges in
      List.for_all
        (fun issue ->
          let mii = Int.max ((n + issue - 1) / issue) rec_mii in
          ims_agrees ~issue ~n edges ~mii ~max_ii:(latsum + n))
        [ 1; 2; 4; 8 ])


let corpus_machines =
  machines @ List.map (fun issue -> Machine.ooo ~issue ~rob:32 ()) [ 2; 4; 8 ]

let corpus =
  lazy
    (List.concat_map
       (fun (w : Suite.t) ->
         List.concat_map
           (fun level ->
             let tp = Compile.transform_with Impact_core.Opts.default level (lower w.Suite.ast) in
             List.map
               (fun (m : Machine.t) ->
                 let tag =
                   Printf.sprintf "%s/%s/%s" w.Suite.name (Level.to_string level) m.Machine.name
                 in
                 (tag, m, tp, Pipe.run_with_problems m tp))
               corpus_machines)
           Level.all)
       Suite.all)

let test_corpus_rec_mii () =
  List.iter
    (fun (tag, _, _, (_, pairs)) ->
      List.iter
        (fun ((r : Pipe.report), problem) ->
          match problem with
          | Some (p : Pipe.problem) ->
            check_int
              (Printf.sprintf "%s loop %d RecMII" tag r.Pipe.lid)
              (Rec_mii_ref.rec_mii p.Pipe.p_n p.Pipe.p_edges)
              p.Pipe.p_rec_mii
          | None -> ())
        pairs)
    (Lazy.force corpus)

let test_corpus_ims () =
  List.iter
    (fun (tag, _, _, (_, pairs)) ->
      List.iter
        (fun ((r : Pipe.report), problem) ->
          match problem with
          | Some (p : Pipe.problem) ->
            check_bool
              (Printf.sprintf "%s loop %d IMS" tag r.Pipe.lid)
              true
              (ims_agrees ~issue:p.Pipe.p_issue ~n:p.Pipe.p_n p.Pipe.p_edges ~mii:p.Pipe.p_mii
                 ~max_ii:(p.Pipe.p_list_ci - 1))
          | None -> ())
        pairs)
    (Lazy.force corpus)

(* ---- a skipped loop keeps exactly the list scheduler's body ---- *)

let innermost_loops (p : Prog.t) =
  let tbl = Hashtbl.create 8 in
  let rec go items =
    List.iter
      (function
        | Block.Loop l -> if Block.is_innermost l then Hashtbl.replace tbl l.Block.lid l else go l.Block.body
        | Block.Ins _ | Block.Lbl _ -> ())
      items
  in
  go p.Prog.entry;
  tbl

let rec body_text (b : Block.t) =
  String.concat ";"
    (List.map
       (function
         | Block.Ins i -> Printf.sprintf "%s#%d" (Insn.to_string i) i.Insn.id
         | Block.Lbl l -> l ^ ":"
         | Block.Loop l ->
           Printf.sprintf "%s:{%s}%s:" l.Block.head (body_text l.Block.body) l.Block.exit_lbl)
       b)

(* Walk [out] as [Pipe.run_with_problems] builds it: each skipped
   innermost loop's body must equal [List_sched.schedule_loop] of the
   input loop, with the preheader env of the output items before it.
   Returns the number of loops checked. *)
let check_skipped_bodies tag machine (input : Prog.t) ((out : Prog.t), pairs) =
  let live_at_target = Liveness.target_live (Liveness.Dense.of_prog input) in
  let src = innermost_loops input in
  let skipped = Hashtbl.create 8 in
  List.iter
    (fun ((r : Pipe.report), _) ->
      match r.Pipe.status with
      | Pipe.Skipped _ -> Hashtbl.replace skipped r.Pipe.lid ()
      | Pipe.Pipelined _ -> ())
    pairs;
  let checked = ref 0 in
  let rec walk prev = function
    | [] -> ()
    | (Block.Loop l as it) :: rest when Block.is_innermost l && Hashtbl.mem skipped l.Block.lid ->
      let pre_env = Linval.env_of_items (List.rev prev) in
      let want =
        match
          Impact_sched.List_sched.schedule_loop machine ~live_at_target ~pre_env
            (Hashtbl.find src l.Block.lid)
        with
        | [ Block.Loop w ] -> w.Block.body
        | _ -> Alcotest.fail "schedule_loop returns one loop"
      in
      check_string
        (Printf.sprintf "%s loop %d body" tag l.Block.lid)
        (body_text want) (body_text l.Block.body);
      incr checked;
      walk (it :: prev) rest
    | (Block.Loop l as it) :: rest ->
      if not (Block.is_innermost l) then walk [] l.Block.body;
      walk (it :: prev) rest
    | it :: rest -> walk (it :: prev) rest
  in
  walk [] out.Prog.entry;
  !checked

let test_corpus_skipped_listed () =
  let reused = ref 0 in
  List.iter
    (fun (tag, m, tp, ((_, pairs) as result)) ->
      ignore (check_skipped_bodies tag m tp result);
      let src = innermost_loops tp in
      List.iter
        (fun ((r : Pipe.report), problem) ->
          match (r.Pipe.status, problem) with
          | Pipe.Skipped _, Some _
            when List.for_all
                   (function Block.Ins _ -> true | _ -> false)
                   (Hashtbl.find src r.Pipe.lid).Block.body ->
            incr reused
          | _ -> ())
        pairs)
    (Lazy.force corpus);
  check_bool "label-free analyzed loops are skipped somewhere" true (!reused > 0)

(* ---- the modulo edges against the former construction ----

   [Pipe_edges_ref.pipe_edges] builds the edge set the way the pass did
   before [Ddg.modulo_edges]. Its inputs are recovered from the output
   program: walking it as the pass walks the input, each analysed loop
   sits where its head label (pipelined) or its loop item (skipped) is,
   and the output items before it give the preheader environment. *)

let pipe_inputs (input : Prog.t) (out : Prog.t) =
  let src = innermost_loops input in
  let heads = Hashtbl.create 8 in
  Hashtbl.iter (fun _ (l : Block.loop) -> Hashtbl.replace heads l.Block.head l) src;
  let found = Hashtbl.create 8 in
  let note prev (l : Block.loop) =
    let a = Array.of_list (Block.body_insns l) in
    Hashtbl.replace found l.Block.lid
      (Linval.env_of_items (List.rev prev), Array.sub a 0 (max 0 (Array.length a - 1)))
  in
  let rec walk prev = function
    | [] -> ()
    | (Block.Loop l as it) :: rest when Block.is_innermost l && Hashtbl.mem src l.Block.lid ->
      note prev (Hashtbl.find src l.Block.lid);
      walk (it :: prev) rest
    | (Block.Lbl h as it) :: rest when Hashtbl.mem heads h ->
      note prev (Hashtbl.find heads h);
      walk (it :: prev) rest
    | (Block.Loop l as it) :: rest ->
      if not (Block.is_innermost l) then walk [] l.Block.body;
      walk (it :: prev) rest
    | it :: rest -> walk (it :: prev) rest
  in
  walk [] out.Prog.entry;
  found

(* Every analysed loop's [p_edges] equals the former construction's;
   returns the number of loops compared. *)
let check_modulo_edges tag (input : Prog.t) ((out : Prog.t), pairs) =
  let inputs = pipe_inputs input out in
  List.fold_left
    (fun n ((r : Pipe.report), problem) ->
      match problem with
      | None -> n
      | Some (p : Pipe.problem) ->
        let pre_env, body = Hashtbl.find inputs r.Pipe.lid in
        if p.Pipe.p_edges <> Pipe_edges_ref.pipe_edges ~pre_env body then
          Alcotest.failf "%s loop %d: p_edges differ from the reference" tag r.Pipe.lid;
        n + 1)
    0 pairs

let test_corpus_modulo_edges () =
  let n =
    List.fold_left
      (fun n (tag, _, tp, result) -> n + check_modulo_edges tag tp result)
      0 (Lazy.force corpus)
  in
  check_bool "analysed loops compared" true (n > 0)

(* Loops the corpus rarely shapes this way: a value carried through
   memory at distance k, stores to one array at two offsets, a step
   that is not the element size, a carried register read twice by one
   instruction (a duplicate edge), and a stride hidden behind a register
   read from memory. Every level and corpus machine. *)
let adversarial_asts =
  let open Ast_build in
  let n = 24 in
  let arrays = [ array1 "A" TReal (n + 8) (pseudo 11); array1 "B" TReal (n + 8) (pseudo 12) ] in
  let prog stmts =
    {
      decls =
        scalar "j" TInt :: scalar "s" TInt :: scalar "x" TReal
        :: array1 "K" TInt 4 (fun _ -> 2.0) :: arrays;
      stmts;
      outs = [ "x" ];
    }
  in
  let carried k lo hi =
    ( Printf.sprintf "A[j%+d] = f(A[j])" k,
      prog [ do_ "j" (i lo) (i hi) [ astore "A" [ v "j" +: i k ] ((idx "A" [ v "j" ] *: r 0.5) +: r 1.0) ] ] )
  in
  [
    carried 0 1 n;
    carried 1 1 n;
    carried 2 1 n;
    carried (-1) 2 (n + 1);
    ( "same-label stores at two offsets",
      prog
        [
          do_ "j" (i 1) (i n)
            [
              astore "A" [ v "j" ] (idx "B" [ v "j" ] +: r 1.0);
              astore "A" [ v "j" +: i 2 ] (idx "B" [ v "j" ] *: r 2.0);
              astore "B" [ v "j" +: i 1 ] (idx "A" [ v "j" +: i 1 ]);
            ];
        ] );
    ( "step of three elements",
      prog
        [
          do_step "j" (i 1) (i n) (i 3)
            [
              astore "A" [ v "j" +: i 3 ] (idx "A" [ v "j" ] *: r 0.5);
              astore "A" [ v "j" +: i 1 ] (idx "A" [ v "j" ] +: r 1.0);
            ];
        ] );
    ( "index scaled by two",
      prog
        [ do_ "j" (i 1) (i 12) [ astore "A" [ i 2 *: v "j" ] (idx "A" [ (i 2 *: v "j") -: i 1 ] +: r 1.0) ] ] );
    ( "carried register read twice",
      prog
        [
          do_ "j" (i 1) (i n)
            [ assign "x" (((v "x" *: v "x") *: r 0.25) +: (idx "A" [ v "j" ] *: r 0.01)) ];
        ] );
    ( "stride behind a register",
      prog
        [
          assign "s" (idx "K" [ i 1 ]);
          do_ "j" (i 1) (i 10)
            [ astore "A" [ v "j" *: v "s" ] (idx "A" [ (v "j" *: v "s") +: i 1 ] *: r 0.5) ];
        ] );
  ]

let test_adversarial_modulo_edges () =
  let n = ref 0 in
  List.iter
    (fun (name, ast) ->
      let base = run (lower ast) in
      List.iter
        (fun level ->
          let tp = Compile.transform_with Impact_core.Opts.default level (lower ast) in
          List.iter
            (fun (m : Machine.t) ->
              let tag = Printf.sprintf "%s/%s/%s" name (Level.to_string level) m.Machine.name in
              let ((out, _) as result) = Pipe.run_with_problems m tp in
              n := !n + check_modulo_edges tag tp result;
              same_observables tag base (run ~machine:m out))
            corpus_machines)
        Level.all)
    adversarial_asts;
  check_bool "adversarial loops analysed" true (!n > 0)

(* An analyzed loop whose body holds an internal label still goes
   through [List_sched.schedule_loop], which splits it at the label. *)
let test_labelled_body_falls_back () =
  let w = List.find (fun (w : Suite.t) -> w.Suite.name = "nasa7-2") Suite.all in
  let tp = transform_conv w.Suite.ast in
  let lbl = "Lmid" in
  let rec add items =
    List.map
      (function
        | Block.Loop l when Block.is_innermost l && l.Block.lid = 3 ->
          let body =
            match l.Block.body with
            | first :: rest -> first :: Block.Lbl lbl :: rest
            | [] -> Alcotest.fail "empty loop body"
          in
          Block.Loop { l with Block.body }
        | Block.Loop l -> Block.Loop { l with Block.body = add l.Block.body }
        | it -> it)
      items
  in
  let tp = Prog.with_entry tp (add tp.Prog.entry) in
  let ((out, pairs) as result) = Pipe.run_with_problems Machine.issue_8 tp in
  (match List.find (fun ((r : Pipe.report), _) -> r.Pipe.lid = 3) pairs with
  | { Pipe.status = Pipe.Skipped { list_ci = Some _; _ }; _ }, Some _ -> ()
  | r, _ -> Alcotest.failf "loop 3 not analyzed and skipped: %s" (Pipe.report_to_string r));
  check_int "skipped loops checked" 1 (check_skipped_bodies "nasa7-2+label" Machine.issue_8 tp result);
  check_bool "label kept" true
    (List.mem (Block.Lbl lbl) (Hashtbl.find (innermost_loops out) 3).Block.body)

(* ---- the paper's Fig. 1 example: vecadd pipelines down to RecMII ---- *)

let test_vecadd_ii_pinned () =
  let p = transform_conv (vecadd_ast 64) in
  let scheduled, reports = Pipe.run_with_problems Machine.unlimited p in
  match reports with
  | [ ({ Pipe.status = Pipe.Pipelined i; _ }, _) ] ->
    check_int "ResMII at unlimited issue" 1 i.Pipe.res_mii;
    check_int "II reaches RecMII" i.Pipe.rec_mii i.Pipe.ii;
    check_bool "II >= MII" true (i.Pipe.ii >= i.Pipe.mii);
    check_bool "II beats list schedule" true (i.Pipe.ii < i.Pipe.list_ci);
    let base = run (lower (vecadd_ast 64)) in
    same_observables "vecadd pipelined" base (run ~machine:Machine.unlimited scheduled)
  | [ (r, _) ] -> Alcotest.failf "vecadd not pipelined: %s" (Pipe.report_to_string r)
  | rs -> Alcotest.failf "expected one loop report, got %d" (List.length rs)

(* A trip count too short for the pipeline must fall back, not crash. *)
let test_short_trip_falls_back () =
  let p = transform_conv (vecadd_ast 3) in
  let scheduled, _ = Pipe.run_with_problems Machine.issue_4 p in
  let base = run (lower (vecadd_ast 3)) in
  same_observables "vecadd n=3" base (run ~machine:Machine.issue_4 scheduled)

(* A loop-carried memory recurrence must be honored (or skipped). *)
let test_recurrence_kernel () =
  let p = transform_conv (recurrence_ast 40) in
  let scheduled, _ = Pipe.run_with_problems Machine.issue_8 p in
  let base = run (lower (recurrence_ast 40)) in
  same_observables "recurrence" base (run ~machine:Machine.issue_8 scheduled)

(* ---- output equivalence over the whole suite at issue 2/4/8 ---- *)

let check_pipe_subject (w : Suite.t) (machine : Machine.t) base =
  let tp = transform_conv w.Suite.ast in
  let scheduled, reports = Pipe.run_with_problems machine tp in
  let tag = Printf.sprintf "%s/%s" w.Suite.name machine.Machine.name in
  same_observables tag base (run ~machine scheduled);
  List.iter
    (fun ((rep : Pipe.report), _) ->
      match rep.Pipe.status with
      | Pipe.Pipelined i ->
        check_bool (tag ^ ": II >= MII") true (i.Pipe.ii >= i.Pipe.mii);
        check_bool (tag ^ ": II >= ResMII") true (i.Pipe.ii >= i.Pipe.res_mii);
        check_bool (tag ^ ": II >= RecMII") true (i.Pipe.ii >= i.Pipe.rec_mii);
        check_bool (tag ^ ": II < list cyc/iter") true (i.Pipe.ii < i.Pipe.list_ci)
      | Pipe.Skipped _ -> ())
    reports

let suite_equivalence_tests =
  List.map
    (fun (w : Suite.t) ->
      test (w.Suite.name ^ " pipelined = baseline at issue 2/4/8") (fun () ->
        let base = run (lower w.Suite.ast) in
        List.iter (fun m -> check_pipe_subject w m base) machines))
    Suite.all

(* ---- pinned skip census and tuned IIs at issue 8 ----

   The stable baseline the exact oracle certified (see EXPERIMENTS.md
   "Exact oracle"): exactly these 8 of 40 kernels decline IMS at issue
   8, for exactly these reasons, and the depth-priority retry keeps the
   recovered MII intervals. A regression in either direction (a loop
   silently stops pipelining, or a tuned loop slides back to MII+1)
   fails here before it can widen a certified gap in BENCH_oracle.json. *)

let corpus_at_issue8 () =
  List.map
    (fun (w : Suite.t) ->
      (w.Suite.name, Pipe.run_with_problems Machine.issue_8 (transform_conv w.Suite.ast)))
    Suite.all

let test_issue8_skip_census () =
  let skips =
    List.concat_map
      (fun (name, (_, reps)) ->
        List.filter_map
          (fun ((r : Pipe.report), _) ->
            match r.Pipe.status with
            | Pipe.Skipped { reason; _ } -> Some (name, reason)
            | Pipe.Pipelined _ -> None)
          reps)
      (corpus_at_issue8 ())
  in
  let expected =
    [
      ("CSS-1", "internal label is a branch target");
      ("MTS-1", "internal label is a branch target");
      ("MTS-2", "internal label is a branch target");
      ("doduc-1", "internal label is a branch target");
      ("nasa7-2", "MII 9 not below list schedule");
      ("tomcatv-2", "internal label is a branch target");
      ("maxval", "internal label is a branch target");
      ("merge", "internal label is a branch target");
    ]
  in
  check_int "8 of 40 loops skipped at issue 8" 8 (List.length skips);
  List.iter
    (fun (name, reason) ->
      check_bool
        (Printf.sprintf "%s skip reason stable (%s)" name reason)
        true
        (List.mem (name, reason) expected))
    skips

let test_issue8_pinned_iis () =
  let pinned =
    (* The oracle proved APS-2/NAS-3/TFS-1 schedulable at MII while the
       height-priority scheduler returned MII+1; the depth-priority
       retry now recovers MII on all three plus NAS-1. NAS-6 stays at
       MII+1 with a budget-bounded gap <= 1 — pinned so an improvement
       shows up as a conscious update, not silence. *)
    [
      ("APS-2", 4); ("NAS-1", 9); ("NAS-3", 3); ("NAS-6", 10); ("TFS-1", 5);
      ("add", 1); ("dotprod", 3); ("sum", 3);
    ]
  in
  let data = corpus_at_issue8 () in
  List.iter
    (fun (name, want_ii) ->
      match List.assoc_opt name data with
      | None -> Alcotest.failf "kernel %s missing" name
      | Some (_, reps) -> (
        let iis =
          List.filter_map
            (fun ((r : Pipe.report), _) ->
              match r.Pipe.status with
              | Pipe.Pipelined i -> Some i.Pipe.ii
              | Pipe.Skipped _ -> None)
            reps
        in
        match iis with
        | [ ii ] -> check_int (name ^ " II at issue 8") want_ii ii
        | _ -> Alcotest.failf "%s: expected one pipelined loop" name))
    pinned

(* Any analyzable loop IMS skips must be confirmed unschedulable below
   the list bound by the exact oracle — a loop the oracle proves
   schedulable at MII that Pipe declines is a silent pipeliner
   regression and fails loudly here. *)
let test_no_skip_missed () =
  List.iter
    (fun machine ->
      List.iter
        (fun (w : Suite.t) ->
          let _, reps =
            Pipe.run_with_problems machine (transform_conv w.Suite.ast)
          in
          List.iter
            (fun ((r : Pipe.report), problem) ->
              match (r.Pipe.status, problem) with
              | Pipe.Skipped _, Some _ ->
                let row =
                  Impact_exact.Oracle.certify_loop ~budget:20_000
                    ~subject:w.Suite.name ~machine:machine.Machine.name
                    (r, problem)
                in
                check_bool
                  (Printf.sprintf "%s/%s loop %d: %s" w.Suite.name
                     machine.Machine.name r.Pipe.lid
                     row.Impact_exact.Oracle.r_status)
                  true
                  (row.Impact_exact.Oracle.r_status <> "skip-missed")
              | _ -> ())
            reps)
        Suite.all)
    machines

(* ---- property: random (kernel, machine, level) preserves outputs ---- *)

let prop_pipe_preserves =
  let nsubj = List.length Suite.all in
  let nlev = List.length Level.all in
  QCheck.Test.make ~name:"pipe scheduling preserves observables" ~count:20
    (QCheck.make
       ~print:(fun (si, mi, li) ->
         let w = List.nth Suite.all si in
         Printf.sprintf "%s / %s / %s" w.Suite.name
           (List.nth machines mi).Machine.name
           (Level.to_string (List.nth Level.all li)))
       QCheck.Gen.(
         triple (int_range 0 (nsubj - 1)) (int_range 0 2) (int_range 0 (nlev - 1))))
    (fun (si, mi, li) ->
      let w = List.nth Suite.all si in
      let machine = List.nth machines mi in
      let level = List.nth Level.all li in
      let base = run (lower w.Suite.ast) in
      let tp = Compile.transform_with Impact_core.Opts.default level (lower w.Suite.ast) in
      let scheduled, _ = Pipe.run_with_problems machine tp in
      same_observables
        (Printf.sprintf "%s/%s/%s" w.Suite.name (Level.to_string level)
           machine.Machine.name)
        base
        (run ~machine scheduled);
      true)

let suite =
  [
    ( "pipe",
      [
        test "dotprod recurrence circuits" test_dotprod_circuits;
        test "vecadd recurrence circuits" test_vecadd_circuits;
        test "RecMII edge cases = reference" test_rec_mii_cases;
        test "corpus RecMII = reference" test_corpus_rec_mii;
        test "corpus IMS = scanning reference" test_corpus_ims;
        test "corpus skipped loops keep the list schedule" test_corpus_skipped_listed;
        test "corpus p_edges = former construction" test_corpus_modulo_edges;
        test "adversarial loops: p_edges = former construction" test_adversarial_modulo_edges;
        test "labelled body takes the list fallback" test_labelled_body_falls_back;
        test "vecadd pipelines to RecMII" test_vecadd_ii_pinned;
        test "short trip falls back" test_short_trip_falls_back;
        test "carried memory recurrence" test_recurrence_kernel;
        test "issue-8 skip census pinned" test_issue8_skip_census;
        test "issue-8 tuned IIs pinned" test_issue8_pinned_iis;
        test "no oracle-schedulable loop skipped" test_no_skip_missed;
      ]
      @ suite_equivalence_tests
      @ [
          to_alcotest ~rand:(Random.State.make [| 0x9A27 |]) prop_pipe_preserves;
          to_alcotest ~rand:(Random.State.make [| 0x2EC5 |]) prop_rec_mii_ref;
          to_alcotest ~rand:(Random.State.make [| 0x1A55 |]) prop_ims_ref;
        ] );
  ]
