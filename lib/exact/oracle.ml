open Impact_ir
open Impact_core
open Impact_pipe
module Json = Impact_obs.Json

type row = {
  r_subject : string;
  r_machine : string;
  r_lid : int;
  r_status : string;
  r_reason : string option;
  r_heur_ii : int option;
  r_list_ci : int option;
  r_res_mii : int option;
  r_rec_mii : int option;
  r_mii : int option;
  r_lb : int option;
  r_ub : int option;
  r_gap : int option;
  r_proved : bool option;
  r_nodes : int;
}

let schema = "impact-bench-oracle/1"

let smoke_names = [ "add"; "dotprod"; "sum"; "APS-1"; "NAS-1"; "SRS-5" ]

let certify_loop ~budget ~subject ~machine:mname
    ((rep : Pipe.report), problem) : row =
  let blank =
    {
      r_subject = subject;
      r_machine = mname;
      r_lid = rep.Pipe.lid;
      r_status = "ineligible";
      r_reason = None;
      r_heur_ii = None;
      r_list_ci = None;
      r_res_mii = None;
      r_rec_mii = None;
      r_mii = None;
      r_lb = None;
      r_ub = None;
      r_gap = None;
      r_proved = None;
      r_nodes = 0;
    }
  in
  match problem with
  | None ->
    let reason =
      match rep.Pipe.status with
      | Pipe.Skipped { reason; _ } -> Some reason
      | Pipe.Pipelined _ -> None
    in
    { blank with r_reason = reason }
  | Some (p : Pipe.problem) ->
    let heur_ii, reason, list_ci =
      match rep.Pipe.status with
      | Pipe.Pipelined i -> (Some i.Pipe.ii, None, i.Pipe.list_ci)
      | Pipe.Skipped { reason; list_ci } ->
        (None, Some reason, Option.value list_ci ~default:p.Pipe.p_list_ci)
    in
    let c = Exact.certify ~budget p ~heur_ii in
    let status =
      match (heur_ii, c.Exact.ct_proved) with
      | Some h, true -> if h = c.Exact.ct_lb then "optimal" else "suboptimal"
      | Some _, false -> "bounded"
      | None, true -> (
        match c.Exact.ct_ub with Some _ -> "skip-missed" | None -> "skip-confirmed")
      | None, false -> (
        match c.Exact.ct_ub with Some _ -> "skip-missed" | None -> "skip-open")
    in
    {
      blank with
      r_status = status;
      r_reason = reason;
      r_heur_ii = heur_ii;
      r_list_ci = Some list_ci;
      r_res_mii = Some p.Pipe.p_res_mii;
      r_rec_mii = Some p.Pipe.p_rec_mii;
      r_mii = Some p.Pipe.p_mii;
      r_lb = Some c.Exact.ct_lb;
      r_ub = c.Exact.ct_ub;
      r_gap = Option.map (fun h -> h - c.Exact.ct_lb) heur_ii;
      r_proved = Some c.Exact.ct_proved;
      r_nodes = c.Exact.ct_nodes;
    }

let run ?workers ?(budget = Exact.default_budget) ?only () : row list =
  let subjects =
    List.filter
      (fun (w : Impact_workloads.Suite.t) ->
        match only with
        | None -> true
        | Some names -> List.mem w.Impact_workloads.Suite.name names)
      Impact_workloads.Suite.all
  in
  let machines = Report.matrix_machines () in
  let pairs =
    List.concat_map
      (fun w -> List.map (fun m -> (w, m)) machines)
      subjects
  in
  Impact_exec.Pool.map_list ?workers
    (fun ((w : Impact_workloads.Suite.t), (machine : Machine.t)) ->
      let tp =
        Compile.transform_with Opts.default Level.Conv
          (Impact_fir.Lower.lower w.Impact_workloads.Suite.ast)
      in
      let _, reps = Pipe.run_with_problems machine tp in
      List.map
        (certify_loop ~budget ~subject:w.Impact_workloads.Suite.name
           ~machine:machine.Machine.name)
        reps)
    pairs
  |> List.concat

(* ---- Rendering (shared by bench and the determinism tests) ---- *)

type totals = {
  mutable loops : int;
  mutable optimal : int;
  mutable suboptimal : int;
  mutable bounded : int;
  mutable skip_confirmed : int;
  mutable skip_missed : int;
  mutable skip_open : int;
  mutable ineligible : int;
  mutable gap : int;  (* proved suboptimality, cycles *)
  mutable gap_bound : int;  (* budget-limited upper bounds on the gap *)
  mutable nodes : int;
}

let totals rows =
  let t =
    {
      loops = 0;
      optimal = 0;
      suboptimal = 0;
      bounded = 0;
      skip_confirmed = 0;
      skip_missed = 0;
      skip_open = 0;
      ineligible = 0;
      gap = 0;
      gap_bound = 0;
      nodes = 0;
    }
  in
  List.iter
    (fun r ->
      t.loops <- t.loops + 1;
      t.nodes <- t.nodes + r.r_nodes;
      (match (r.r_gap, r.r_proved) with
      | Some g, Some true -> t.gap <- t.gap + g
      | Some g, _ -> t.gap_bound <- t.gap_bound + g
      | None, _ -> ());
      match r.r_status with
      | "optimal" -> t.optimal <- t.optimal + 1
      | "suboptimal" -> t.suboptimal <- t.suboptimal + 1
      | "bounded" -> t.bounded <- t.bounded + 1
      | "skip-confirmed" -> t.skip_confirmed <- t.skip_confirmed + 1
      | "skip-missed" -> t.skip_missed <- t.skip_missed + 1
      | "skip-open" -> t.skip_open <- t.skip_open + 1
      | _ -> t.ineligible <- t.ineligible + 1)
    rows;
  t

let doc ~budget rows =
  let opt f = Option.fold ~none:Json.Null ~some:f in
  let int n = Json.Int n in
  let loop_json r =
    Json.Obj
      ([
         ("subject", Json.Str r.r_subject);
         ("machine", Json.Str r.r_machine);
         ("lid", int r.r_lid);
         ("status", Json.Str r.r_status);
       ]
      @ (match r.r_reason with
        | Some s -> [ ("reason", Json.Str s) ]
        | None -> [])
      @ [
          ("heur_ii", opt int r.r_heur_ii);
          ("list_ci", opt int r.r_list_ci);
          ("res_mii", opt int r.r_res_mii);
          ("rec_mii", opt int r.r_rec_mii);
          ("mii", opt int r.r_mii);
          ("lb", opt int r.r_lb);
          ("ub", opt int r.r_ub);
          ("gap", opt int r.r_gap);
          ("proved", opt (fun b -> Json.Bool b) r.r_proved);
          ("nodes", int r.r_nodes);
        ])
  in
  let t = totals rows in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ("budget", int budget);
         ( "summary",
           Json.Obj
             [
               ("loops", int t.loops);
               ("optimal", int t.optimal);
               ("suboptimal", int t.suboptimal);
               ("bounded", int t.bounded);
               ("skip_confirmed", int t.skip_confirmed);
               ("skip_missed", int t.skip_missed);
               ("skip_open", int t.skip_open);
               ("ineligible", int t.ineligible);
               ("gap_cycles", int t.gap);
               ("gap_bound_cycles", int t.gap_bound);
               ("nodes", int t.nodes);
             ] );
         ("loops", Json.List (List.map loop_json rows));
       ])
  ^ "\n"

let table ~budget rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Exact modulo-scheduling oracle: certified optimality of lib/pipe's IMS heuristic\n";
  Buffer.add_string buf
    (Printf.sprintf "node budget %d per loop; every verdict within budget is a proof\n" budget);
  Buffer.add_string buf (String.make 108 '-' ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "%-12s %-8s %4s %6s %6s %4s %4s %5s %5s %4s %8s  %s\n"
       "subject" "machine" "loop" "ResMII" "RecMII" "MII" "II" "lb" "ub"
       "gap" "nodes" "status");
  let cell = function None -> "-" | Some i -> string_of_int i in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-12s %-8s %4d %6s %6s %4s %4s %5s %5s %4s %8d  %s%s\n"
           r.r_subject r.r_machine r.r_lid (cell r.r_res_mii)
           (cell r.r_rec_mii) (cell r.r_mii) (cell r.r_heur_ii) (cell r.r_lb)
           (cell r.r_ub) (cell r.r_gap) r.r_nodes r.r_status
           (match r.r_reason with
           | Some s -> Printf.sprintf " (%s)" s
           | None -> "")))
    rows;
  let t = totals rows in
  Buffer.add_string buf (String.make 108 '-' ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf
       "%d loop instances: %d proved optimal, %d proved suboptimal (%d cycles of certified gap), %d bounded (gap <= %d);\n"
       t.loops t.optimal t.suboptimal t.gap t.bounded t.gap_bound);
  Buffer.add_string buf
    (Printf.sprintf
       "%d skips confirmed, %d skips missed, %d skips open, %d ineligible; %d search nodes total\n"
       t.skip_confirmed t.skip_missed t.skip_open t.ineligible t.nodes);
  Buffer.contents buf
