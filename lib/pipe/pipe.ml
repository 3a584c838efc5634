(* Software pipelining by iterative modulo scheduling (Rau-style IMS).

   The pass walks the program as [List_sched.run] does, through
   [Block.map_innermost_with_preheader]: every innermost loop is either
   modulo-scheduled into prologue/kernel/epilogue form or list-scheduled
   as before. An eligible loop is a single-basic-block body (one
   back-branch, no side exits), with a compile-time trip count and at
   most one definition per register.

   Scheduling model: each body instruction (the back-branch excluded)
   gets a time t = slot + II * stage subject to
       t_dst >= t_src + latency - II * distance
   over the within-iteration (distance 0) and loop-carried Flow/Mem
   edges of [Ddg.modulo_edges]. Register anti and output dependences
   are dropped: modulo variable expansion renames
   every body-defined register across K kernel copies, which removes
   them. K is one more than the largest number of kernel blocks any
   flow-carried value must survive, so no version is overwritten while
   still live.

   Code generation (trip count n, stage count SC, kernel unroll K):
     - peel (n - (SC-1)) mod K plain copies of the body, so the kernel
       count divides K and every version index below is static;
     - a prologue of SC-1 blocks filling the pipeline;
     - a kernel loop of K renamed copies plus its own countdown branch,
       executing (n - peel - SC + 1) / K times;
     - an epilogue of SC-1 blocks draining it;
     - moves restoring every body-defined register's original name.
   All emitted items are ordinary [Block] items, so the simulator,
   register allocator and conformance oracle apply unchanged. *)

open Impact_ir
open Impact_analysis

type info = {
  ii : int;
  mii : int;
  res_mii : int;
  rec_mii : int;
  stages : int;
  kunroll : int;
  trip : int;
  list_ci : int;
}

type status =
  | Pipelined of info
  | Skipped of { reason : string; list_ci : int option }

type report = { lid : int; status : status }

(* Size caps: pipelining past these would bloat the code for loops the
   list scheduler already handles. *)
let max_stages = 32

let max_kunroll = 32

let max_kernel_insns = 512

let budget_ratio = 8

(* Mathematical modulo (OCaml's [mod] keeps the dividend's sign). *)
let md x k = ((x mod k) + k) mod k

(* ---- Dependence edges for the modulo scheduler ---- *)

type edge = Ddg.edge = { src : int; dst : int; lat : int; dist : int }

type problem = {
  p_n : int;
  p_edges : edge list;
  p_issue : int;
  p_res_mii : int;
  p_rec_mii : int;
  p_mii : int;
  p_list_ci : int;
}

(* ---- Recurrence subgraph and II feasibility ----

   A candidate II is feasible when the constraint system has no
   positive-weight cycle under weights (lat - II * dist). Every cycle
   lies inside one strongly connected component, so only the edges
   whose endpoints share a component (self-loops included) can decide
   it. [recurrences] keeps those edges in an array over renumbered
   nodes: the acyclic rest of the body drops out of every sweep, and
   the Bellman-Ford round bound shrinks to the subgraph's size. *)

type rec_graph = { rn : int; redges : edge array }

(* Tarjan's strongly connected components: a component id per node. *)
let components n edges =
  let succs = Array.make n [] in
  List.iter (fun e -> succs.(e.src) <- e.dst :: succs.(e.src)) edges;
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let comp = Array.make n (-1) in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next = ref 0 in
  let ncomp = ref 0 in
  let rec visit v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          visit w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      let rec pop = function
        | w :: rest ->
          on_stack.(w) <- false;
          comp.(w) <- !ncomp;
          if w = v then stack := rest else pop rest
        | [] -> assert false
      in
      pop !stack;
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  comp

let recurrences n edges =
  let comp = components n edges in
  let kept = Array.of_list (List.filter (fun e -> comp.(e.src) = comp.(e.dst)) edges) in
  let id = Array.make n (-1) in
  let rn = ref 0 in
  let renum v =
    if id.(v) < 0 then begin
      id.(v) <- !rn;
      incr rn
    end;
    id.(v)
  in
  let redges =
    Array.map
      (fun e ->
        let src = renum e.src in
        { e with src; dst = renum e.dst })
      kept
  in
  { rn = !rn; redges }

(* Bounded longest-path relaxation, Bellman-Ford style: without a
   positive cycle it settles within [rn] rounds. *)
let feasible g ii =
  let d = Array.make g.rn 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= g.rn + 1 do
    changed := false;
    Array.iter
      (fun e ->
        let s = d.(e.src) + e.lat - (ii * e.dist) in
        if s > d.(e.dst) then begin
          d.(e.dst) <- s;
          changed := true
        end)
      g.redges;
    incr rounds
  done;
  not !changed

(* RecMII: the smallest II with no positive cycle — exactly the maximum
   ceil(latency/distance) over all recurrence circuits — capped at one
   more than the total latency. Every [dist] is >= 0, so feasibility is
   monotone in II: gallop 1, 2, 4, ... to a feasible bound, then bisect. *)
let rec_mii_of g ~latsum =
  let ok ii = ii >= latsum || feasible g ii in
  let rec bisect lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = lo + ((hi - lo) / 2) in
      if ok mid then bisect lo mid else bisect mid hi
  in
  let rec gallop lo hi = if ok hi then bisect lo hi else gallop hi (2 * hi) in
  (* II 0 stands for "infeasible" and is never tested. *)
  gallop 0 1

let latsum edges = List.fold_left (fun a e -> a + e.lat) 1 edges

let rec_mii_exact ~n edges = rec_mii_of (recurrences n edges) ~latsum:(latsum edges)

let ii_feasible ~n edges ii = feasible (recurrences n edges) ii

(* Longest-path relaxation under weights (lat - II * dist) from an
   all-zero start. Called only at feasible IIs, where it settles within
   n rounds; the n+1-round cap bounds it anyway. *)
let relax n edges ii step =
  let a = Array.make n 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    List.iter (fun e -> if step a e (e.lat - (ii * e.dist)) then changed := true) edges;
    incr rounds
  done;
  a

(* Height-based priority: the longest path to the sinks. *)
let heights ~n edges ii =
  relax n edges ii (fun h e w ->
    let v = h.(e.dst) + w in
    if h.(e.src) < v then begin
      h.(e.src) <- v;
      true
    end
    else false)

(* Depth-based priority (longest path from the sources): the retry
   ordering when height priority fails at an II. Height places late
   consumers of long chains first and can wedge tight reservation
   tables in eviction cycles; depth fills rows producer-first, which
   the exact oracle showed unwedges several issue-8 loops at MII. *)
let depths ~n edges ii =
  relax n edges ii (fun d e w ->
    let v = d.(e.src) + w in
    if d.(e.dst) < v then begin
      d.(e.dst) <- v;
      true
    end
    else false)

(* One budgeted scheduling attempt at a fixed II: place the highest
   unscheduled operation at its earliest legal slot, force it into a
   full row by evicting the lowest-priority occupant, and evict any
   scheduled successor whose constraint the placement broke. *)
let attempt ~issue n succs preds h ii =
  let time = Array.make n (-1) in
  let prevt = Array.make n (-1) in
  let mrt = Array.make ii 0 in
  let nsched = ref 0 in
  let budget = ref ((budget_ratio * n) + 16) in
  let unschedule j =
    mrt.(time.(j) mod ii) <- mrt.(time.(j) mod ii) - 1;
    time.(j) <- -1;
    decr nsched
  in
  while !nsched < n && !budget >= 0 do
    (* Highest height first, lowest position on ties. *)
    let i = ref (-1) in
    for j = n - 1 downto 0 do
      if time.(j) < 0 && (!i < 0 || h.(j) >= h.(!i)) then i := j
    done;
    let i = !i in
    let estart = ref 0 in
    List.iter
      (fun (p, lat, dist) ->
        if time.(p) >= 0 then estart := max !estart (time.(p) + lat - (ii * dist)))
      preds.(i);
    let mintime = if prevt.(i) >= 0 then max !estart (prevt.(i) + 1) else !estart in
    let slot = ref (-1) in
    (try
       for t = mintime to mintime + ii - 1 do
         if mrt.(t mod ii) < issue then begin
           slot := t;
           raise Exit
         end
       done
     with Exit -> ());
    let t = if !slot >= 0 then !slot else mintime in
    let row = t mod ii in
    while mrt.(row) >= issue do
      let victim = ref (-1) in
      for j = 0 to n - 1 do
        if time.(j) >= 0 && time.(j) mod ii = row then
          if
            !victim < 0 || h.(j) < h.(!victim)
            || (h.(j) = h.(!victim) && j > !victim)
          then victim := j
      done;
      unschedule !victim
    done;
    time.(i) <- t;
    prevt.(i) <- t;
    mrt.(row) <- mrt.(row) + 1;
    incr nsched;
    List.iter
      (fun (q, lat, dist) ->
        if q <> i && time.(q) >= 0 && time.(q) < t + lat - (ii * dist) then unschedule q)
      succs.(i);
    decr budget
  done;
  if !nsched = n then Some time else None

(* Escalate II from MII until a schedule fits (or the search passes
   [max_ii], at which point pipelining cannot beat the list schedule). *)
let modulo_schedule ~issue n edges g mii max_ii =
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  List.iter
    (fun e ->
      succs.(e.src) <- (e.dst, e.lat, e.dist) :: succs.(e.src);
      preds.(e.dst) <- (e.src, e.lat, e.dist) :: preds.(e.dst))
    edges;
  let rec go ii =
    if ii > max_ii then None
    else if not (feasible g ii) then go (ii + 1)
    else
      let try_priority prio =
        match attempt ~issue n succs preds prio ii with
        | Some time ->
          let tmin = Array.fold_left min max_int time in
          Some (Array.map (fun t -> t - tmin) time, ii)
        | None -> None
      in
      (* Two restarts per II before escalating: height priority first
         (the classic IMS order), then depth priority, which the exact
         oracle proved recovers MII on loops the first order wedges. *)
      match try_priority (heights ~n edges ii) with
      | Some r -> Some r
      | None -> (
        match try_priority (depths ~n edges ii) with
        | Some r -> Some r
        | None -> go (ii + 1))
  in
  go mii

let ims_schedule ~issue ~n edges ~mii ~max_ii =
  modulo_schedule ~issue n edges (recurrences n edges) mii max_ii

(* ---- Eligibility ---- *)

module SSet = Set.Make (String)

(* The branch-free body of an eligible loop, in program order. *)
let extract_body ~global_targets (l : Block.loop) : (Insn.t array, string) result =
  let labels =
    List.filter_map (function Block.Lbl s -> Some s | _ -> None) l.Block.body
  in
  if List.exists (fun s -> SSet.mem s global_targets) labels then
    Error "internal label is a branch target"
  else
    match List.rev (Block.body_insns l) with
    | last :: rev_rest
      when Insn.is_cond_branch last && last.Insn.target = Some l.Block.head -> (
      let rest = List.rev rev_rest in
      if List.exists Insn.is_branch rest then Error "side exits in body"
      else if List.length rest < 2 then Error "body too small"
      else
        let seen = Hashtbl.create 16 in
        let multi = ref false in
        List.iter
          (fun (i : Insn.t) ->
            match i.Insn.dst with
            | Some r ->
              if Hashtbl.mem seen r.Reg.id then multi := true
              else Hashtbl.replace seen r.Reg.id ()
            | None -> ())
          rest;
        if !multi then Error "register redefined in body"
        else Ok (Array.of_list rest))
    | _ -> Error "no single back-branch"

(* ---- Code generation ---- *)

let mov_of cls ctx dst src =
  match cls with Reg.Int -> Build.imov ctx dst src | Reg.Float -> Build.fmov ctx dst src

let codegen ctx (l : Block.loop) (a : Insn.t array) (time : int array) ~ii ~trip :
    (Block.item list * int * int) option =
  let n = Array.length a in
  let stage = Array.map (fun t -> t / ii) time in
  let slot = Array.map (fun t -> t mod ii) time in
  let sc = Array.fold_left max 0 stage + 1 in
  let def_pos =
    let m = ref Reg.Map.empty in
    Array.iteri
      (fun k (i : Insn.t) ->
        match i.Insn.dst with Some r -> m := Reg.Map.add r k !m | None -> ())
      a;
    !m
  in
  (* For a use at [pu] of a body-defined register: its producer, the
     number of blocks the value crosses, and whether the producer is in
     the same iteration (else the previous one). *)
  let use_b pu (r : Reg.t) =
    match Reg.Map.find_opt r def_pos with
    | None -> None
    | Some pd ->
      let same = pd < pu in
      Some (pd, stage.(pu) - stage.(pd) + (if same then 0 else 1), same)
  in
  let kk = ref 1 in
  Array.iteri
    (fun pu (i : Insn.t) ->
      Array.iter
        (function
          | Operand.Reg r -> (
            match use_b pu r with
            | Some (_, b, _) -> if b + 1 > !kk then kk := b + 1
            | None -> ())
          | _ -> ())
        i.Insn.srcs)
    a;
  let kk = !kk in
  if sc > max_stages || kk > max_kunroll || n * kk > max_kernel_insns || trip < sc
  then None
  else
    let peel = md (trip - (sc - 1)) kk in
    let nkernel = trip - (sc - 1) - peel in
    if nkernel < kk then None
    else begin
      let kcnt_v = nkernel / kk in
      let versions : (int * int, Reg.t) Hashtbl.t = Hashtbl.create 32 in
      let version (r : Reg.t) k =
        match Hashtbl.find_opt versions (r.Reg.id, k) with
        | Some v -> v
        | None ->
          let v = Reg.fresh ctx.Prog.rgen r.Reg.cls in
          Hashtbl.replace versions (r.Reg.id, k) v;
          v
      in
      let order =
        List.sort
          (fun x y -> compare (slot.(x), x) (slot.(y), y))
          (List.init n (fun k -> k))
      in
      (* One instance of instruction [idx] in the block whose index is
         congruent to [vk] mod K. [j] is the instance's iteration when
         statically known (prologue); [None] means the iteration is
         certainly >= 1, so carried reads take the versioned register. *)
      let emit_instance ~vk ~j idx =
        let i = a.(idx) in
        let map = function
          | Operand.Reg r as o -> (
            match use_b idx r with
            | None -> o
            | Some (_, b, same) ->
              if (not same) && j = Some 0 then o
              else Operand.Reg (version r (md (vk - b) kk)))
          | o -> o
        in
        let srcs = Array.map map i.Insn.srcs in
        match i.Insn.dst with
        | Some r -> Build.clone ctx ~dst:(version r vk) ~srcs i
        | None -> Build.clone ctx ~srcs i
      in
      let items = ref [] in
      let emit_i i = items := Block.Ins i :: !items in
      (* Keep the original loop labels defined for external references. *)
      items := Block.Lbl l.Block.head :: !items;
      (* Peeled iterations: plain copies under the original names. *)
      for _ = 1 to peel do
        Array.iter (fun i -> emit_i (Build.clone ctx i)) a
      done;
      (* Live-in seeds for carried reads reaching the first kernel
         block: a consumer of iteration 0 scheduled in stage SC-1 reads
         version (stage(def) - 1) mod K, which nothing has written. *)
      let carried_srcs =
        let m = ref Reg.Map.empty in
        Array.iteri
          (fun pu (i : Insn.t) ->
            Array.iter
              (function
                | Operand.Reg r -> (
                  match use_b pu r with
                  | Some (pd, _, false) -> m := Reg.Map.add r pd !m
                  | _ -> ())
                | _ -> ())
              i.Insn.srcs)
          a;
        Reg.Map.bindings !m
      in
      List.iter
        (fun ((r : Reg.t), pd) ->
          emit_i (mov_of r.Reg.cls ctx (version r (md (stage.(pd) - 1) kk)) (Operand.Reg r)))
        carried_srcs;
      (* Prologue: blocks 0 .. SC-2 fill the pipeline. *)
      for t = 0 to sc - 2 do
        List.iter
          (fun idx ->
            if stage.(idx) <= t then
              emit_i (emit_instance ~vk:(md t kk) ~j:(Some (t - stage.(idx))) idx))
          order
      done;
      (* Kernel: K copies plus a countdown branch. *)
      let kcnt = Reg.fresh ctx.Prog.rgen Reg.Int in
      emit_i (Build.imov ctx kcnt (Operand.Int kcnt_v));
      let klid = Prog.fresh_loop_id ctx in
      let khead = Printf.sprintf "L%dm" klid in
      let kexit = Printf.sprintf "X%dm" klid in
      let kbody = ref [] in
      for k = 0 to kk - 1 do
        List.iter
          (fun idx ->
            kbody := Block.Ins (emit_instance ~vk:(md (sc - 1 + k) kk) ~j:None idx) :: !kbody)
          order
      done;
      kbody :=
        Block.Ins (Build.ib ctx Insn.Sub kcnt (Operand.Reg kcnt) (Operand.Int 1)) :: !kbody;
      kbody :=
        Block.Ins (Build.br ctx Reg.Int Insn.Gt (Operand.Reg kcnt) (Operand.Int 0) khead)
        :: !kbody;
      let kmeta =
        {
          Block.counter = Some kcnt;
          step = Some (-1);
          limit = Some (Operand.Int 0);
          trip = Some kcnt_v;
          latch = None;
          unrolled = 1;
        }
      in
      items :=
        Block.Loop
          { Block.lid = klid; head = khead; exit_lbl = kexit; meta = kmeta;
            body = List.rev !kbody }
        :: !items;
      (* Epilogue: blocks n' .. n'+SC-2 drain the pipeline. The peel
         made the kernel count divide K, so block indices are statically
         congruent to SC-1+e mod K. *)
      for e = 0 to sc - 2 do
        List.iter
          (fun idx ->
            if stage.(idx) >= e + 1 then
              emit_i (emit_instance ~vk:(md (sc - 1 + e) kk) ~j:None idx))
          order
      done;
      (* Restore original names: the last write of a register defined at
         stage s landed in block n'-1+s = SC-2+s mod K. *)
      Reg.Map.iter
        (fun (r : Reg.t) pd ->
          emit_i (mov_of r.Reg.cls ctx r (Operand.Reg (version r (md (sc - 2 + stage.(pd)) kk)))))
        def_pos;
      items := Block.Lbl l.Block.exit_lbl :: !items;
      Some (List.rev !items, sc, kk)
    end

(* ---- Per-loop driver ---- *)

let fallback machine ~live_at_target ~pre_env (l : Block.loop) =
  [
    Block.Loop
      {
        l with
        Block.body =
          Impact_sched.List_sched.schedule_body machine ~live_at_target ~pre_env
            l.Block.body;
      };
  ]

let pipeline_loop ctx machine ~live_at_target ~pre_env ~global_targets
    (l : Block.loop) : Block.item list * report * problem option =
  let skipped reason list_ci = { lid = l.Block.lid; status = Skipped { reason; list_ci } } in
  let skip reason = (fallback machine ~live_at_target ~pre_env l, skipped reason None, None) in
  match extract_body ~global_targets l with
  | Error reason -> skip reason
  | Ok a -> (
    (* [meta.trip] counts original-loop iterations; an unrolled body
       executes [trip / unrolled] times. *)
    let uf = max 1 l.Block.meta.Block.unrolled in
    match l.Block.meta.Block.trip with
    | None -> skip "no static trip count"
    | Some t when t mod uf <> 0 -> skip "trip not divisible by unroll factor"
    | Some t -> (
      let trip = t / uf in
      let full = Array.of_list (Block.body_insns l) in
      let listed = Impact_sched.List_sched.schedule_segment machine ~live_at_target ~pre_env full in
      let list_ci = listed.Impact_sched.List_sched.makespan in
      let n = Array.length a in
      let edges = Ddg.modulo_edges ~pre_env a in
      let issue = machine.Machine.issue in
      (* ResMII: issue bandwidth for the body plus one branch slot's
         worth of loop control per iteration. *)
      let res_mii =
        max ((n + issue - 1) / issue) ((1 + machine.Machine.branch_slots - 1) / machine.Machine.branch_slots)
      in
      let g = recurrences n edges in
      let rec_mii = rec_mii_of g ~latsum:(latsum edges) in
      let mii = max res_mii rec_mii in
      let problem =
        { p_n = n; p_edges = edges; p_issue = issue; p_res_mii = res_mii;
          p_rec_mii = rec_mii; p_mii = mii; p_list_ci = list_ci }
      in
      (* A label-free body is the single segment [fallback] would
         list-schedule, and [listed] already holds its schedule. *)
      let skip_listed reason =
        let items =
          if List.for_all (function Block.Ins _ -> true | _ -> false) l.Block.body then
            [ Block.Loop { l with Block.body = listed.Impact_sched.List_sched.items } ]
          else fallback machine ~live_at_target ~pre_env l
        in
        (items, skipped reason (Some list_ci), Some problem)
      in
      if mii >= list_ci then skip_listed (Printf.sprintf "MII %d not below list schedule" mii)
      else
        match modulo_schedule ~issue n edges g mii (list_ci - 1) with
        | None -> skip_listed "no schedule within budget below the list bound"
        | Some (time, ii) -> (
          match codegen ctx l a time ~ii ~trip with
          | None -> skip_listed "schedule exceeds size or trip caps"
          | Some (items, stages, kunroll) ->
            ( items,
              {
                lid = l.Block.lid;
                status =
                  Pipelined { ii; mii; res_mii; rec_mii; stages; kunroll; trip; list_ci };
              },
              Some problem ))))

let report_to_string (r : report) : string =
  match r.status with
  | Pipelined i ->
    Printf.sprintf
      "loop %d: pipelined II=%d (ResMII %d, RecMII %d, MII %d), stages %d, kernel unroll %d, trip %d, list %d cyc/iter"
      r.lid i.ii i.res_mii i.rec_mii i.mii i.stages i.kunroll i.trip i.list_ci
  | Skipped { reason; list_ci } ->
    let tail = match list_ci with None -> "" | Some c -> Printf.sprintf ", list %d cyc/iter" c in
    Printf.sprintf "loop %d: not pipelined (%s)%s" r.lid reason tail

(* ---- Whole-program traversal ---- *)

let run_with_problems (machine : Machine.t) (p : Prog.t) :
    Prog.t * (report * problem option) list =
  Impact_obs.Obs.stage "pipe" (fun () ->
    let target_live = Liveness.target_live (Liveness.Dense.of_prog p) in
    let live_at_target i = Some (target_live i) in
    let global_targets =
      List.fold_left
        (fun s (i : Insn.t) ->
          match i.Insn.target with Some t -> SSet.add t s | None -> s)
        SSet.empty
        (Block.insns p.Prog.entry)
    in
    let reports = ref [] in
    let ctx = p.Prog.ctx in
    let pipeline pre l =
      let pre_env = Linval.env_of_items pre in
      let t0 = if Impact_obs.Obs.enabled () then Impact_obs.Obs.now () else 0.0 in
      let items, rep, problem =
        pipeline_loop ctx machine ~live_at_target ~pre_env ~global_targets l
      in
      if Impact_obs.Obs.enabled () then begin
        Impact_obs.Obs.emit ~cat:"pipe"
          ~args:[ ("report", report_to_string rep) ]
          (Printf.sprintf "pipe.loop%d" rep.lid)
          ~t0;
        Impact_obs.Obs.count "pipe.loops";
        Impact_obs.Obs.count
          (match rep.status with
          | Pipelined _ -> "pipe.pipelined"
          | Skipped _ -> "pipe.skipped");
        Option.iter
          (fun p -> Impact_obs.Obs.count ~n:(List.length p.p_edges) "pipe.edges")
          problem;
        Impact_obs.Obs.note
          (Printf.sprintf "pipe.%s.loop%d" machine.Machine.name rep.lid)
          (report_to_string rep)
      end;
      reports := (rep, problem) :: !reports;
      pre @ items
    in
    let entry = Block.map_innermost_with_preheader pipeline p.Prog.entry in
    (Prog.with_entry p entry, List.rev !reports))

let run_with_report machine p =
  let p', pairs = run_with_problems machine p in
  (p', List.map fst pairs)

let run machine p = fst (run_with_report machine p)
