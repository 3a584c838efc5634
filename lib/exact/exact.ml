open Impact_pipe

type verdict = Sat of int array | Unsat | Budget

let default_budget = 200_000

(* Mathematical modulo (OCaml's [mod] keeps the dividend's sign). *)
let md x k = ((x mod k) + k) mod k

let check_schedule (p : Pipe.problem) ~ii (t : int array) =
  ii >= 1
  && Array.length t = p.Pipe.p_n
  && List.for_all
       (fun (e : Pipe.edge) ->
         t.(e.Pipe.dst) - t.(e.Pipe.src) >= e.Pipe.lat - (ii * e.Pipe.dist))
       p.Pipe.p_edges
  &&
  let mrt = Array.make ii 0 in
  Array.iter (fun x -> mrt.(md x ii) <- mrt.(md x ii) + 1) t;
  Array.for_all (fun c -> c <= p.Pipe.p_issue) mrt

let decide ?(budget = default_budget) (p : Pipe.problem) ~ii =
  let n = p.Pipe.p_n and issue = p.Pipe.p_issue in
  if ii < 1 || n > issue * ii then (Unsat, 0)
  else if not (Pipe.ii_feasible ~n p.Pipe.p_edges ii) then (Unsat, 0)
  else begin
    let edges = Array.of_list p.Pipe.p_edges in
    let ne = Array.length edges in
    (* Edge indices by endpoint, in edge order. *)
    let outs = Array.make n [] and ins = Array.make n [] in
    for k = ne - 1 downto 0 do
      let e = edges.(k) in
      outs.(e.Pipe.src) <- k :: outs.(e.Pipe.src);
      ins.(e.Pipe.dst) <- k :: ins.(e.Pipe.dst)
    done;
    let rho = Array.make n (-1) in
    let rowfill = Array.make ii 0 in
    (* Longest-path potentials from the all-zero source, kept at the
       least fixpoint of the current adjusted weights. The root has no
       rows assigned, so its fixpoint is the plain depth relaxation,
       settled because [ii] passed the feasibility check above.
       Assigning a row only tightens weights, so a parent's fixpoint
       warm-starts the child; the fixpoint above it is unique, however
       it is reached. *)
    let d = Pipe.depths ~n p.Pipe.p_edges ii in
    let adj k =
      let e = edges.(k) in
      let w = e.Pipe.lat - (ii * e.Pipe.dist) in
      if rho.(e.Pipe.src) >= 0 && rho.(e.Pipe.dst) >= 0 then
        w + md (rho.(e.Pipe.dst) - rho.(e.Pipe.src) - w) ii
      else w
    in
    (* Below the root, only the edges at the operation just given a row
       changed weight. Relax those, then the out-edges of every node
       whose potential rose, from a FIFO worklist. [len.(v)] counts the
       edges of the improving path that last raised [d.(v)]; a path of
       [n] edges repeats a node, and since every raise is strict, the
       repeat closes a positive cycle. Without one the worklist drains
       at the least fixpoint. *)
    let len = Array.make n 0 in
    let queued = Array.make n false in
    let queue = Array.make n 0 in
    let propagate_from i =
      Array.fill len 0 n 0;
      let head = ref 0 and size = ref 0 and cycle = ref false in
      let relax k =
        let e = edges.(k) in
        let s = e.Pipe.src and v = e.Pipe.dst in
        if not !cycle then begin
          let dv = d.(s) + adj k in
          if dv > d.(v) then begin
            d.(v) <- dv;
            len.(v) <- len.(s) + 1;
            if len.(v) >= n then cycle := true
            else if not queued.(v) then begin
              queued.(v) <- true;
              queue.((!head + !size) mod n) <- v;
              incr size
            end
          end
        end
      in
      List.iter relax ins.(i);
      List.iter relax outs.(i);
      while !size > 0 do
        let u = queue.(!head) in
        head := (!head + 1) mod n;
        decr size;
        queued.(u) <- false;
        List.iter relax outs.(u)
      done;
      not !cycle
    in
    (* Branch in the IMS scheduler's height order: operations feeding
       long dependence chains first. *)
    let order, _ = Impact_analysis.Bits.rank (Pipe.heights ~n p.Pipe.p_edges ii) in
    (* Interchangeable operations (identical in/out edge signatures,
       ubiquitous in wide DOALL bodies) admit a factorial symmetry:
       any schedule can reorder a twin class arbitrarily, so demand
       nondecreasing rows along each class in index order. [twin.(j)]
       is j's predecessor in its class, branched earlier (equal
       heights tie-break on index). *)
    let twin = Array.make n (-1) in
    let signature j =
      let collect ks f = List.sort compare (List.filter_map (fun k -> f edges.(k)) ks) in
      ( collect ins.(j) (fun (e : Pipe.edge) ->
            if e.Pipe.src <> j then Some (e.Pipe.src, e.Pipe.lat, e.Pipe.dist)
            else None),
        collect outs.(j) (fun (e : Pipe.edge) ->
            if e.Pipe.dst <> j then Some (e.Pipe.dst, e.Pipe.lat, e.Pipe.dist)
            else None),
        collect outs.(j) (fun (e : Pipe.edge) ->
            if e.Pipe.dst = j then Some (e.Pipe.lat, e.Pipe.dist) else None) )
    in
    let sigs = Array.init n signature in
    for j = 0 to n - 1 do
      let rec back k =
        if k < 0 then ()
        else if sigs.(k) = sigs.(j) then twin.(j) <- k
        else back (k - 1)
      in
      back (j - 1)
    done;
    let nodes = ref 0 in
    let witness = ref [||] in
    (* 0 = unsat in this subtree, 1 = sat, 2 = budget hit. *)
    let rec dfs depth =
      if depth = n then begin
        let t = Array.init n (fun i -> d.(i) + md (rho.(i) - d.(i)) ii) in
        let tmin = Array.fold_left min max_int t in
        witness := Array.map (fun x -> x - tmin) t;
        1
      end
      else begin
        let i = order.(depth) in
        let saved = Array.copy d in
        (* Row capacities are uniform, so rotating every row by a
           constant maps schedules to schedules: pin the first
           branched operation to row 0. *)
        if depth = 0 then try_rows depth i saved [ 0 ]
        else begin
          let lo = if twin.(i) >= 0 then rho.(twin.(i)) else 0 in
          let lo = if lo < 0 then 0 else lo in
          (* Rows congruent to the current earliest start first: they
             add no slack on the tight incoming chain, so satisfying
             assignments surface early; the full 0-slack..max-slack
             sweep keeps Unsat proofs exhaustive. *)
          let rs = ref [] in
          for o = ii - 1 downto 0 do
            let r = md (d.(i) + o) ii in
            if r >= lo then rs := r :: !rs
          done;
          try_rows depth i saved !rs
        end
      end
    and try_rows depth i saved = function
      | [] -> 0
      | r :: rest ->
        if rowfill.(r) >= issue then try_rows depth i saved rest
        else if !nodes >= budget then 2
        else begin
          incr nodes;
          rho.(i) <- r;
          rowfill.(r) <- rowfill.(r) + 1;
          let res = if propagate_from i then dfs (depth + 1) else 0 in
          if res = 1 then 1
          else begin
            rho.(i) <- -1;
            rowfill.(r) <- rowfill.(r) - 1;
            Array.blit saved 0 d 0 n;
            if res = 2 then 2 else try_rows depth i saved rest
          end
        end
    in
    match dfs 0 with
    | 1 -> (Sat !witness, !nodes)
    | 2 -> (Budget, !nodes)
    | _ -> (Unsat, !nodes)
  end

type cert = {
  ct_lb : int;
  ct_ub : int option;
  ct_proved : bool;
  ct_nodes : int;
  ct_witness : int array option;
}

let certify ?(budget = default_budget) (p : Pipe.problem) ~heur_ii =
  let cap =
    match heur_ii with Some h -> h - 1 | None -> p.Pipe.p_list_ci - 1
  in
  let nodes = ref 0 in
  let rec walk k =
    if k > cap then
      {
        ct_lb = max (cap + 1) p.Pipe.p_mii;
        ct_ub = heur_ii;
        ct_proved = true;
        ct_nodes = !nodes;
        ct_witness = None;
      }
    else
      match decide ~budget:(budget - !nodes) p ~ii:k with
      | Sat t, nd ->
        nodes := !nodes + nd;
        assert (check_schedule p ~ii:k t);
        {
          ct_lb = k;
          ct_ub = Some k;
          ct_proved = true;
          ct_nodes = !nodes;
          ct_witness = Some t;
        }
      | Unsat, nd ->
        nodes := !nodes + nd;
        walk (k + 1)
      | Budget, nd ->
        nodes := !nodes + nd;
        {
          ct_lb = k;
          ct_ub = heur_ii;
          ct_proved = false;
          ct_nodes = !nodes;
          ct_witness = None;
        }
  in
  walk (max 1 p.Pipe.p_mii)
