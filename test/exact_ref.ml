(* Reference exact decision for the differential tests: the
   formulation [Exact.decide] replaced. After every row assignment it
   re-runs full Bellman-Ford sweeps over every edge, up to n+2 rounds,
   instead of propagating from the one operation that changed. Same
   branching order, symmetry breaks, budget accounting and witness
   read-off, so its verdicts, node counts and witnesses must equal
   [Exact.decide]'s exactly. *)

module Pipe = Impact_pipe.Pipe
module Exact = Impact_exact.Exact

(* Mathematical modulo (OCaml's [mod] keeps the dividend's sign). *)
let md x k = ((x mod k) + k) mod k

let decide ?(budget = Exact.default_budget) (p : Pipe.problem) ~ii =
  let n = p.Pipe.p_n and issue = p.Pipe.p_issue in
  if ii < 1 || n > issue * ii then (Exact.Unsat, 0)
  else if not (Pipe.ii_feasible ~n p.Pipe.p_edges ii) then (Exact.Unsat, 0)
  else begin
    let edges = Array.of_list p.Pipe.p_edges in
    let ne = Array.length edges in
    let rho = Array.make n (-1) in
    let rowfill = Array.make ii 0 in
    (* Longest-path potentials from the all-zero source, kept at the
       fixpoint of the current adjusted weights. Assigning a row only
       tightens weights, so a parent's fixpoint warm-starts the child
       and [n] extra sweeps still suffice; change past that bound is a
       genuine positive cycle. *)
    let d = Array.make n 0 in
    let adj k =
      let e = edges.(k) in
      let w = e.Pipe.lat - (ii * e.Pipe.dist) in
      if rho.(e.Pipe.src) >= 0 && rho.(e.Pipe.dst) >= 0 then
        w + md (rho.(e.Pipe.dst) - rho.(e.Pipe.src) - w) ii
      else w
    in
    let propagate () =
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds <= n + 1 do
        changed := false;
        for k = 0 to ne - 1 do
          let e = edges.(k) in
          let a = adj k in
          if d.(e.Pipe.src) + a > d.(e.Pipe.dst) then begin
            d.(e.Pipe.dst) <- d.(e.Pipe.src) + a;
            changed := true
          end
        done;
        incr rounds
      done;
      not !changed
    in
    if not (propagate ()) then (Exact.Unsat, 0)
    else begin
      (* Branch in the IMS scheduler's height order: operations feeding
         long dependence chains first. *)
      let h = Pipe.heights ~n p.Pipe.p_edges ii in
      let order = Array.init n Fun.id in
      Array.sort
        (fun a b -> if h.(a) <> h.(b) then compare h.(b) h.(a) else compare a b)
        order;
      (* Interchangeable operations (identical in/out edge signatures,
         ubiquitous in wide DOALL bodies) admit a factorial symmetry:
         any schedule can reorder a twin class arbitrarily, so demand
         nondecreasing rows along each class in index order. [twin.(j)]
         is j's predecessor in its class, branched earlier (equal
         heights tie-break on index). *)
      let twin = Array.make n (-1) in
      let signature j =
        let ins =
          List.filter_map
            (fun (e : Pipe.edge) ->
              if e.Pipe.dst = j && e.Pipe.src <> j then
                Some (e.Pipe.src, e.Pipe.lat, e.Pipe.dist)
              else None)
            p.Pipe.p_edges
        and outs =
          List.filter_map
            (fun (e : Pipe.edge) ->
              if e.Pipe.src = j && e.Pipe.dst <> j then
                Some (e.Pipe.dst, e.Pipe.lat, e.Pipe.dist)
              else None)
            p.Pipe.p_edges
        and selfs =
          List.filter_map
            (fun (e : Pipe.edge) ->
              if e.Pipe.src = j && e.Pipe.dst = j then
                Some (e.Pipe.lat, e.Pipe.dist)
              else None)
            p.Pipe.p_edges
        in
        (List.sort compare ins, List.sort compare outs, List.sort compare selfs)
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
            let res = if propagate () then dfs (depth + 1) else 0 in
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
      | 1 -> (Exact.Sat !witness, !nodes)
      | 2 -> (Exact.Budget, !nodes)
      | _ -> (Exact.Unsat, !nodes)
    end
  end
