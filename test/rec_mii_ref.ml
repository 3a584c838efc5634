(* Reference recurrence bounds for the differential tests: the
   formulation [Pipe.rec_mii_exact] replaced. Feasibility runs
   Bellman-Ford over every edge of the body for up to n+2 rounds, RecMII
   scans II = 1, 2, 3, ... up to the latency-sum cap, and the height and
   depth priorities always run n+1 rounds. *)

module Pipe = Impact_pipe.Pipe

let weight ii (e : Pipe.edge) = e.Pipe.lat - (ii * e.Pipe.dist)

let feasible n (edges : Pipe.edge list) ii =
  let d = Array.make n 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n + 1 do
    changed := false;
    List.iter
      (fun (e : Pipe.edge) ->
        let w = weight ii e in
        if d.(e.Pipe.src) + w > d.(e.Pipe.dst) then begin
          d.(e.Pipe.dst) <- d.(e.Pipe.src) + w;
          changed := true
        end)
      edges;
    incr rounds
  done;
  not !changed

let rec_mii n (edges : Pipe.edge list) =
  let latsum = List.fold_left (fun a (e : Pipe.edge) -> a + e.Pipe.lat) 1 edges in
  let rec go ii = if ii >= latsum || feasible n edges ii then ii else go (ii + 1) in
  go 1

let heights n (edges : Pipe.edge list) ii =
  let h = Array.make n 0 in
  for _ = 1 to n + 1 do
    List.iter
      (fun (e : Pipe.edge) ->
        let w = weight ii e in
        if h.(e.Pipe.src) < h.(e.Pipe.dst) + w then h.(e.Pipe.src) <- h.(e.Pipe.dst) + w)
      edges
  done;
  h

let depths n (edges : Pipe.edge list) ii =
  let d = Array.make n 0 in
  for _ = 1 to n + 1 do
    List.iter
      (fun (e : Pipe.edge) ->
        let w = weight ii e in
        if d.(e.Pipe.dst) < d.(e.Pipe.src) + w then d.(e.Pipe.dst) <- d.(e.Pipe.src) + w)
      edges
  done;
  d
