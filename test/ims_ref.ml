(* Reference iterative modulo scheduler for the differential tests: the
   formulation [Pipe.ims_schedule] replaced. Each placement rescans
   every operation for the highest unscheduled one, and each II is
   first checked for feasibility by [Rec_mii_ref.feasible]. Same budget,
   priorities and eviction rule, so its times and II must equal the
   ranked scheduler's exactly. *)

module Pipe = Impact_pipe.Pipe

let budget_ratio = 8

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
        if time.(p) >= 0 then estart := Int.max !estart (time.(p) + lat - (ii * dist)))
      preds.(i);
    let mintime = if prevt.(i) >= 0 then Int.max !estart (prevt.(i) + 1) else !estart in
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

let ims_schedule ~issue ~n (edges : Pipe.edge list) ~mii ~max_ii =
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  List.iter
    (fun (e : Pipe.edge) ->
      succs.(e.Pipe.src) <- (e.Pipe.dst, e.Pipe.lat, e.Pipe.dist) :: succs.(e.Pipe.src);
      preds.(e.Pipe.dst) <- (e.Pipe.src, e.Pipe.lat, e.Pipe.dist) :: preds.(e.Pipe.dst))
    edges;
  let rec go ii =
    if ii > max_ii then None
    else if not (Rec_mii_ref.feasible n edges ii) then go (ii + 1)
    else
      let try_priority prio =
        match attempt ~issue n succs preds prio ii with
        | Some time ->
          let tmin = Array.fold_left min max_int time in
          Some (Array.map (fun t -> t - tmin) time, ii)
        | None -> None
      in
      match try_priority (Pipe.heights ~n edges ii) with
      | Some r -> Some r
      | None -> (
        match try_priority (Pipe.depths ~n edges ii) with
        | Some r -> Some r
        | None -> go (ii + 1))
  in
  go mii
