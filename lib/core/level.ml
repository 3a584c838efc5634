(* The levels as one table of named passes (see level.mli), ordered so
   each pass sees the code shape it expects: the three expansions
   ([Expand.accum], [Expand.induction], [Expand.search]) run on the raw
   unrolled body, where an induction variable still has k identical
   increments (the paper's Figure 4), and renaming runs after them. *)

open Impact_ir

type t = Conv | Lev1 | Lev2 | Lev3 | Lev4

let all = [ Conv; Lev1; Lev2; Lev3; Lev4 ]

let to_string = function
  | Conv -> "Conv"
  | Lev1 -> "Lev1"
  | Lev2 -> "Lev2"
  | Lev3 -> "Lev3"
  | Lev4 -> "Lev4"

let of_string s =
  List.find_opt (fun l -> s = to_string l || s = String.uncapitalize_ascii (to_string l)) all

(* Telemetry wrapper around one transformation: a span per pass plus
   counters for the IR growth it caused (instruction and fresh-register
   deltas). One atomic load when telemetry is off. *)
let pass name f (p : Prog.t) : Prog.t =
  if not (Impact_obs.Obs.enabled ()) then f p
  else
    Impact_obs.Obs.span ~cat:"pass" ("pass." ^ name) (fun () ->
      let insns0 = List.length (Block.insns p.Prog.entry) in
      let regs0 = Reg.gen_count p.Prog.ctx.Prog.rgen in
      let p' = f p in
      let dinsns = List.length (Block.insns p'.Prog.entry) - insns0 in
      let dregs = Reg.gen_count p'.Prog.ctx.Prog.rgen - regs0 in
      Impact_obs.Obs.count ("pass." ^ name ^ ".runs");
      if dinsns > 0 then Impact_obs.Obs.count ~n:dinsns ("pass." ^ name ^ ".insns_added");
      if dinsns < 0 then
        Impact_obs.Obs.count ~n:(-dinsns) ("pass." ^ name ^ ".insns_removed");
      if dregs > 0 then Impact_obs.Obs.count ~n:dregs ("pass." ^ name ^ ".regs_created");
      p')

type pass = string * (Prog.t -> Prog.t)

(* Unrolling, and the factor it actually applied to each innermost loop
   (it can clamp below the requested one on tiny trips or huge bodies). *)
let unroll ?factor (p : Prog.t) : Prog.t =
  let p = Unroll.run ?factor p in
  if Impact_obs.Obs.collecting () then
    List.iter
      (fun (l : Block.loop) ->
        if Block.is_innermost l && l.Block.meta.Block.unrolled > 1 then begin
          Impact_obs.Obs.count "pass.unroll.loops_unrolled";
          Impact_obs.Obs.count
            (Printf.sprintf "pass.unroll.by%d" l.Block.meta.Block.unrolled)
        end)
      (Block.loops p.Prog.entry);
  p

(* Constructors compare in declaration order, so [l <= level] reads
   "introduced at or below [level]". *)
let pipeline ?unroll_factor (level : t) : pass list =
  let cleanup = Impact_opt.Conv.cleanup in
  List.filter_map
    (fun (l, e) -> if l <= level then Some e else None)
    [
      (Conv, ("conv", Impact_opt.Conv.run));
      (Lev1, ("unroll", unroll ?factor:unroll_factor));
      (Lev4, ("accum_expand", Expand.accum));
      (Lev4, ("ind_expand", Expand.induction));
      (Lev4, ("search_expand", Expand.search));
      (Lev2, ("rename", Rename.run));
      (Lev3, ("combine", Combine.run));
      (Lev3, ("strength", Strength.run));
      (Lev3, ("tree_height", Tree_height.run));
      (Lev1, ("cleanup", cleanup));
    ]

let run (passes : pass list) (p : Prog.t) : Prog.t =
  List.fold_left (fun p (name, f) -> pass name f p) p passes

let apply ?unroll_factor (level : t) (p : Prog.t) : Prog.t =
  run (pipeline ?unroll_factor level) p
