(* The five cumulative transformation levels of the paper's evaluation
   (Section 3.2):

     Conv  conventional scalar optimizations
     Lev1  + loop unrolling
     Lev2  + register renaming
     Lev3  + operation combining, strength reduction, tree height reduction
     Lev4  + accumulator / induction / search variable expansion

   Within a level the passes are ordered so each sees the code shape it
   expects: the expansion transformations run on the raw unrolled body
   (where an induction variable still has k identical increments, as in
   the paper's Figure 4), and renaming runs after them. *)

open Impact_ir

type t = Conv | Lev1 | Lev2 | Lev3 | Lev4

let all = [ Conv; Lev1; Lev2; Lev3; Lev4 ]

let to_string = function
  | Conv -> "Conv"
  | Lev1 -> "Lev1"
  | Lev2 -> "Lev2"
  | Lev3 -> "Lev3"
  | Lev4 -> "Lev4"

let of_string = function
  | "conv" | "Conv" -> Some Conv
  | "lev1" | "Lev1" -> Some Lev1
  | "lev2" | "Lev2" -> Some Lev2
  | "lev3" | "Lev3" -> Some Lev3
  | "lev4" | "Lev4" -> Some Lev4
  | _ -> None

let rank = function Conv -> 0 | Lev1 -> 1 | Lev2 -> 2 | Lev3 -> 3 | Lev4 -> 4

let cleanup = Impact_opt.Conv.cleanup

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

(* The factor Unroll actually applied to each innermost loop (it can
   clamp below the requested factor on tiny trips or huge bodies). *)
let record_unroll_factors (p : Prog.t) =
  if Impact_obs.Obs.collecting () then
    List.iter
      (fun (l : Block.loop) ->
        if Block.is_innermost l && l.Block.meta.Block.unrolled > 1 then begin
          Impact_obs.Obs.count "pass.unroll.loops_unrolled";
          Impact_obs.Obs.count
            (Printf.sprintf "pass.unroll.by%d" l.Block.meta.Block.unrolled)
        end)
      (Block.loops p.Prog.entry)

(* Custom pipeline with individual transformations switchable; used by the
   level pipeline and by the leave-one-out ablation benchmarks. *)
let apply_custom ?unroll_factor ~unroll ~accum ~ind ~search ~rename ~combine
    ~strength ~thr (p : Prog.t) : Prog.t =
  let p = pass "conv" Impact_opt.Conv.run p in
  if not unroll then p
  else begin
    let p = pass "unroll" (Unroll.run ?factor:unroll_factor) p in
    record_unroll_factors p;
    let p = pass "cleanup" cleanup p in
    let p = if accum then pass "accum_expand" Accum_expand.run p else p in
    let p = if ind then pass "ind_expand" Ind_expand.run p else p in
    let p = if search then pass "search_expand" Search_expand.run p else p in
    let p = if rename then pass "rename" Rename.run p else p in
    let p = if combine then pass "combine" Combine.run p else p in
    let p = if strength then pass "strength" Strength.run p else p in
    let p = if thr then pass "tree_height" Tree_height.run p else p in
    pass "cleanup" cleanup p
  end

let apply ?unroll_factor (level : t) (p : Prog.t) : Prog.t =
  let r = rank level in
  apply_custom ?unroll_factor ~unroll:(r >= 1) ~accum:(r >= 4) ~ind:(r >= 4)
    ~search:(r >= 4) ~rename:(r >= 2) ~combine:(r >= 3) ~strength:(r >= 3)
    ~thr:(r >= 3) p
