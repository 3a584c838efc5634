(* Global liveness over the flattened instruction stream. Used by dead
   code elimination, by the superblock scheduler's speculation rule
   (an instruction may move above a branch only if its destination is
   dead at the branch target), and by the register allocator.

   The analysis itself runs on dense integer register indices and
   bitsets ([Dense] below): registers are numbered 0..nregs-1 in
   [Reg.Ord] order, live sets are [Bits.t], and the backward fixpoint
   mutates them in place (live sets only grow under the union transfer
   function). The classic [Reg.Set]-based record is reconstructed from
   the dense result for callers that want symbolic sets; the hot
   consumers (DCE, the register allocator) read the dense form
   directly, and the schedulers build only the branch-target sets they
   read ([target_live]). *)

open Impact_ir

type t = {
  flat : Flatten.t;
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
  exit_live : Reg.Set.t;
}

let successors (flat : Flatten.t) k =
  let n = Array.length flat.Flatten.code in
  let i = flat.Flatten.code.(k) in
  match i.Insn.op with
  | Insn.Jmp -> [ Flatten.target_index flat i ]
  | Insn.Br _ ->
    let t = Flatten.target_index flat i in
    if k + 1 < n then [ k + 1; t ] else [ t ]
  | _ -> if k + 1 < n then [ k + 1 ] else []

module Dense = struct
  type d = {
    flat : Flatten.t;
    regs : Reg.t array;  (* dense index -> register, ascending Reg.Ord *)
    base : int;  (* smallest Reg.hash in [regs] *)
    index : int array;  (* Reg.hash - base -> dense index, or -1 *)
    live_in : Bits.t array;
    live_out : Bits.t array;
    exit_live : Bits.t;
  }

  let nregs (d : d) = Array.length d.regs

  let index_opt (d : d) (r : Reg.t) =
    let h = Reg.hash r - d.base in
    if h < 0 || h >= Array.length d.index then None
    else
      let i = d.index.(h) in
      if i < 0 then None else Some i

  let reg (d : d) i = d.regs.(i)

  (* Dense numbering of every register mentioned by the code (defs and
     uses) or live at exit, in ascending [Reg.Ord] order — so ascending
     bit iteration visits registers in [Reg.Set] order. [Reg.hash] is
     injective and ascending hash order is [Reg.Ord] order, so one scan
     of a presence array indexed by hash numbers them with no sort. *)
  let number (code : Insn.t array) (exit_live : Reg.t list) =
    let each f =
      Array.iter
        (fun (i : Insn.t) ->
          Option.iter f i.Insn.dst;
          Insn.iter_uses f i)
        code;
      List.iter f exit_live
    in
    let lo = ref max_int and hi = ref min_int in
    each (fun r ->
      let h = Reg.hash r in
      if h < !lo then lo := h;
      if h > !hi then hi := h);
    if !hi < !lo then ([||], 0, [||])
    else begin
      let base = !lo in
      let index = Array.make (!hi - base + 1) (-1) in
      each (fun r -> index.(Reg.hash r - base) <- 0);
      let acc = ref [] and n = ref 0 in
      Array.iteri
        (fun k seen ->
          if seen = 0 then begin
            index.(k) <- !n;
            incr n;
            let h = k + base in
            let cls = if h land 1 = 0 then Reg.Int else Reg.Float in
            acc := { Reg.id = h asr 1; cls } :: !acc
          end)
        index;
      (Array.of_list (List.rev !acc), base, index)
    end

  let analyze ?(exit_live = []) (flat : Flatten.t) : d =
    let code = flat.Flatten.code in
    let n = Array.length code in
    let regs, base, index = number code exit_live in
    let nr = Array.length regs in
    let idx r = index.(Reg.hash r - base) in
    let live_in = Array.init n (fun _ -> Bits.create nr) in
    let live_out = Array.init n (fun _ -> Bits.create nr) in
    let exit_bits = Bits.create nr in
    List.iter (fun r -> Bits.add exit_bits (idx r)) exit_live;
    (* An instruction defines at most its [dst]: -1 when it has none. *)
    let def =
      Array.map (fun (i : Insn.t) -> match i.Insn.dst with Some r -> idx r | None -> -1) code
    in
    (* Uses are a constant lower bound of live-in; seed them once. *)
    Array.iteri (fun k i -> Insn.iter_uses (fun r -> Bits.add live_in.(k) (idx r)) i) code;
    let succs = Array.init n (successors flat) in
    let falls_off =
      Array.init n (fun k ->
        k = n - 1 && (match code.(k).Insn.op with Insn.Jmp -> false | _ -> true))
    in
    let tmp = Bits.create nr in
    let changed = ref true in
    while !changed do
      changed := false;
      for k = n - 1 downto 0 do
        (* live_out(k) ∪= live_in over successors (program exit past the
           end contributes exit_live). *)
        let out = live_out.(k) in
        let grew = ref false in
        List.iter
          (fun s ->
            let src = if s >= n then exit_bits else live_in.(s) in
            if Bits.union_into ~into:out src then grew := true)
          succs.(k);
        if falls_off.(k) then
          if Bits.union_into ~into:out exit_bits then grew := true;
        if !grew then begin
          (* live_in(k) ∪= out \ defs(k) *)
          Bits.copy_into ~into:tmp out;
          if def.(k) >= 0 then Bits.remove tmp def.(k);
          if Bits.union_into ~into:live_in.(k) tmp then changed := true
        end
      done
    done;
    { flat; regs; base; index; live_in; live_out; exit_live = exit_bits }

  let of_prog (p : Prog.t) : d =
    analyze ~exit_live:(List.map snd p.Prog.outputs) (Flatten.of_prog p)
end

(* Reconstruct a [Reg.Set] from a dense bitset: ascending bit order is
   ascending [Reg.Ord] order, so the sorted list converts linearly. *)
let set_of_bits (regs : Reg.t array) (b : Bits.t) : Reg.Set.t =
  let acc = ref [] in
  Bits.iter (fun i -> acc := regs.(i) :: !acc) b;
  (* [acc] is descending; [of_list] sorts, which is linear on sorted
     input sizes like these. *)
  Reg.Set.of_list !acc

let of_dense (d : Dense.d) : t =
  {
    flat = d.Dense.flat;
    live_in = Array.map (set_of_bits d.Dense.regs) d.Dense.live_in;
    live_out = Array.map (set_of_bits d.Dense.regs) d.Dense.live_out;
    exit_live = set_of_bits d.Dense.regs d.Dense.exit_live;
  }

(* Live set at a label: the live-in of the instruction the label points
   at, or the exit-live set when the label is at the end of the code. *)
let live_at_label (t : t) lbl =
  match Hashtbl.find_opt t.flat.Flatten.labels lbl with
  | None -> invalid_arg ("Liveness.live_at_label: unknown label " ^ lbl)
  | Some k ->
    if k >= Array.length t.live_in then t.exit_live else t.live_in.(k)

(* Live set at the target of a branch instruction. *)
let live_at_target (t : t) (i : Insn.t) =
  match i.Insn.target with
  | None -> invalid_arg "Liveness.live_at_target: not a branch"
  | Some l -> live_at_label t l

(* Sparse [live_at_target] over a dense result: [target_live d] returns
   a lookup that builds a branch target's [Reg.Set] on first request and
   memoises it, so a scheduler pays for the targets it reads instead of
   expanding every live set with [of_dense]. *)
let target_live (d : Dense.d) : Insn.t -> Reg.Set.t =
  let n = Array.length d.Dense.live_in in
  let memo = Array.make (n + 1) None in
  fun i ->
    let lbl =
      match i.Insn.target with
      | Some l -> l
      | None -> invalid_arg "Liveness.target_live: not a branch"
    in
    let k =
      match Hashtbl.find_opt d.Dense.flat.Flatten.labels lbl with
      | Some k -> min k n
      | None -> invalid_arg ("Liveness.target_live: unknown label " ^ lbl)
    in
    match memo.(k) with
    | Some s -> s
    | None ->
      let s =
        set_of_bits d.Dense.regs (if k = n then d.Dense.exit_live else d.Dense.live_in.(k))
      in
      memo.(k) <- Some s;
      s

(* Liveness of a program: the program outputs are live at exit. *)
let of_prog (p : Prog.t) : t = of_dense (Dense.of_prog p)
