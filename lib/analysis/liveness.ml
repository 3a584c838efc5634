(* Global liveness over the flattened instruction stream. Used by dead
   code elimination, by the superblock scheduler's speculation rule
   (an instruction may move above a branch only if its destination is
   dead at the branch target), and by the register allocator.

   The analysis itself runs on dense integer register indices and
   bitsets ([Dense] below): registers are numbered 0..nregs-1 in
   [Reg.Ord] order, live sets are [Bits.t], and the backward fixpoint
   mutates them in place (live sets only grow under the union transfer
   function). The set-up (numbering, defs, successors, bitsets) is a
   [frame] that [solve] can re-run under a mask of removed positions,
   so DCE pays for it once per call. DCE and the register allocator
   read the dense form directly; the schedulers build only the
   branch-target [Reg.Set]s they read ([target_live]). *)

open Impact_ir

module Dense = struct
  type d = {
    flat : Flatten.t;
    regs : Reg.t array;  (* dense index -> register, ascending Reg.Ord *)
    base : int;  (* smallest Reg.hash in [regs] *)
    index : int array;  (* Reg.hash - base -> dense index, or -1 *)
    def : int array;  (* dense index defined at each position, or -1 *)
    fall : int array;  (* fall-through successor (n = exit), or -1 after a Jmp *)
    jump : int array;  (* branch target position (n = exit), or -1 *)
    live_in : Bits.t array;
    live_out : Bits.t array;
    exit_live : Bits.t;
  }

  let nregs (d : d) = Array.length d.regs

  (* Hash range of the registers seen so far. *)
  type range = { mutable lo : int; mutable hi : int }

  let widen (b : range) (r : Reg.t) =
    let h = Reg.hash r in
    if h < b.lo then b.lo <- h;
    if h > b.hi then b.hi <- h

  (* Dense numbering of every register mentioned by the code (defs and
     uses) or live at exit, in ascending [Reg.Ord] order — so ascending
     bit iteration visits registers in [Reg.Set] order. [Reg.hash] is
     injective and ascending hash order is [Reg.Ord] order, so one scan
     of a presence array indexed by hash numbers them with no sort. The
     scans are plain loops over [dst] and [srcs]: no closure, no list. *)
  let number (code : Insn.t array) (exit_live : Reg.t list) =
    let b = { lo = max_int; hi = min_int } in
    for k = 0 to Array.length code - 1 do
      let i = code.(k) in
      (match i.Insn.dst with Some r -> widen b r | None -> ());
      let srcs = i.Insn.srcs in
      for j = 0 to Array.length srcs - 1 do
        match srcs.(j) with
        | Operand.Reg r -> widen b r
        | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ()
      done
    done;
    List.iter (widen b) exit_live;
    if b.hi < b.lo then ([||], 0, [||])
    else begin
      let base = b.lo in
      let index = Array.make (b.hi - base + 1) (-1) in
      let mark (r : Reg.t) = index.(Reg.hash r - base) <- 0 in
      for k = 0 to Array.length code - 1 do
        let i = code.(k) in
        (match i.Insn.dst with Some r -> mark r | None -> ());
        let srcs = i.Insn.srcs in
        for j = 0 to Array.length srcs - 1 do
          match srcs.(j) with
          | Operand.Reg r -> mark r
          | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ()
        done
      done;
      List.iter mark exit_live;
      let n = ref 0 in
      for h = 0 to Array.length index - 1 do
        if index.(h) = 0 then begin
          index.(h) <- !n;
          incr n
        end
      done;
      let regs = Array.make !n { Reg.id = 0; cls = Reg.Int } in
      for h = 0 to Array.length index - 1 do
        let i = index.(h) in
        if i >= 0 then begin
          let h = h + base in
          let cls = if h land 1 = 0 then Reg.Int else Reg.Float in
          regs.(i) <- { Reg.id = h asr 1; cls }
        end
      done;
      (regs, base, index)
    end

  let frame ?(exit_live = []) (flat : Flatten.t) : d =
    let code = flat.Flatten.code in
    let n = Array.length code in
    let regs, base, index = number code exit_live in
    let nr = Array.length regs in
    let def = Array.make n (-1) and fall = Array.make n (-1) and jump = Array.make n (-1) in
    for k = 0 to n - 1 do
      let i = code.(k) in
      (match i.Insn.dst with
      | Some r -> def.(k) <- index.(Reg.hash r - base)
      | None -> ());
      match i.Insn.op with
      | Insn.Jmp -> jump.(k) <- Flatten.target_index flat i
      | Insn.Br _ ->
        fall.(k) <- k + 1;
        jump.(k) <- Flatten.target_index flat i
      | _ -> fall.(k) <- k + 1
    done;
    let exit_bits = Bits.create nr in
    List.iter (fun r -> Bits.add exit_bits index.(Reg.hash r - base)) exit_live;
    {
      flat;
      regs;
      base;
      index;
      def;
      fall;
      jump;
      live_in = Array.init n (fun _ -> Bits.create nr);
      live_out = Array.init n (fun _ -> Bits.create nr);
      exit_live = exit_bits;
    }

  let solve ?removed (d : d) =
    let code = d.flat.Flatten.code in
    let n = Array.length code in
    let removed = match removed with Some m -> m | None -> Array.make n false in
    let live_in = d.live_in and live_out = d.live_out and exit_bits = d.exit_live in
    (* Uses are a constant lower bound of live-in; seed them. *)
    for k = 0 to n - 1 do
      let li = live_in.(k) in
      Bits.clear li;
      Bits.clear live_out.(k);
      if not removed.(k) then begin
        let srcs = code.(k).Insn.srcs in
        for j = 0 to Array.length srcs - 1 do
          match srcs.(j) with
          | Operand.Reg r -> Bits.add li d.index.(Reg.hash r - d.base)
          | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ()
        done
      end
    done;
    let tmp = Bits.create (nregs d) in
    let changed = ref true in
    while !changed do
      changed := false;
      for k = n - 1 downto 0 do
        (* live_out(k) ∪= live_in over successors; successor n is the
           program exit, which contributes exit_live. A removed position
           only falls through. *)
        let out = live_out.(k) in
        let f = if removed.(k) then k + 1 else d.fall.(k) in
        let t = if removed.(k) then -1 else d.jump.(k) in
        let grew_f =
          f >= 0 && Bits.union_into ~into:out (if f >= n then exit_bits else live_in.(f))
        in
        let grew_t =
          t >= 0 && Bits.union_into ~into:out (if t >= n then exit_bits else live_in.(t))
        in
        if grew_f || grew_t then begin
          (* live_in(k) ∪= out \ defs(k) *)
          Bits.copy_into ~into:tmp out;
          if d.def.(k) >= 0 && not removed.(k) then Bits.remove tmp d.def.(k);
          if Bits.union_into ~into:live_in.(k) tmp then changed := true
        end
      done
    done

  let analyze ?exit_live (flat : Flatten.t) : d =
    let d = frame ?exit_live flat in
    solve d;
    d

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

(* The live set at a branch's target (the live-in of the instruction its
   label points at, or the exit-live set for a label at the end of the
   code) as a [Reg.Set]: [target_live d] returns a lookup that builds a
   target's set on first request and memoises it, so a scheduler pays
   only for the targets it reads. *)
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
