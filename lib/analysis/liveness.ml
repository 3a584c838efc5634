(* Global liveness over the flattened instruction stream. Used by dead
   code elimination, by the superblock scheduler's speculation rule
   (an instruction may move above a branch only if its destination is
   dead at the branch target), and by the register allocator.

   The analysis runs on dense integer register indices and bitsets
   ([Dense] below): registers are numbered 0..nregs-1 in [Reg.Ord]
   order and live sets are [Bits.t]. It keeps sets per basic block,
   not per position: a block starts at position 0, at every label and
   after every branch or jump, so control enters a block only at its
   first position and leaves it only after its last. A [frame] holds
   the numbering, the block boundaries and successors, and each
   block's use/def summary; [solve] runs the backward fixpoint over
   blocks, growing the live-in and live-out sets in place (they only
   grow under the union transfer function). [solve] can re-run under
   a mask of removed positions, recomputing the summaries of the
   blocks the mask changed, so DCE pays for the set-up once per call.
   A consumer that needs the live set at a position replays its block
   backwards from the block's live-out ([walk]); the schedulers read
   only the live-ins of the blocks that branch targets start
   ([target_live]). *)

open Impact_ir

module Dense = struct
  (* Per block: successors, use/def summary and live sets. *)
  type blocks = {
    jump : int array;  (* target block of the last position's branch (nblocks = exit), or -1 *)
    falls : bool array;  (* whether the last position can fall through (is not a Jmp) *)
    mask : Bytes.t;  (* per position: non-zero where the summaries treat it as removed *)
    use : Bits.t array;  (* registers read before any def in the block *)
    kill : Bits.t array;  (* registers defined in the block *)
    live_in : Bits.t array;
    live_out : Bits.t array;
  }

  type d = {
    flat : Flatten.t;
    regs : Reg.t array;  (* dense index -> register, ascending Reg.Ord *)
    def : int array;  (* dense index defined at each position, or -1 *)
    use_start : int array;  (* position k reads uses.(use_start.(k) .. use_start.(k + 1) - 1) *)
    uses : int array;  (* dense index of every register source, in position order *)
    start : int array;  (* first position of each block; start.(nblocks) = n *)
    exit_live : Bits.t;
    blocks : blocks;
  }

  let nregs (d : d) = Array.length d.regs

  let nblocks (d : d) = Array.length d.start - 1

  (* Stands for "no definition" among the register hashes of [scan]. *)
  let no_def = -1

  (* One pass over the code: the hash each position defines ([no_def]
     if none), the hashes of its register sources laid out by
     [use_start], and the smallest and largest hash the code names.
     Also marks [starts] after every branch or jump. *)
  let scan (code : Insn.t array) (starts : Bytes.t) =
    let n = Array.length code in
    let def = Array.make n no_def in
    let use_start = Array.make (n + 1) 0 in
    for k = 0 to n - 1 do
      let srcs = code.(k).Insn.srcs and c = ref 0 in
      for j = 0 to Array.length srcs - 1 do
        match srcs.(j) with
        | Operand.Reg _ -> incr c
        | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ()
      done;
      use_start.(k + 1) <- use_start.(k) + !c
    done;
    let uses = Array.make use_start.(n) 0 in
    let lo = ref max_int and hi = ref min_int in
    let widen h =
      if h < !lo then lo := h;
      if h > !hi then hi := h
    in
    for k = 0 to n - 1 do
      let i = code.(k) in
      (match i.Insn.dst with
      | Some r ->
        def.(k) <- Reg.hash r;
        widen def.(k)
      | None -> ());
      (match i.Insn.op with
      | (Insn.Jmp | Insn.Br _) when k + 1 < n -> Bytes.set starts (k + 1) '\001'
      | _ -> ());
      let srcs = i.Insn.srcs and u = ref use_start.(k) in
      for j = 0 to Array.length srcs - 1 do
        match srcs.(j) with
        | Operand.Reg r ->
          uses.(!u) <- Reg.hash r;
          widen uses.(!u);
          incr u
        | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ()
      done
    done;
    (def, use_start, uses, !lo, !hi)

  (* Set bits of a word. *)
  let popcount x =
    let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
    let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
    let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
    ((x * 0x0101_0101_0101_0101) lsr 56) land 0xff

  (* Dense numbering of every register the code names (defs and uses)
     or that is live at exit, in ascending [Reg.Ord] order — so
     ascending bit iteration visits registers in [Reg.Set] order.
     [Reg.hash] is injective and ascending hash order is [Reg.Ord]
     order, so a register's index is its rank among the named hashes:
     one presence bit per hash in [lo, hi] and a running count per word
     give it with no sort. Rewrites [def] and [uses] from hashes to
     dense indices and returns the registers and the exit-live
     indices. *)
  let number def uses (exit_live : Reg.t list) lo hi =
    let lo = List.fold_left (fun lo r -> min lo (Reg.hash r)) lo exit_live
    and hi = List.fold_left (fun hi r -> max hi (Reg.hash r)) hi exit_live in
    if hi < lo then ([||], [])
    else begin
      let bpw = Sys.int_size in
      let present = Bits.create (hi - lo + 1) in
      let mark h =
        let i = h - lo in
        present.(i / bpw) <- present.(i / bpw) lor (1 lsl (i mod bpw))
      in
      for k = 0 to Array.length def - 1 do
        if def.(k) <> no_def then mark def.(k)
      done;
      for j = 0 to Array.length uses - 1 do
        mark uses.(j)
      done;
      List.iter (fun r -> mark (Reg.hash r)) exit_live;
      (* [below.(w)]: the named hashes in the words before [w]. *)
      let below = Array.make (Array.length present) 0 in
      let n = ref 0 in
      for w = 0 to Array.length present - 1 do
        below.(w) <- !n;
        n := !n + popcount present.(w)
      done;
      let regs = Array.make !n { Reg.id = 0; cls = Reg.Int } in
      let next = ref 0 in
      Bits.iter
        (fun i ->
          let h = i + lo in
          regs.(!next) <- { Reg.id = h asr 1; cls = (if h land 1 = 0 then Reg.Int else Reg.Float) };
          incr next)
        present;
      let rank h =
        let i = h - lo in
        let w = i / bpw in
        below.(w) + popcount (present.(w) land ((1 lsl (i mod bpw)) - 1))
      in
      for k = 0 to Array.length def - 1 do
        if def.(k) <> no_def then def.(k) <- rank def.(k)
      done;
      for j = 0 to Array.length uses - 1 do
        uses.(j) <- rank uses.(j)
      done;
      (regs, List.map (fun r -> rank (Reg.hash r)) exit_live)
    end

  let removed_at (d : d) k = Bytes.get d.blocks.mask k <> '\000'

  (* [live := (live \ def(k)) ∪ uses(k)]: the live-in of position [k]
     from its live-out. *)
  let step (d : d) k (live : Bits.t) =
    if d.def.(k) >= 0 then Bits.remove live d.def.(k);
    for j = d.use_start.(k) to d.use_start.(k + 1) - 1 do
      Bits.add live d.uses.(j)
    done

  (* Recompute block [b]'s use/def summary under the mask. *)
  let summarize (d : d) b =
    let use = d.blocks.use.(b) and kill = d.blocks.kill.(b) in
    Bits.clear use;
    Bits.clear kill;
    for k = d.start.(b + 1) - 1 downto d.start.(b) do
      if not (removed_at d k) then begin
        step d k use;
        if d.def.(k) >= 0 then Bits.add kill d.def.(k)
      end
    done

  (* The block starting at position [k] (a label's position, below the
     code's length), by bisection over the block starts. *)
  let block_at (start : int array) k =
    let lo = ref 0 and hi = ref (Array.length start - 2) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if start.(mid) <= k then lo := mid else hi := mid - 1
    done;
    !lo

  let frame ?(exit_live = []) (flat : Flatten.t) : d =
    let code = flat.Flatten.code in
    let n = Array.length code in
    (* [mask] marks the block starts until they are numbered, and is
       then the all-clear removal mask. *)
    let mask = Bytes.make n '\000' in
    let def, use_start, uses, lo, hi = scan code mask in
    let regs, exit_dense = number def uses exit_live lo hi in
    let nr = Array.length regs in
    if n > 0 then Bytes.set mask 0 '\001';
    Hashtbl.iter (fun _ k -> if k < n then Bytes.set mask k '\001') flat.Flatten.labels;
    let nb = ref 0 in
    for k = 0 to n - 1 do
      if Bytes.get mask k <> '\000' then incr nb
    done;
    let nb = !nb in
    let start = Array.make (nb + 1) n in
    let b = ref 0 in
    for k = 0 to n - 1 do
      if Bytes.get mask k <> '\000' then begin
        start.(!b) <- k;
        incr b;
        Bytes.set mask k '\000'
      end
    done;
    (* A branch target is a label, so it starts a block (or is the
       exit, block [nb]). *)
    let target i =
      let t = Flatten.target_index flat i in
      if t >= n then nb else block_at start t
    in
    let jump = Array.make nb (-1) and falls = Array.make nb true in
    for b = 0 to nb - 1 do
      let i = code.(start.(b + 1) - 1) in
      match i.Insn.op with
      | Insn.Jmp ->
        falls.(b) <- false;
        jump.(b) <- target i
      | Insn.Br _ -> jump.(b) <- target i
      | _ -> ()
    done;
    let exit_bits = Bits.create nr in
    List.iter (Bits.add exit_bits) exit_dense;
    let sets () = Array.init nb (fun _ -> Bits.create nr) in
    let blocks =
      { jump; falls; mask; use = sets (); kill = sets (); live_in = sets (); live_out = sets () }
    in
    let d = { flat; regs; def; use_start; uses; start; exit_live = exit_bits; blocks } in
    for b = 0 to nb - 1 do
      summarize d b
    done;
    d

  let solve ?removed (d : d) =
    let nb = nblocks d and bl = d.blocks in
    (* Bring the mask up to date, re-summarising only the blocks where
       it changed. *)
    for b = 0 to nb - 1 do
      let dirty = ref false in
      for k = d.start.(b) to d.start.(b + 1) - 1 do
        let r = match removed with Some m -> m.(k) | None -> false in
        if removed_at d k <> r then begin
          Bytes.set bl.mask k (if r then '\001' else '\000');
          dirty := true
        end
      done;
      if !dirty then summarize d b
    done;
    (* Uses are a constant lower bound of live-in; seed them. *)
    for b = 0 to nb - 1 do
      Bits.copy_into ~into:bl.live_in.(b) bl.use.(b);
      Bits.clear bl.live_out.(b)
    done;
    let visits = ref 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      for b = nb - 1 downto 0 do
        incr visits;
        (* out(b) ∪= in over successors; successor [nb] is the program
           exit, which contributes exit_live. A removed last position
           only falls through. *)
        let out = bl.live_out.(b) in
        let kept = not (removed_at d (d.start.(b + 1) - 1)) in
        let grew_f =
          (bl.falls.(b) || not kept)
          && Bits.union_into ~into:out (if b + 1 >= nb then d.exit_live else bl.live_in.(b + 1))
        in
        let t = if kept then bl.jump.(b) else -1 in
        let grew_t =
          t >= 0 && Bits.union_into ~into:out (if t >= nb then d.exit_live else bl.live_in.(t))
        in
        (* in(b) ∪= out(b) \ kill(b) *)
        if (grew_f || grew_t) && Bits.union_diff_into ~into:bl.live_in.(b) out bl.kill.(b) then
          changed := true
      done
    done;
    Impact_obs.Obs.count ~n:!visits "liveness.block_visits"

  let walk (d : d) b (live : Bits.t) (f : int -> unit) =
    Bits.copy_into ~into:live d.blocks.live_out.(b);
    for k = d.start.(b + 1) - 1 downto d.start.(b) do
      f k;
      if not (removed_at d k) then step d k live
    done

  let of_prog (p : Prog.t) : d =
    let d = frame ~exit_live:(List.map snd p.Prog.outputs) (Flatten.of_prog p) in
    solve d;
    d
end

(* Reconstruct a [Reg.Set] from a dense bitset: ascending bit order is
   ascending [Reg.Ord] order, so the sorted list converts linearly. *)
let set_of_bits (regs : Reg.t array) (b : Bits.t) : Reg.Set.t =
  let acc = ref [] in
  Bits.iter (fun i -> acc := regs.(i) :: !acc) b;
  (* [acc] is descending; [of_list] sorts, which is linear on sorted
     input sizes like these. *)
  Reg.Set.of_list !acc

(* The live set at a branch's target (the live-in of the block its
   label starts, or the exit-live set for a label at the end of the
   code) as a [Reg.Set]: [target_live d] returns a lookup that builds a
   target's set on first request and memoises it, so a scheduler pays
   only for the targets it reads. *)
let target_live (d : Dense.d) : Insn.t -> Reg.Set.t =
  let nb = Dense.nblocks d in
  let n = Array.length d.Dense.flat.Flatten.code in
  let memo = Array.make (nb + 1) None in
  fun i ->
    let lbl =
      match i.Insn.target with
      | Some l -> l
      | None -> invalid_arg "Liveness.target_live: not a branch"
    in
    let b =
      match Hashtbl.find_opt d.Dense.flat.Flatten.labels lbl with
      | Some k -> if k >= n then nb else Dense.block_at d.Dense.start k
      | None -> invalid_arg ("Liveness.target_live: unknown label " ^ lbl)
    in
    match memo.(b) with
    | Some s -> s
    | None ->
      let s =
        set_of_bits d.Dense.regs
          (if b = nb then d.Dense.exit_live else d.Dense.blocks.Dense.live_in.(b))
      in
      memo.(b) <- Some s;
      s
