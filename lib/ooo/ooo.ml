(* Cycle-level out-of-order core model (ROADMAP item 2): the same node
   processor as lib/sim — Table 1 latencies, [issue]-wide, one branch
   slot, 100% cache hits — but with dynamic scheduling:

   - fetch/rename/dispatch in program order, up to [issue] per cycle,
     into a finite reorder buffer of [rob] entries;
   - hardware register renaming onto a finite physical register file
     ([phys_regs] per class, P6-style: a physical register holds an
     in-flight result from rename until commit, so renaming stalls only
     when all of them are occupied by uncommitted instructions);
   - reservation-station issue: any dispatched instruction whose source
     producers have completed may begin execution, oldest first, up to
     [issue] per cycle (functional units are unlimited and fully
     pipelined, as in the in-order model);
   - memory operations issue in program order among themselves (no
     disambiguation or forwarding is modeled);
   - perfect branch prediction with a one-cycle taken-branch redirect,
     exactly the in-order front end;
   - in-order commit, up to [issue] per cycle, freeing the physical
     register at commit.

   The timing model is trace-driven: each instruction executes
   functionally at dispatch, in program order, so the architectural
   results (outputs, array contents, dynamic instruction count) are
   bit-identical to [Sim.run] on the same program by construction — the
   conformance tests in test/t_ooo pin this. Physical registers are
   therefore a pure resource counter: values flow through the
   architectural state, and the timing machinery only tracks *when* each
   in-flight producer completes.

   Stall attribution mirrors lib/sim's: every one of the
   [cycles * issue] dispatch slots either dispatched an instruction or
   is charged to exactly one cause, so the categories sum to
   [cycles * issue - dyn_insns] by construction (the conservation
   invariant, checked by the tier-1 tests). *)

open Impact_ir
module Sim = Impact_sim.Sim

let errf fmt = Printf.ksprintf (fun s -> raise (Sim.Error s)) fmt

(* ---- Dispatch-slot accounting ---- *)

(* Dispatch stops within a cycle for whichever reason hits first; the
   rest of that cycle's slots are charged to that reason:

   - [o_rob_full]: the reorder buffer is full and its oldest entry has
     issued but not completed — the window is latency/commit-bound;
   - [o_rs_wait]: the reorder buffer is full and its oldest entry has
     not even issued — the window is dataflow-bound, waiting in the
     reservation stations;
   - [o_no_phys]: no free physical register in the destination's class;
   - [o_fetch]: the next instruction is a branch but the cycle's branch
     slots are used up;
   - [o_redirect]: slots after a taken branch (fetch resumes at the
     target next cycle);
   - [o_drain]: the program ran out of instructions — mid-cycle at the
     end, plus whole trailing cycles waiting for the last commits. *)
type profile = {
  o_issue : int;
  o_cycles : int;
  o_dispatched_slots : int;  (* = dyn_insns *)
  o_rob_full : int;
  o_rs_wait : int;
  o_no_phys : int;
  o_fetch : int;
  o_redirect : int;
  o_drain : int;
  o_ilp : int array;  (* o_ilp.(k) = cycles that dispatched exactly k *)
  o_max_rob : int;  (* peak reorder-buffer occupancy *)
  o_insn_dispatches : (Insn.t * int) array;  (* per static instruction *)
}

let empty_slots p = (p.o_cycles * p.o_issue) - p.o_dispatched_slots

let classified_slots p =
  p.o_rob_full + p.o_rs_wait + p.o_no_phys + p.o_fetch + p.o_redirect + p.o_drain

let word = Sim.word

(* ---- Per-instruction timing ----

   Every timing quantity of dynamic instruction i depends only on older
   instructions, so all of them are computed once, when i is dispatched
   in program order (W = issue width, R = reorder-buffer size):

   - dispatch D_i: the first cycle >= D_{i-1} (D_{i-1} + 1 after a taken
     branch or a full group) with a free branch slot for a branch, room
     in the reorder buffer (K_{i-R} <= D_i) and, for a writer, a free
     physical register of its class (K of the class's P-th previous
     writer <= D_i);
   - issue I_i: the first cycle >= max(D_i + 1, the sources' latest
     writers' completion, the previous memory op's issue) in which
     fewer than W older instructions issue. Issue is oldest-ready-first,
     so no younger instruction ever takes an older one's slot;
   - completion C_i = I_i + latency; commit K_i = max(C_i, K_{i-1}), one
     cycle later when W instructions already commit in K_{i-1}.

   Empty dispatch slots are charged in bulk: the rest of the cycle in
   which dispatch stops goes to the first failing check (branch slot,
   reorder buffer, physical registers), and each whole cycle up to D_i
   to the check that holds it back. While the buffer is full its head
   is i - R, so those cycles are [o_rs_wait] before I_{i-R} and
   [o_rob_full] from it on. *)

let run_gen ?(fuel = 400_000_000) ~profile (machine : Machine.t) (p : Prog.t) :
    Sim.result * profile option =
  let rob, phys_regs =
    match machine.Machine.core with
    | Machine.Ooo { rob; phys_regs } -> (rob, phys_regs)
    | Machine.Inorder -> invalid_arg "Ooo.run: machine core is Inorder (use Sim.run)"
  in
  let issue_width = machine.Machine.issue in
  let branch_slots = machine.Machine.branch_slots in
  let flat = Flatten.of_prog p in
  let code = flat.Flatten.code in
  let ncode = Array.length code in
  let nregs = Reg.gen_count p.Prog.ctx.Prog.rgen + 1 in
  let ivals = Array.make nregs 0 in
  let fvals = Array.make nregs 0.0 in
  let mem = Sim.build_mem p in
  let dcode = Sim.decode mem flat in
  let mem_i = mem.Sim.mem_i in
  let mem_f = mem.Sim.mem_f in
  let mem_valid = mem.Sim.valid in
  let mem_isf = mem.Sim.is_float in
  let nmem = Array.length mem_valid in
  let gi (d : Sim.dinsn) k =
    let r = d.Sim.dsrc_reg.(k) in
    if r >= 0 then ivals.(r) else d.Sim.dsrc_imm_i.(k)
  [@@inline]
  in
  let gf (d : Sim.dinsn) k =
    let r = d.Sim.dsrc_reg.(k) in
    if r >= 0 then fvals.(r) else d.Sim.dsrc_imm_f.(k)
  [@@inline]
  in
  let cell_of_addr addr what =
    if addr mod word <> 0 then errf "%s: misaligned address %d" what addr;
    let c = addr / word in
    if c < 0 || c >= nmem || not mem_valid.(c) then
      errf "%s: address %d out of bounds" what addr;
    c
  [@@inline]
  in
  (* Completion cycle of each register's latest writer (0: never
     written, ready from the start). *)
  let done_i = Array.make nregs 0 in
  let done_f = Array.make nregs 0 in
  (* Commit and issue cycles of the last R instructions: when i is
     dispatched, slot [rslot] holds K_{i-R} and I_{i-R}. *)
  let k_ring = Array.make rob 0 in
  let i_ring = Array.make rob 0 in
  let rslot = ref 0 in
  (* Commit cycles of the last P writers per class. The P-th previous
     writer is at least P instructions back, so for P >= R the reorder
     buffer check implies this one and R entries suffice. *)
  let phys = min phys_regs rob in
  let kw_i = Array.make phys 0 in
  let kw_f = Array.make phys 0 in
  let wslot_i = ref 0 in
  let wslot_f = ref 0 in
  (* Issue count per cycle, on a ring tagged by cycle number. A full
     window of R instructions issues within (R + 1) * maxlat cycles of
     the current dispatch, so the live cycles never share a slot. *)
  let maxlat = Array.fold_left (fun a (d : Sim.dinsn) -> max a d.Sim.dlat) 1 dcode in
  let ring_size =
    let rec pow2 n = if n >= (rob + 2) * (maxlat + 2) then n else pow2 (2 * n) in
    pow2 64
  in
  let ring_mask = ring_size - 1 in
  let ring_tag = Array.make ring_size (-1) in
  let ring_cnt = Array.make ring_size 0 in
  let last_mem = ref 0 in  (* issue cycle of the latest memory op *)
  let k_prev = ref (-1) in  (* K_{i-1} *)
  let k_prev_n = ref 0 in  (* commits in cycle K_{i-1} *)
  let cyc = ref 0 in  (* the cycle the next dispatch is tried in *)
  let n = ref 0 in  (* instructions dispatched in it so far *)
  let nb = ref 0 in  (* branches among them *)
  let pc = ref 0 in
  let dyn = ref 0 in
  let c_rob_full = ref 0 in
  let c_rs_wait = ref 0 in
  let c_no_phys = ref 0 in
  let c_fetch = ref 0 in
  let c_redirect = ref 0 in
  let c_drain = ref 0 in
  let max_rob = ref 0 in
  let head = ref 0 in  (* profile: oldest instruction not yet committed *)
  let hslot = ref 0 in
  let ilp = if profile then Array.make (issue_width + 1) 0 else [||] in
  let insn_disp = if profile then Array.make ncode 0 else [||] in
  while !pc < ncode do
    let k = !pc in
    let d = dcode.(k) in
    let need_rob = k_ring.(!rslot) in
    let need_phys =
      if d.Sim.ddst < 0 then 0
      else if d.Sim.ddst_f then kw_f.(!wslot_f)
      else kw_i.(!wslot_i)
    in
    (* -- dispatch cycle D_i -- *)
    if !n > 0 then begin
      let open_slots = issue_width - !n in
      let stop =
        if d.Sim.dbr && !nb >= branch_slots then begin
          c_fetch := !c_fetch + open_slots;
          true
        end
        else if need_rob > !cyc then begin
          if !cyc < i_ring.(!rslot) then c_rs_wait := !c_rs_wait + open_slots
          else c_rob_full := !c_rob_full + open_slots;
          true
        end
        else if need_phys > !cyc then begin
          c_no_phys := !c_no_phys + open_slots;
          true
        end
        else false
      in
      if stop then begin
        if profile then ilp.(!n) <- ilp.(!n) + 1;
        incr cyc;
        n := 0;
        nb := 0
      end
    end;
    if !n = 0 then begin
      (* Whole cycles: a cycle starts with every branch slot free. *)
      if issue_width < 1 || (d.Sim.dbr && branch_slots < 1) then raise Sim.Timeout;
      let c0 = !cyc in
      if need_rob > c0 then begin
        let h = i_ring.(!rslot) in
        c_rs_wait := !c_rs_wait + (issue_width * max 0 (min need_rob h - c0));
        c_rob_full := !c_rob_full + (issue_width * max 0 (need_rob - max c0 h))
      end;
      let c1 = max c0 need_rob in
      if need_phys > c1 then c_no_phys := !c_no_phys + (issue_width * (need_phys - c1));
      let c2 = max c1 need_phys in
      if profile then ilp.(0) <- ilp.(0) + (c2 - c0);
      cyc := c2
    end;
    let dc = !cyc in
    if dc > fuel then raise Sim.Timeout;
    (* -- issue cycle I_i, completion C_i, commit K_i -- *)
    let ready = ref (dc + 1) in
    let ri = d.Sim.drdy_i in
    for s = 0 to Array.length ri - 1 do
      let c = done_i.(ri.(s)) in
      if c > !ready then ready := c
    done;
    let rf = d.Sim.drdy_f in
    for s = 0 to Array.length rf - 1 do
      let c = done_f.(rf.(s)) in
      if c > !ready then ready := c
    done;
    if d.Sim.dmem && !last_mem > !ready then ready := !last_mem;
    let t = ref !ready in
    while
      let s = !t land ring_mask in
      ring_tag.(s) = !t && ring_cnt.(s) >= issue_width
    do
      incr t
    done;
    let iss = !t in
    let s = iss land ring_mask in
    if ring_tag.(s) = iss then ring_cnt.(s) <- ring_cnt.(s) + 1
    else begin
      ring_tag.(s) <- iss;
      ring_cnt.(s) <- 1
    end;
    if d.Sim.dmem then last_mem := iss;
    let cmp = iss + d.Sim.dlat in
    let kc =
      if cmp > !k_prev then begin
        k_prev_n := 1;
        cmp
      end
      else if !k_prev_n < issue_width then begin
        incr k_prev_n;
        !k_prev
      end
      else begin
        k_prev_n := 1;
        !k_prev + 1
      end
    in
    k_prev := kc;
    if profile then begin
      (* Occupancy after dispatch: instructions head..i, where head is
         the oldest one that has not committed by D_i. *)
      while !head < !dyn && k_ring.(!hslot) <= dc do
        incr head;
        hslot := if !hslot + 1 = rob then 0 else !hslot + 1
      done;
      if !dyn + 1 - !head > !max_rob then max_rob := !dyn + 1 - !head;
      insn_disp.(k) <- insn_disp.(k) + 1
    end;
    k_ring.(!rslot) <- kc;
    i_ring.(!rslot) <- iss;
    rslot := if !rslot + 1 = rob then 0 else !rslot + 1;
    if d.Sim.ddst >= 0 then
      if d.Sim.ddst_f then begin
        done_f.(d.Sim.ddst) <- cmp;
        kw_f.(!wslot_f) <- kc;
        wslot_f := if !wslot_f + 1 = phys then 0 else !wslot_f + 1
      end
      else begin
        done_i.(d.Sim.ddst) <- cmp;
        kw_i.(!wslot_i) <- kc;
        wslot_i := if !wslot_i + 1 = phys then 0 else !wslot_i + 1
      end;
    incr dyn;
    incr n;
    if d.Sim.dbr then incr nb;
    (* -- functional execution, mirroring lib/sim's fast path -- *)
    let taken =
      match d.Sim.dop with
      | Insn.IBin op ->
        let a = gi d 0 in
        let b = gi d 1 in
        let v =
          match op with
          | Insn.Add -> a + b
          | Insn.Sub -> a - b
          | Insn.Mul -> a * b
          | Insn.Div -> if b = 0 then errf "division by zero" else a / b
          | Insn.Rem -> if b = 0 then errf "remainder by zero" else a mod b
          | Insn.Shl -> a lsl b
          | Insn.Shr -> a asr b
          | Insn.And -> a land b
          | Insn.Or -> a lor b
          | Insn.Xor -> a lxor b
        in
        ivals.(d.Sim.ddst) <- v;
        false
      | Insn.FBin op ->
        let a = gf d 0 in
        let b = gf d 1 in
        let v =
          match op with
          | Insn.Fadd -> a +. b
          | Insn.Fsub -> a -. b
          | Insn.Fmul -> a *. b
          | Insn.Fdiv -> a /. b
        in
        fvals.(d.Sim.ddst) <- v;
        false
      | Insn.IMov ->
        ivals.(d.Sim.ddst) <- gi d 0;
        false
      | Insn.FMov ->
        fvals.(d.Sim.ddst) <- gf d 0;
        false
      | Insn.ItoF ->
        fvals.(d.Sim.ddst) <- float_of_int (gi d 0);
        false
      | Insn.FtoI ->
        ivals.(d.Sim.ddst) <- int_of_float (Float.trunc (gf d 0));
        false
      | Insn.Load cls ->
        let addr = gi d 0 + gi d 1 + gi d 2 in
        let c = cell_of_addr addr "load" in
        (match cls with
        | Reg.Int ->
          if mem_isf.(c) then errf "int load from float cell %d" addr;
          ivals.(d.Sim.ddst) <- mem_i.(c)
        | Reg.Float ->
          if not mem_isf.(c) then errf "float load from int cell %d" addr;
          fvals.(d.Sim.ddst) <- mem_f.(c));
        false
      | Insn.Store cls ->
        let addr = gi d 0 + gi d 1 + gi d 2 in
        let c = cell_of_addr addr "store" in
        (match cls with
        | Reg.Int ->
          if mem_isf.(c) then errf "int store to float cell %d" addr;
          mem_i.(c) <- gi d 3
        | Reg.Float ->
          if not mem_isf.(c) then errf "float store to int cell %d" addr;
          mem_f.(c) <- gf d 3);
        false
      | Insn.Br (cls, c) -> (
        match cls with
        | Reg.Int -> Insn.eval_icmp c (gi d 0) (gi d 1)
        | Reg.Float -> Insn.eval_fcmp c (gf d 0) (gf d 1))
      | Insn.Jmp -> true
    in
    if taken then begin
      pc := d.Sim.dtarget;
      (* fetch resumes at the target next cycle *)
      c_redirect := !c_redirect + (issue_width - !n)
    end
    else incr pc;
    if taken || !n = issue_width then begin
      if profile then ilp.(!n) <- ilp.(!n) + 1;
      incr cyc;
      n := 0;
      nb := 0
    end
  done;
  (* Out of instructions: the rest of the last dispatch cycle and every
     cycle up to the last commit drain. *)
  if !n > 0 then begin
    c_drain := !c_drain + (issue_width - !n);
    if profile then ilp.(!n) <- ilp.(!n) + 1;
    incr cyc
  end;
  let cycles = if !dyn = 0 then 0 else !k_prev + 1 in
  if cycles > 0 && cycles - 1 > fuel then raise Sim.Timeout;
  c_drain := !c_drain + (issue_width * (cycles - !cyc));
  if profile then ilp.(0) <- ilp.(0) + (cycles - !cyc);
  let outputs, arrays_out = Sim.collect p mem ivals fvals in
  let result = { Sim.cycles; dyn_insns = !dyn; outputs; arrays_out } in
  let prof =
    if profile then
      Some
        {
          o_issue = issue_width;
          o_cycles = cycles;
          o_dispatched_slots = !dyn;
          o_rob_full = !c_rob_full;
          o_rs_wait = !c_rs_wait;
          o_no_phys = !c_no_phys;
          o_fetch = !c_fetch;
          o_redirect = !c_redirect;
          o_drain = !c_drain;
          o_ilp = ilp;
          o_max_rob = !max_rob;
          o_insn_dispatches = Array.mapi (fun k c -> (code.(k), c)) insn_disp;
        }
    else None
  in
  (result, prof)

let run ?fuel (machine : Machine.t) (p : Prog.t) : Sim.result =
  Impact_obs.Obs.span ~cat:"sim" "ooo.run" (fun () ->
    fst (run_gen ?fuel ~profile:false machine p))

let run_profiled ?fuel (machine : Machine.t) (p : Prog.t) : Sim.result * profile =
  Impact_obs.Obs.span ~cat:"sim" "ooo.run" (fun () ->
    match run_gen ?fuel ~profile:true machine p with
    | r, Some prof -> (r, prof)
    | _, None -> assert false)
