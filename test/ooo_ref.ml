(* Reference out-of-order core for the differential tests: the
   cycle-stepped formulation that [Ooo.run] replaced. Every cycle it
   commits up to [issue] completed entries from the head of a circular
   reorder buffer, scans the linked list of un-issued entries in
   program order and issues the ready ones oldest first, then renames
   and dispatches up to [issue] instructions, charging each cycle's
   empty dispatch slots as it goes. Same machine and the same
   functional semantics, but it reads each [Insn.t]'s operands itself,
   as [Sim.run_ref] does, rather than through [Sim]'s decoder, so its
   results, profiles and errors must equal [Sim.run_profiled]'s
   exactly and a decoder bug shows as a difference. *)

open Impact_ir
module Sim = Impact_sim.Sim

let errf fmt = Printf.ksprintf (fun s -> raise (Sim.Error s)) fmt

let word = Sim.word

(* The maximum number of register sources any opcode has (Store: base,
   offset and value). *)
let max_srcs = 4

let run_gen ?(fuel = 400_000_000) ~profile (machine : Machine.t) (p : Prog.t) :
    Sim.result * Sim.profile option =
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
  let targets =
    Array.map (fun i -> if Insn.is_branch i then Flatten.target_index flat i else -1) code
  in
  let base_of lab =
    match List.assoc_opt lab mem.Sim.bases with
    | Some b -> b
    | None -> errf "unknown array label %s" lab
  in
  let gi (o : Operand.t) =
    match o with
    | Operand.Reg r ->
      if r.Reg.cls <> Reg.Int then errf "float register %s in int context" (Reg.to_string r);
      ivals.(r.Reg.id)
    | Operand.Int n -> n
    | Operand.Lab s -> base_of s
    | Operand.Flt _ -> errf "float immediate in int context"
  in
  let gf (o : Operand.t) =
    match o with
    | Operand.Reg r ->
      if r.Reg.cls <> Reg.Float then errf "int register %s in float context" (Reg.to_string r);
      fvals.(r.Reg.id)
    | Operand.Flt x -> x
    | Operand.Int n -> float_of_int n
    | Operand.Lab _ -> errf "label in float context"
  in
  (* The register [i] writes, in class [cls]. *)
  let dst (i : Insn.t) cls =
    match i.Insn.dst with
    | Some r ->
      if r.Reg.cls <> cls then errf "class mismatch writing %s" (Reg.to_string r);
      r.Reg.id
    | None -> errf "instruction %d lacks destination" i.Insn.id
  in
  (* [mem.kind] bytes: '\000' an unmapped guard word, '\001' an int
     cell, '\002' a float cell. *)
  let cell_of_addr addr what =
    if addr mod word <> 0 then errf "%s: misaligned address %d" what addr;
    let c = addr / word in
    if c < 0 || c >= Bytes.length mem.kind || Bytes.get mem.kind c = '\000' then
      errf "%s: address %d out of bounds" what addr;
    c
  in
  (* Execute [i] functionally; returns whether control transfers to its
     target. *)
  let step (i : Insn.t) =
    let src k = i.Insn.srcs.(k) in
    match i.Insn.op with
    | Insn.IBin op ->
      let a = gi (src 0) in
      let b = gi (src 1) in
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
      ivals.(dst i Reg.Int) <- v;
      false
    | Insn.FBin op ->
      let a = gf (src 0) in
      let b = gf (src 1) in
      fvals.(dst i Reg.Float) <- Insn.eval_fbin op a b;
      false
    | Insn.IMov ->
      ivals.(dst i Reg.Int) <- gi (src 0);
      false
    | Insn.FMov ->
      fvals.(dst i Reg.Float) <- gf (src 0);
      false
    | Insn.ItoF ->
      fvals.(dst i Reg.Float) <- float_of_int (gi (src 0));
      false
    | Insn.FtoI ->
      ivals.(dst i Reg.Int) <- int_of_float (Float.trunc (gf (src 0)));
      false
    | Insn.Load cls ->
      let addr = gi (src 0) + gi (src 1) + gi (src 2) in
      let c = cell_of_addr addr "load" in
      (match cls with
      | Reg.Int ->
        if Bytes.get mem.kind c <> '\001' then errf "int load from float cell %d" addr;
        ivals.(dst i Reg.Int) <- mem.mem_i.(c)
      | Reg.Float ->
        if Bytes.get mem.kind c <> '\002' then errf "float load from int cell %d" addr;
        fvals.(dst i Reg.Float) <- mem.mem_f.(c));
      false
    | Insn.Store cls ->
      let addr = gi (src 0) + gi (src 1) + gi (src 2) in
      let c = cell_of_addr addr "store" in
      (match cls with
      | Reg.Int ->
        if Bytes.get mem.kind c <> '\001' then errf "int store to float cell %d" addr;
        mem.mem_i.(c) <- gi (src 3)
      | Reg.Float ->
        if Bytes.get mem.kind c <> '\002' then errf "float store to int cell %d" addr;
        mem.mem_f.(c) <- gf (src 3));
      false
    | Insn.Br (Reg.Int, c) -> Insn.eval_icmp c (gi (src 0)) (gi (src 1))
    | Insn.Br (Reg.Float, c) -> Insn.eval_fcmp c (gf (src 0)) (gf (src 1))
    | Insn.Jmp -> true
  in
  (* Rename table: the sequence number of the in-flight producer of each
     architectural register, or -1 when the latest value has committed
     (then the source is ready immediately). *)
  let prod_i = Array.make nregs (-1) in
  let prod_f = Array.make nregs (-1) in
  (* Physical register free counts (P6-style: one allocated per renamed
     destination at dispatch, freed at commit). *)
  let free_int = ref phys_regs in
  let free_float = ref phys_regs in
  (* Reorder buffer: a circular queue of consecutive sequence numbers;
     the entry for sequence s lives in slot [s mod rob] while in
     flight. *)
  let rb_issued = Array.make rob false in
  let rb_complete = Array.make rob 0 in
  let rb_lat = Array.make rob 0 in
  let rb_dst = Array.make rob (-1) in
  let rb_dst_f = Array.make rob false in
  let rb_mem = Array.make rob false in
  let rb_src = Array.make (rob * max_srcs) (-1) in
  let rb_nsrc = Array.make rob 0 in
  (* Un-issued entries as a doubly-linked list of slots in program
     order, so the issue scan touches only waiting instructions. *)
  let un_next = Array.make rob (-1) in
  let un_prev = Array.make rob (-1) in
  let un_head = ref (-1) in
  let un_tail = ref (-1) in
  let un_append s =
    un_next.(s) <- -1;
    un_prev.(s) <- !un_tail;
    if !un_tail >= 0 then un_next.(!un_tail) <- s else un_head := s;
    un_tail := s
  in
  let un_remove s =
    let p = un_prev.(s) and n = un_next.(s) in
    if p >= 0 then un_next.(p) <- n else un_head := n;
    if n >= 0 then un_prev.(n) <- p else un_tail := p
  in
  let head_seq = ref 0 in
  let next_seq = ref 0 in
  let count = ref 0 in
  let pc = ref 0 in
  let cycle = ref 0 in
  let dyn = ref 0 in
  (* Profile accumulators (allocated small even when off). *)
  let c_rob_full = ref 0 in
  let c_rs_wait = ref 0 in
  let c_no_phys = ref 0 in
  let c_fetch = ref 0 in
  let c_redirect = ref 0 in
  let c_drain = ref 0 in
  let max_rob = ref 0 in
  let ilp = if profile then Array.make (issue_width + 1) 0 else [||] in
  let insn_disp = if profile then Array.make ncode 0 else [||] in
  while !count > 0 || !pc < ncode do
    if !cycle > fuel then raise Sim.Timeout;
    let cyc = !cycle in
    (* -- commit: up to [issue] completed entries, oldest first -- *)
    let committed = ref 0 in
    let continue_commit = ref true in
    while !continue_commit && !committed < issue_width && !count > 0 do
      let s = !head_seq mod rob in
      if rb_issued.(s) && rb_complete.(s) <= cyc then begin
        let d = rb_dst.(s) in
        if d >= 0 then begin
          if rb_dst_f.(s) then begin
            incr free_float;
            if prod_f.(d) = !head_seq then prod_f.(d) <- -1
          end
          else begin
            incr free_int;
            if prod_i.(d) = !head_seq then prod_i.(d) <- -1
          end
        end;
        incr head_seq;
        decr count;
        incr committed
      end
      else continue_commit := false
    done;
    (* -- issue: up to [issue] ready entries, oldest first; memory
       operations keep program order among themselves -- *)
    let to_issue = ref issue_width in
    let mem_blocked = ref false in
    let s = ref !un_head in
    while !to_issue > 0 && !s >= 0 do
      let sl = !s in
      let nxt = un_next.(sl) in
      let ready = ref true in
      let base = sl * max_srcs in
      for j = 0 to rb_nsrc.(sl) - 1 do
        let q = rb_src.(base + j) in
        if q >= !head_seq then begin
          (* producer still in flight *)
          let qs = q mod rob in
          if (not rb_issued.(qs)) || rb_complete.(qs) > cyc then ready := false
        end
      done;
      if !ready && ((not rb_mem.(sl)) || not !mem_blocked) then begin
        rb_issued.(sl) <- true;
        rb_complete.(sl) <- cyc + rb_lat.(sl);
        un_remove sl;
        decr to_issue
      end
      else if rb_mem.(sl) then mem_blocked := true;
      s := nxt
    done;
    (* -- dispatch/rename: program order, functional execution.
       Resource checks in a fixed order — branch slots, reorder buffer,
       physical registers — and whichever stops dispatch first is
       charged the rest of the cycle's slots. -- *)
    let dispatched = ref 0 in
    let branches = ref 0 in
    let continue_dispatch = ref true in
    while !continue_dispatch && !dispatched < issue_width do
      let open_slots = issue_width - !dispatched in
      if !pc >= ncode then begin
        c_drain := !c_drain + open_slots;
        continue_dispatch := false
      end
      else begin
        let k = !pc in
        let i = code.(k) in
        let is_br = Insn.is_branch i in
        (* The destination register and its class, when [i] writes one. *)
        let wr, wr_f =
          match i.Insn.dst, Insn.result_cls i with
          | Some r, Some cls -> (r.Reg.id, cls = Reg.Float)
          | _ -> (-1, false)
        in
        if is_br && !branches >= branch_slots then begin
          c_fetch := !c_fetch + open_slots;
          continue_dispatch := false
        end
        else if !count = rob then begin
          if rb_issued.(!head_seq mod rob) then c_rob_full := !c_rob_full + open_slots
          else c_rs_wait := !c_rs_wait + open_slots;
          continue_dispatch := false
        end
        else if wr >= 0 && (if wr_f then !free_float = 0 else !free_int = 0) then begin
          c_no_phys := !c_no_phys + open_slots;
          continue_dispatch := false
        end
        else begin
          (* allocate the reorder-buffer entry and rename *)
          let seq = !next_seq in
          let sl = seq mod rob in
          rb_issued.(sl) <- false;
          rb_lat.(sl) <- Machine.latency i.Insn.op;
          rb_dst.(sl) <- wr;
          rb_dst_f.(sl) <- wr_f;
          rb_mem.(sl) <- Insn.is_mem i;
          let nsrc = ref 0 in
          let base = sl * max_srcs in
          Array.iter
            (fun (o : Operand.t) ->
              match o with
              | Operand.Reg r ->
                let q =
                  match r.Reg.cls with Reg.Int -> prod_i.(r.Reg.id) | Reg.Float -> prod_f.(r.Reg.id)
                in
                if q >= 0 then begin
                  rb_src.(base + !nsrc) <- q;
                  incr nsrc
                end
              | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> ())
            i.Insn.srcs;
          rb_nsrc.(sl) <- !nsrc;
          un_append sl;
          if wr >= 0 then begin
            if wr_f then begin
              decr free_float;
              prod_f.(wr) <- seq
            end
            else begin
              decr free_int;
              prod_i.(wr) <- seq
            end
          end;
          incr next_seq;
          incr count;
          if !count > !max_rob then max_rob := !count;
          incr dyn;
          incr dispatched;
          if is_br then incr branches;
          if profile then insn_disp.(k) <- insn_disp.(k) + 1;
          if step i then begin
            pc := targets.(k);
            c_redirect := !c_redirect + (issue_width - !dispatched);
            continue_dispatch := false
          end
          else incr pc
        end
      end
    done;
    if profile then ilp.(!dispatched) <- ilp.(!dispatched) + 1;
    incr cycle
  done;
  let outputs, arrays_out = Sim.collect p mem ivals fvals in
  let result = { Sim.cycles = !cycle; dyn_insns = !dyn; outputs; arrays_out } in
  let prof =
    if profile then
      Some
        {
          Sim.p_issue = issue_width;
          p_cycles = !cycle;
          p_filled = !dyn;
          p_stalls =
            [
              (Sim.Rob_full, !c_rob_full);
              (Rs_wait, !c_rs_wait);
              (No_phys, !c_no_phys);
              (Branch_limit, !c_fetch);
              (Redirect, !c_redirect);
              (Drain, !c_drain);
            ];
          p_ilp = ilp;
          p_insn_counts = Array.mapi (fun k c -> (code.(k), c)) insn_disp;
          p_max_rob = Some !max_rob;
        }
    else None
  in
  (result, prof)


let run_profiled ?fuel (machine : Machine.t) (p : Prog.t) : Sim.result * Sim.profile =
  match run_gen ?fuel ~profile:true machine p with
  | r, Some prof -> (r, prof)
  | _, None -> assert false
