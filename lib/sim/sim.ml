(* Execution-driven simulation (paper Section 3.1): an in-order
   superscalar/VLIW processor with register interlocking, deterministic
   latencies (Table 1), a 100% cache hit rate, and an unbounded register
   file. Up to [issue] instructions issue per cycle, at most
   [branch_slots] of them branches; an instruction issues only when all
   its source registers are ready (interlock), and issue is strictly
   in order. A taken branch redirects fetch starting the next cycle.

   The simulator is also the semantic reference: it executes the program
   functionally, so transformed programs can be checked against their
   baselines for identical observable behaviour.

   Two execution paths share the machine model:

   - [run_ref] walks the structured [Insn.t] stream directly, matching
     operands on every dynamic instruction. It supports the [trace]
     hook and serves as the reference implementation.
   - [run] first decodes each static instruction into a flat execution
     record — operand kinds resolved to register indices or immediate
     values, array labels resolved to base addresses, branch targets to
     code indices, the latency attached — so the
     per-dynamic-instruction path performs no list lookups, no operand
     matching, no closure dispatch and no trace checks.

   The decoded engine drives both cores: one set-up ([start]) and one
   instruction step ([exec]) feed the in-order timing loop and the
   out-of-order one ([Ooo]), and [run] picks the loop by the machine's
   [core]. *)

open Impact_ir

exception Error of string

exception Timeout

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type value = VI of int | VF of float

type result = {
  cycles : int;
  dyn_insns : int;
  outputs : (string * value) list;
  arrays_out : (string * float array) list;
}

let value_to_string = function
  | VI n -> string_of_int n
  | VF x -> Printf.sprintf "%.9g" x

(* Word size in address units: element k of an array lives at
   base + 4k, matching the paper's address arithmetic. *)
let word = 4

let gap_words = 16

type mem = {
  mem_i : int array;
  mem_f : float array;
  valid : bool array;
  is_float : bool array;
  bases : (string * int) list;
}

let build_mem (p : Prog.t) : mem =
  let total =
    List.fold_left (fun acc a -> acc + a.Prog.asize + gap_words) gap_words p.Prog.arrays
  in
  let mem_i = Array.make total 0 in
  let mem_f = Array.make total 0.0 in
  let valid = Array.make total false in
  let is_float = Array.make total false in
  let next = ref gap_words in
  let bases =
    List.map
      (fun (a : Prog.adecl) ->
        let base = !next in
        (match a.Prog.ainit with
        | Prog.IInit vs ->
          Array.iteri
            (fun k v ->
              mem_i.(base + k) <- v;
              valid.(base + k) <- true)
            vs
        | Prog.FInit vs ->
          Array.iteri
            (fun k v ->
              mem_f.(base + k) <- v;
              valid.(base + k) <- true;
              is_float.(base + k) <- true)
            vs);
        next := base + a.Prog.asize + gap_words;
        (a.Prog.aname, base * word))
      p.Prog.arrays
  in
  { mem_i; mem_f; valid; is_float; bases }

(* Observables after execution, shared by both paths. *)
let collect (p : Prog.t) (mem : mem) ivals fvals : (string * value) list * (string * float array) list =
  let outputs =
    List.map
      (fun (name, r) ->
        ( name,
          match r.Reg.cls with
          | Reg.Int -> VI ivals.(r.Reg.id)
          | Reg.Float -> VF fvals.(r.Reg.id) ))
      p.Prog.outputs
  in
  let arrays_out =
    List.map
      (fun (a : Prog.adecl) ->
        let base = List.assoc a.Prog.aname mem.bases / word in
        let contents =
          Array.init a.Prog.asize (fun k ->
            if mem.is_float.(base + k) then mem.mem_f.(base + k)
            else float_of_int mem.mem_i.(base + k))
        in
        (a.Prog.aname, contents))
      p.Prog.arrays
  in
  (outputs, arrays_out)

let default_fuel = 400_000_000

(* ---- Slot accounting (stall attribution) ---- *)

(* A profiled run classifies every one of its [p_cycles * p_issue] slots
   (issue slots in order, dispatch slots out of order): [p_filled] of
   them took an instruction and each empty one is charged to exactly one
   cause, so the causes sum to [empty_slots] by construction (checked by
   the tier-1 tests). Either core stops filling a cycle for whichever
   reason hits first and charges the rest of the cycle to it, which is
   why one cause per cycle suffices. *)
type cause =
  | Interlock of int
      (* in order: the next instruction waits on a result, keyed by the
         latency class of the op producing it *)
  | Branch_limit  (* the cycle's branch slots are used up *)
  | Redirect  (* slots emptied after a taken branch *)
  | Drain  (* program ran out of instructions / final writebacks or commits *)
  | Rob_full  (* out of order: reorder buffer full, oldest entry executing *)
  | Rs_wait  (* reorder buffer full, oldest entry still waiting on operands *)
  | No_phys  (* no free physical register in the destination's class *)

type profile = {
  p_issue : int;
  p_cycles : int;
  p_filled : int;  (* = dyn_insns *)
  p_stalls : (cause * int) list;
  p_ilp : int array;  (* p_ilp.(k) = cycles that filled exactly k slots *)
  p_insn_counts : (Insn.t * int) array;  (* per static instruction *)
  p_max_rob : int option;  (* peak reorder-buffer occupancy, out of order *)
}

let empty_slots p = (p.p_cycles * p.p_issue) - p.p_filled

let classified_slots p = List.fold_left (fun acc (_, n) -> acc + n) 0 p.p_stalls

(* Largest Table 1 latency; bounds the interlock histogram. *)
let max_latency = List.fold_left (fun acc (_, l) -> max acc l) 1 Machine.table1_rows

(* Mutable accumulator threaded through a profiled run of either core.
   The in-order core charges [ps_interlock] and remembers in [ps_iprod] /
   [ps_fprod] the latency of the op that last wrote each register, so an
   interlock can be attributed to its producer's latency class (the
   paper's Fig. 8 mechanism: renaming and expansion remove exactly these
   waits); the out-of-order core charges the window causes and tracks
   [ps_max_rob]. *)
type pstate = {
  ps_interlock : int array;
  mutable ps_blimit : int;
  mutable ps_redirect : int;
  mutable ps_drain : int;
  mutable ps_rob_full : int;
  mutable ps_rs_wait : int;
  mutable ps_no_phys : int;
  mutable ps_max_rob : int;
  ps_ilp : int array;
  ps_insn : int array;
  ps_iprod : int array;
  ps_fprod : int array;
}

let make_pstate ~issue ~ncode ~nregs =
  {
    ps_interlock = Array.make (max_latency + 1) 0;
    ps_blimit = 0;
    ps_redirect = 0;
    ps_drain = 0;
    ps_rob_full = 0;
    ps_rs_wait = 0;
    ps_no_phys = 0;
    ps_max_rob = 0;
    ps_ilp = Array.make (issue + 1) 0;
    ps_insn = Array.make ncode 0;
    ps_iprod = Array.make nregs 0;
    ps_fprod = Array.make nregs 0;
  }

(* The profile of a run that filled its last slot in cycle [last - 1]
   and ended at [cycles]: the trailing cycles, waiting for the last
   writebacks or commits, drain. In order, the interlock rows come
   ascending with zero rows elided; out of order, the window causes come
   first. *)
let profile_of_pstate (s : pstate) (machine : Machine.t) ~last ~cycles ~dyn
    (code : Insn.t array) : profile =
  let issue = machine.Machine.issue in
  s.ps_drain <- s.ps_drain + ((cycles - last) * issue);
  s.ps_ilp.(0) <- s.ps_ilp.(0) + (cycles - last);
  let shared =
    [ (Branch_limit, s.ps_blimit); (Redirect, s.ps_redirect); (Drain, s.ps_drain) ]
  in
  let stalls, max_rob =
    match machine.Machine.core with
    | Machine.Inorder ->
      let rows = ref [] in
      Array.iteri
        (fun lat n -> if n > 0 then rows := (Interlock lat, n) :: !rows)
        s.ps_interlock;
      (List.rev_append !rows shared, None)
    | Machine.Ooo _ ->
      ( (Rob_full, s.ps_rob_full) :: (Rs_wait, s.ps_rs_wait) :: (No_phys, s.ps_no_phys)
        :: shared,
        Some s.ps_max_rob )
  in
  {
    p_issue = issue;
    p_cycles = cycles;
    p_filled = dyn;
    p_stalls = stalls;
    p_ilp = s.ps_ilp;
    p_insn_counts = Array.mapi (fun k c -> (code.(k), c)) s.ps_insn;
    p_max_rob = max_rob;
  }

(* ---- Reference interpreter (also the traced path) ---- *)

let run_ref_gen ?(fuel = default_fuel) ?trace ~profile (machine : Machine.t) (p : Prog.t)
    : result * profile option =
  let flat = Flatten.of_prog p in
  let code = flat.Flatten.code in
  let ncode = Array.length code in
  (* Pre-resolve branch targets. *)
  let targets =
    Array.map
      (fun i -> if Insn.is_branch i then Flatten.target_index flat i else -1)
      code
  in
  let nregs = Reg.gen_count p.Prog.ctx.Prog.rgen + 1 in
  let ps = if profile then Some (make_pstate ~issue:machine.Machine.issue ~ncode ~nregs) else None in
  let ivals = Array.make nregs 0 in
  let fvals = Array.make nregs 0.0 in
  let iready = Array.make nregs 0 in
  let fready = Array.make nregs 0 in
  let mem = build_mem p in
  let base_of lab =
    match List.assoc_opt lab mem.bases with
    | Some b -> b
    | None -> errf "unknown array label %s" lab
  in
  let int_of_operand (o : Operand.t) =
    match o with
    | Operand.Reg r ->
      if r.Reg.cls <> Reg.Int then errf "float register %s in int context" (Reg.to_string r);
      ivals.(r.Reg.id)
    | Operand.Int n -> n
    | Operand.Lab s -> base_of s
    | Operand.Flt _ -> errf "float immediate in int context"
  in
  let flt_of_operand (o : Operand.t) =
    match o with
    | Operand.Reg r ->
      if r.Reg.cls <> Reg.Float then errf "int register %s in float context" (Reg.to_string r);
      fvals.(r.Reg.id)
    | Operand.Flt x -> x
    | Operand.Int n -> float_of_int n
    | Operand.Lab _ -> errf "label in float context"
  in
  let ready_of (o : Operand.t) =
    match o with
    | Operand.Reg r ->
      if r.Reg.cls = Reg.Int then iready.(r.Reg.id) else fready.(r.Reg.id)
    | Operand.Int _ | Operand.Flt _ | Operand.Lab _ -> 0
  in
  let cell_of_addr addr what =
    if addr mod word <> 0 then errf "%s: misaligned address %d" what addr;
    let c = addr / word in
    if c < 0 || c >= Array.length mem.valid || not mem.valid.(c) then
      errf "%s: address %d out of bounds" what addr;
    c
  in
  let write_reg r v cycle lat =
    (match r.Reg.cls, v with
    | Reg.Int, VI n ->
      ivals.(r.Reg.id) <- n;
      iready.(r.Reg.id) <- cycle + lat
    | Reg.Float, VF x ->
      fvals.(r.Reg.id) <- x;
      fready.(r.Reg.id) <- cycle + lat
    | Reg.Int, VF _ | Reg.Float, VI _ -> errf "class mismatch writing %s" (Reg.to_string r));
    (match ps with
    | Some s -> (
      match r.Reg.cls with
      | Reg.Int -> s.ps_iprod.(r.Reg.id) <- lat
      | Reg.Float -> s.ps_fprod.(r.Reg.id) <- lat)
    | None -> ());
    ()
  in
  let icmp c a b =
    match c with
    | Insn.Lt -> a < b
    | Insn.Le -> a <= b
    | Insn.Gt -> a > b
    | Insn.Ge -> a >= b
    | Insn.Eq -> a = b
    | Insn.Ne -> a <> b
  in
  let fcmp c a b =
    match c with
    | Insn.Lt -> a < b
    | Insn.Le -> a <= b
    | Insn.Gt -> a > b
    | Insn.Ge -> a >= b
    | Insn.Eq -> a = b
    | Insn.Ne -> a <> b
  in
  let pc = ref 0 in
  let cycle = ref 0 in
  let dyn = ref 0 in
  let last_writeback = ref 0 in
  let running = ref true in
  (* Producer latency of the first unready source, in operand order:
     the register the in-order interlock is actually waiting on. *)
  let blocking_lat (s : pstate) (i : Insn.t) =
    let lat = ref 0 in
    (try
       Array.iter
         (fun o ->
           match o with
           | Operand.Reg r when ready_of o > !cycle ->
             (lat :=
                match r.Reg.cls with
                | Reg.Int -> s.ps_iprod.(r.Reg.id)
                | Reg.Float -> s.ps_fprod.(r.Reg.id));
             raise Exit
           | _ -> ())
         i.Insn.srcs
     with Exit -> ());
    !lat
  in
  while !running && !pc < ncode do
    if !cycle > fuel then raise Timeout;
    let issued = ref 0 in
    let branches = ref 0 in
    let stall = ref false in
    while (not !stall) && !issued < machine.Machine.issue && !pc < ncode do
      let k = !pc in
      let i = code.(k) in
      (* Interlock: all register sources must be ready. *)
      let regs_ready = Array.for_all (fun o -> ready_of o <= !cycle) i.Insn.srcs in
      let ready =
        regs_ready
        && (not (Insn.is_branch i) || !branches < machine.Machine.branch_slots)
      in
      if not ready then begin
        (match ps with
        | Some s ->
          let open_slots = machine.Machine.issue - !issued in
          if not regs_ready then begin
            let lat = blocking_lat s i in
            s.ps_interlock.(lat) <- s.ps_interlock.(lat) + open_slots
          end
          else s.ps_blimit <- s.ps_blimit + open_slots
        | None -> ());
        stall := true
      end
      else begin
        (match trace with Some f -> f i ~cycle:!cycle | None -> ());
        incr dyn;
        incr issued;
        let lat = Machine.latency i.Insn.op in
        if !cycle + lat > !last_writeback then last_writeback := !cycle + lat;
        let dst () =
          match i.Insn.dst with
          | Some r -> r
          | None -> errf "instruction %d lacks destination" i.Insn.id
        in
        (match i.Insn.op with
        | Insn.IBin op ->
          let a = int_of_operand i.Insn.srcs.(0) in
          let b = int_of_operand i.Insn.srcs.(1) in
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
          write_reg (dst ()) (VI v) !cycle lat
        | Insn.FBin op ->
          let a = flt_of_operand i.Insn.srcs.(0) in
          let b = flt_of_operand i.Insn.srcs.(1) in
          let v =
            match op with
            | Insn.Fadd -> a +. b
            | Insn.Fsub -> a -. b
            | Insn.Fmul -> a *. b
            | Insn.Fdiv -> a /. b
          in
          write_reg (dst ()) (VF v) !cycle lat
        | Insn.IMov -> write_reg (dst ()) (VI (int_of_operand i.Insn.srcs.(0))) !cycle lat
        | Insn.FMov -> write_reg (dst ()) (VF (flt_of_operand i.Insn.srcs.(0))) !cycle lat
        | Insn.ItoF ->
          write_reg (dst ()) (VF (float_of_int (int_of_operand i.Insn.srcs.(0)))) !cycle lat
        | Insn.FtoI ->
          write_reg (dst ())
            (VI (int_of_float (Float.trunc (flt_of_operand i.Insn.srcs.(0)))))
            !cycle lat
        | Insn.Load cls ->
          let addr =
            int_of_operand i.Insn.srcs.(0)
            + int_of_operand i.Insn.srcs.(1)
            + int_of_operand i.Insn.srcs.(2)
          in
          let c = cell_of_addr addr "load" in
          let v =
            match cls with
            | Reg.Int ->
              if mem.is_float.(c) then errf "int load from float cell %d" addr;
              VI mem.mem_i.(c)
            | Reg.Float ->
              if not mem.is_float.(c) then errf "float load from int cell %d" addr;
              VF mem.mem_f.(c)
          in
          write_reg (dst ()) v !cycle lat
        | Insn.Store cls ->
          let addr =
            int_of_operand i.Insn.srcs.(0)
            + int_of_operand i.Insn.srcs.(1)
            + int_of_operand i.Insn.srcs.(2)
          in
          let c = cell_of_addr addr "store" in
          (match cls with
          | Reg.Int ->
            if mem.is_float.(c) then errf "int store to float cell %d" addr;
            mem.mem_i.(c) <- int_of_operand i.Insn.srcs.(3)
          | Reg.Float ->
            if not mem.is_float.(c) then errf "float store to int cell %d" addr;
            mem.mem_f.(c) <- flt_of_operand i.Insn.srcs.(3))
        | Insn.Br (cls, c) ->
          incr branches;
          let taken =
            match cls with
            | Reg.Int ->
              icmp c (int_of_operand i.Insn.srcs.(0)) (int_of_operand i.Insn.srcs.(1))
            | Reg.Float ->
              fcmp c (flt_of_operand i.Insn.srcs.(0)) (flt_of_operand i.Insn.srcs.(1))
          in
          if taken then begin
            pc := targets.(k);
            (* Redirected fetch begins next cycle. *)
            stall := true
          end
        | Insn.Jmp ->
          incr branches;
          pc := targets.(k);
          stall := true);
        if not (Insn.is_branch i) then incr pc
        else if not !stall then incr pc (* untaken conditional: fall through *);
        (match ps with
        | Some s ->
          s.ps_insn.(k) <- s.ps_insn.(k) + 1;
          (* A taken branch empties the rest of the cycle. *)
          if !stall then
            s.ps_redirect <- s.ps_redirect + (machine.Machine.issue - !issued)
        | None -> ())
      end
    done;
    (match ps with
    | Some s ->
      s.ps_ilp.(!issued) <- s.ps_ilp.(!issued) + 1;
      if (not !stall) && !issued < machine.Machine.issue then
        (* The program ran out of instructions mid-cycle. *)
        s.ps_drain <- s.ps_drain + (machine.Machine.issue - !issued)
    | None -> ());
    incr cycle;
    if !pc >= ncode then running := false
  done;
  let outputs, arrays_out = collect p mem ivals fvals in
  (* Execution ends when the last in-flight result writes back, not at
     the last issue. *)
  let cycles = max !cycle !last_writeback in
  let prof =
    Option.map (fun s -> profile_of_pstate s machine ~last:!cycle ~cycles ~dyn:!dyn code) ps
  in
  ({ cycles; dyn_insns = !dyn; outputs; arrays_out }, prof)

let run_ref ?fuel ?trace (machine : Machine.t) (p : Prog.t) : result =
  fst (run_ref_gen ?fuel ?trace ~profile:false machine p)

let run_ref_profiled ?fuel (machine : Machine.t) (p : Prog.t) : result * profile =
  match run_ref_gen ?fuel ~profile:true machine p with
  | r, Some prof -> (r, prof)
  | _, None -> assert false

(* ---- The decoded engine ---- *)

(* One static instruction, decoded. Source slot [k] reads register
   [dsrc_reg.(k)] when that is >= 0 (an index into the int or float
   register file, as the opcode's slot context dictates), else the
   immediate in [dsrc_imm_i]/[dsrc_imm_f] (labels already resolved to
   base addresses). [drdy_i]/[drdy_f] list the register indices the
   interlock must check. *)
type dinsn = {
  dop : Insn.op;
  ddst : int;  (* destination register index; -1 when none *)
  ddst_f : bool;  (* destination is a float register *)
  dlat : int;
  dtarget : int;  (* branch target code index; -1 when not a branch *)
  dsrc_reg : int array;
  dsrc_isf : bool array;  (* slot k reads the float register file *)
  dsrc_imm_i : int array;
  dsrc_imm_f : float array;
  drdy_i : int array;
  drdy_f : int array;
  dbr : bool;
  dmem : bool;  (* load or store *)
}

(* Slot contexts implied by an opcode, mirroring the reference
   interpreter's [int_of_operand]/[flt_of_operand] choices. *)
let decode (mem : mem) (flat : Flatten.t) : dinsn array =
  let code = flat.Flatten.code in
  let base_of lab =
    match List.assoc_opt lab mem.bases with
    | Some b -> b
    | None -> errf "unknown array label %s" lab
  in
  let decode_one (i : Insn.t) : dinsn =
    let n = Array.length i.Insn.srcs in
    let dsrc_reg = Array.make n (-1) in
    let dsrc_isf = Array.make n false in
    let dsrc_imm_i = Array.make n 0 in
    let dsrc_imm_f = Array.make n 0.0 in
    let rdy_i = ref [] in
    let rdy_f = ref [] in
    let int_slot k =
      match i.Insn.srcs.(k) with
      | Operand.Reg r ->
        if r.Reg.cls <> Reg.Int then
          errf "float register %s in int context" (Reg.to_string r);
        dsrc_reg.(k) <- r.Reg.id;
        rdy_i := r.Reg.id :: !rdy_i
      | Operand.Int v -> dsrc_imm_i.(k) <- v
      | Operand.Lab s -> dsrc_imm_i.(k) <- base_of s
      | Operand.Flt _ -> errf "float immediate in int context"
    in
    let flt_slot k =
      match i.Insn.srcs.(k) with
      | Operand.Reg r ->
        if r.Reg.cls <> Reg.Float then
          errf "int register %s in float context" (Reg.to_string r);
        dsrc_reg.(k) <- r.Reg.id;
        dsrc_isf.(k) <- true;
        rdy_f := r.Reg.id :: !rdy_f
      | Operand.Flt x -> dsrc_imm_f.(k) <- x
      | Operand.Int v -> dsrc_imm_f.(k) <- float_of_int v
      | Operand.Lab _ -> errf "label in float context"
    in
    let cls_slot cls k = match cls with Reg.Int -> int_slot k | Reg.Float -> flt_slot k in
    (match i.Insn.op with
    | Insn.IBin _ ->
      int_slot 0;
      int_slot 1
    | Insn.FBin _ ->
      flt_slot 0;
      flt_slot 1
    | Insn.IMov | Insn.ItoF -> int_slot 0
    | Insn.FMov | Insn.FtoI -> flt_slot 0
    | Insn.Load _ ->
      int_slot 0;
      int_slot 1;
      int_slot 2
    | Insn.Store cls ->
      int_slot 0;
      int_slot 1;
      int_slot 2;
      cls_slot cls 3
    | Insn.Br (cls, _) ->
      cls_slot cls 0;
      cls_slot cls 1
    | Insn.Jmp -> ());
    let ddst, ddst_f =
      match i.Insn.dst, Insn.result_cls i with
      | Some r, Some cls ->
        if r.Reg.cls <> cls then errf "class mismatch writing %s" (Reg.to_string r);
        (r.Reg.id, cls = Reg.Float)
      | Some _, None -> (-1, false)
      | None, Some _ -> errf "instruction %d lacks destination" i.Insn.id
      | None, None -> (-1, false)
    in
    {
      dop = i.Insn.op;
      ddst;
      ddst_f;
      dlat = Machine.latency i.Insn.op;
      dtarget = (if Insn.is_branch i then Flatten.target_index flat i else -1);
      dsrc_reg;
      dsrc_isf;
      dsrc_imm_i;
      dsrc_imm_f;
      drdy_i = Array.of_list (List.rev !rdy_i);
      drdy_f = Array.of_list (List.rev !rdy_f);
      dbr = Insn.is_branch i;
      dmem = Insn.is_mem i;
    }
  in
  Array.map decode_one code

(* Per-run set-up shared by both decoded loops: the flattened code, its
   decoded records, the initial memory image and the register files. *)
type state = {
  code : Insn.t array;
  dcode : dinsn array;
  mem : mem;
  ivals : int array;
  fvals : float array;
}

let start (p : Prog.t) : state =
  let flat = Flatten.of_prog p in
  let nregs = Reg.gen_count p.Prog.ctx.Prog.rgen + 1 in
  let mem = build_mem p in
  {
    code = flat.Flatten.code;
    dcode = decode mem flat;
    mem;
    ivals = Array.make nregs 0;
    fvals = Array.make nregs 0.0;
  }

let finish (p : Prog.t) (st : state) ~cycles ~dyn : result =
  let outputs, arrays_out = collect p st.mem st.ivals st.fvals in
  { cycles; dyn_insns = dyn; outputs; arrays_out }

(* ---- The instruction step ----

   The semantics of a decoded instruction, written once for both loops.
   These functions must stay top-level, [@inline], free of local
   closures (which keep a function from being inlined) and in this
   module: dune's dev profile compiles every module with -opaque, so a
   step in another module would cost a call per dynamic instruction,
   while these are inlined into each loop. *)

(* Source slot [k] in int / float context. *)
let[@inline] gi ivals d k =
  let r = d.dsrc_reg.(k) in
  if r >= 0 then ivals.(r) else d.dsrc_imm_i.(k)

let[@inline] gf fvals d k =
  let r = d.dsrc_reg.(k) in
  if r >= 0 then fvals.(r) else d.dsrc_imm_f.(k)

let[@inline] cell_of_addr mem addr what =
  if addr mod word <> 0 then errf "%s: misaligned address %d" what addr;
  let c = addr / word in
  if c < 0 || c >= Array.length mem.valid || not mem.valid.(c) then
    errf "%s: address %d out of bounds" what addr;
  c

(* Execute [d]: read its operands, compute, check a memory access's
   alignment, bounds and cell class, and write the result. Returns
   whether control transfers to [d.dtarget]. *)
let[@inline] exec ivals fvals mem d =
  match d.dop with
  | Insn.IBin op ->
    let a = gi ivals d 0 in
    let b = gi ivals d 1 in
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
    ivals.(d.ddst) <- v;
    false
  | Insn.FBin op ->
    let a = gf fvals d 0 in
    let b = gf fvals d 1 in
    let v =
      match op with
      | Insn.Fadd -> a +. b
      | Insn.Fsub -> a -. b
      | Insn.Fmul -> a *. b
      | Insn.Fdiv -> a /. b
    in
    fvals.(d.ddst) <- v;
    false
  | Insn.IMov ->
    ivals.(d.ddst) <- gi ivals d 0;
    false
  | Insn.FMov ->
    fvals.(d.ddst) <- gf fvals d 0;
    false
  | Insn.ItoF ->
    fvals.(d.ddst) <- float_of_int (gi ivals d 0);
    false
  | Insn.FtoI ->
    ivals.(d.ddst) <- int_of_float (Float.trunc (gf fvals d 0));
    false
  | Insn.Load cls ->
    let addr = gi ivals d 0 + gi ivals d 1 + gi ivals d 2 in
    let c = cell_of_addr mem addr "load" in
    (match cls with
    | Reg.Int ->
      if mem.is_float.(c) then errf "int load from float cell %d" addr;
      ivals.(d.ddst) <- mem.mem_i.(c)
    | Reg.Float ->
      if not mem.is_float.(c) then errf "float load from int cell %d" addr;
      fvals.(d.ddst) <- mem.mem_f.(c));
    false
  | Insn.Store cls ->
    let addr = gi ivals d 0 + gi ivals d 1 + gi ivals d 2 in
    let c = cell_of_addr mem addr "store" in
    (match cls with
    | Reg.Int ->
      if mem.is_float.(c) then errf "int store to float cell %d" addr;
      mem.mem_i.(c) <- gi ivals d 3
    | Reg.Float ->
      if not mem.is_float.(c) then errf "float store to int cell %d" addr;
      mem.mem_f.(c) <- gf fvals d 3);
    false
  | Insn.Br (cls, c) -> (
    match cls with
    | Reg.Int -> Insn.eval_icmp c (gi ivals d 0) (gi ivals d 1)
    | Reg.Float -> Insn.eval_fcmp c (gf fvals d 0) (gf fvals d 1))
  | Insn.Jmp -> true

(* ---- In-order timing loop ---- *)

let run_inorder_gen ?(fuel = default_fuel) ~profile (machine : Machine.t) (p : Prog.t) :
    result * profile option =
  let st = start p in
  let { code; dcode; mem; ivals; fvals } = st in
  let ncode = Array.length code in
  let nregs = Array.length ivals in
  let ps = if profile then Some (make_pstate ~issue:machine.Machine.issue ~ncode ~nregs) else None in
  let iready = Array.make nregs 0 in
  let fready = Array.make nregs 0 in
  let issue_width = machine.Machine.issue in
  let branch_slots = machine.Machine.branch_slots in
  (* Producer latency of the first unready source in operand-slot
     order, matching the reference path's [blocking_lat] (the
     [drdy_i]/[drdy_f] arrays group slots by class, so they cannot be
     used here: the classification must agree between both paths). *)
  let blocking_lat_fast (s : pstate) (d : dinsn) cyc =
    let lat = ref 0 in
    (try
       for k = 0 to Array.length d.dsrc_reg - 1 do
         let r = d.dsrc_reg.(k) in
         if r >= 0 then
           if d.dsrc_isf.(k) then begin
             if fready.(r) > cyc then begin
               lat := s.ps_fprod.(r);
               raise Exit
             end
           end
           else if iready.(r) > cyc then begin
             lat := s.ps_iprod.(r);
             raise Exit
           end
       done
     with Exit -> ());
    !lat
  in
  let pc = ref 0 in
  let cycle = ref 0 in
  let dyn = ref 0 in
  let last_writeback = ref 0 in
  let running = ref true in
  while !running && !pc < ncode do
    if !cycle > fuel then raise Timeout;
    let cyc = !cycle in
    let issued = ref 0 in
    let branches = ref 0 in
    let stall = ref false in
    while (not !stall) && !issued < issue_width && !pc < ncode do
      let k = !pc in
      let d = dcode.(k) in
      (* Interlock: all register sources ready, and a branch slot free
         for branches. *)
      let regs_ready =
        let ok = ref true in
        let ri = d.drdy_i in
        for s = 0 to Array.length ri - 1 do
          if iready.(ri.(s)) > cyc then ok := false
        done;
        let rf = d.drdy_f in
        for s = 0 to Array.length rf - 1 do
          if fready.(rf.(s)) > cyc then ok := false
        done;
        !ok
      in
      let ready = regs_ready && ((not d.dbr) || !branches < branch_slots) in
      if not ready then begin
        (match ps with
        | Some s ->
          let open_slots = issue_width - !issued in
          if not regs_ready then begin
            let lat = blocking_lat_fast s d cyc in
            s.ps_interlock.(lat) <- s.ps_interlock.(lat) + open_slots
          end
          else s.ps_blimit <- s.ps_blimit + open_slots
        | None -> ());
        stall := true
      end
      else begin
        incr dyn;
        incr issued;
        let lat = d.dlat in
        if cyc + lat > !last_writeback then last_writeback := cyc + lat;
        let taken = exec ivals fvals mem d in
        if d.ddst >= 0 then
          if d.ddst_f then fready.(d.ddst) <- cyc + lat else iready.(d.ddst) <- cyc + lat;
        if d.dbr then incr branches;
        if taken then begin
          pc := d.dtarget;
          (* Redirected fetch begins next cycle. *)
          stall := true
        end
        else incr pc;
        (match ps with
        | Some s ->
          s.ps_insn.(k) <- s.ps_insn.(k) + 1;
          if d.ddst >= 0 then
            if d.ddst_f then s.ps_fprod.(d.ddst) <- lat
            else s.ps_iprod.(d.ddst) <- lat;
          (* A taken branch empties the rest of the cycle. *)
          if !stall then s.ps_redirect <- s.ps_redirect + (issue_width - !issued)
        | None -> ())
      end
    done;
    (match ps with
    | Some s ->
      s.ps_ilp.(!issued) <- s.ps_ilp.(!issued) + 1;
      if (not !stall) && !issued < issue_width then
        (* The program ran out of instructions mid-cycle. *)
        s.ps_drain <- s.ps_drain + (issue_width - !issued)
    | None -> ());
    incr cycle;
    if !pc >= ncode then running := false
  done;
  let cycles = max !cycle !last_writeback in
  let prof =
    Option.map (fun s -> profile_of_pstate s machine ~last:!cycle ~cycles ~dyn:!dyn code) ps
  in
  (finish p st ~cycles ~dyn:!dyn, prof)

(* ---- Out-of-order timing loop ----

   The [Machine.Ooo] core: the same node processor — Table 1 latencies,
   [issue]-wide, one branch slot, 100% cache hits — but with dynamic
   scheduling:

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
   functionally at dispatch, in program order, through the same [exec]
   as the in-order loop, so the architectural results (outputs, array
   contents, dynamic instruction count, errors) are those of the
   in-order core on the same program by construction — the conformance
   tests in test/t_ooo pin this. Physical registers are therefore a
   pure resource counter: values flow through the architectural state,
   and the timing machinery only tracks *when* each in-flight producer
   completes.

   Stall attribution is the in-order one over dispatch slots: dispatch
   stops within a cycle for whichever reason hits first and the rest of
   that cycle's slots are charged to it —

   - [Rob_full]: the reorder buffer is full and its oldest entry has
     issued but not completed — the window is latency/commit-bound;
   - [Rs_wait]: the reorder buffer is full and its oldest entry has not
     even issued — the window is dataflow-bound, waiting in the
     reservation stations;
   - [No_phys]: no free physical register in the destination's class;
   - [Branch_limit], [Redirect] and [Drain] as in order, [Drain] running
     up to the last commit. *)

(* Every timing quantity of dynamic instruction i depends only on older
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
   is i - R, so those cycles are [Rs_wait] before I_{i-R} and
   [Rob_full] from it on. *)
let run_ooo_gen ?(fuel = default_fuel) ~profile ~rob ~phys_regs (machine : Machine.t)
    (p : Prog.t) : result * profile option =
  let issue_width = machine.Machine.issue in
  let branch_slots = machine.Machine.branch_slots in
  let st = start p in
  let { code; dcode; mem; ivals; fvals } = st in
  let ncode = Array.length code in
  let nregs = Array.length ivals in
  let ps = if profile then Some (make_pstate ~issue:issue_width ~ncode ~nregs) else None in
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
  let maxlat = Array.fold_left (fun a d -> max a d.dlat) 1 dcode in
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
  let head = ref 0 in  (* profile: oldest instruction not yet committed *)
  let hslot = ref 0 in
  while !pc < ncode do
    let k = !pc in
    let d = dcode.(k) in
    let need_rob = k_ring.(!rslot) in
    let need_phys =
      if d.ddst < 0 then 0 else if d.ddst_f then kw_f.(!wslot_f) else kw_i.(!wslot_i)
    in
    (* -- dispatch cycle D_i -- *)
    if !n > 0 then begin
      let branch_full = d.dbr && !nb >= branch_slots in
      if branch_full || need_rob > !cyc || need_phys > !cyc then begin
        (match ps with
        | Some s ->
          let open_slots = issue_width - !n in
          if branch_full then s.ps_blimit <- s.ps_blimit + open_slots
          else if need_rob > !cyc then
            if !cyc < i_ring.(!rslot) then s.ps_rs_wait <- s.ps_rs_wait + open_slots
            else s.ps_rob_full <- s.ps_rob_full + open_slots
          else s.ps_no_phys <- s.ps_no_phys + open_slots;
          s.ps_ilp.(!n) <- s.ps_ilp.(!n) + 1
        | None -> ());
        incr cyc;
        n := 0;
        nb := 0
      end
    end;
    if !n = 0 then begin
      (* Whole cycles: a cycle starts with every branch slot free. *)
      if issue_width < 1 || (d.dbr && branch_slots < 1) then raise Timeout;
      let c0 = !cyc in
      let c1 = max c0 need_rob in
      let c2 = max c1 need_phys in
      (match ps with
      | Some s ->
        if need_rob > c0 then begin
          let h = i_ring.(!rslot) in
          s.ps_rs_wait <- s.ps_rs_wait + (issue_width * max 0 (min need_rob h - c0));
          s.ps_rob_full <- s.ps_rob_full + (issue_width * max 0 (need_rob - max c0 h))
        end;
        s.ps_no_phys <- s.ps_no_phys + (issue_width * (c2 - c1));
        s.ps_ilp.(0) <- s.ps_ilp.(0) + (c2 - c0)
      | None -> ());
      cyc := c2
    end;
    let dc = !cyc in
    if dc > fuel then raise Timeout;
    (* -- issue cycle I_i, completion C_i, commit K_i -- *)
    let ready = ref (dc + 1) in
    let ri = d.drdy_i in
    for s = 0 to Array.length ri - 1 do
      let c = done_i.(ri.(s)) in
      if c > !ready then ready := c
    done;
    let rf = d.drdy_f in
    for s = 0 to Array.length rf - 1 do
      let c = done_f.(rf.(s)) in
      if c > !ready then ready := c
    done;
    if d.dmem && !last_mem > !ready then ready := !last_mem;
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
    if d.dmem then last_mem := iss;
    let cmp = iss + d.dlat in
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
    (match ps with
    | Some s ->
      (* Occupancy after dispatch: instructions head..i, where head is
         the oldest one that has not committed by D_i. *)
      while !head < !dyn && k_ring.(!hslot) <= dc do
        incr head;
        hslot := if !hslot + 1 = rob then 0 else !hslot + 1
      done;
      if !dyn + 1 - !head > s.ps_max_rob then s.ps_max_rob <- !dyn + 1 - !head;
      s.ps_insn.(k) <- s.ps_insn.(k) + 1
    | None -> ());
    k_ring.(!rslot) <- kc;
    i_ring.(!rslot) <- iss;
    rslot := if !rslot + 1 = rob then 0 else !rslot + 1;
    if d.ddst >= 0 then
      if d.ddst_f then begin
        done_f.(d.ddst) <- cmp;
        kw_f.(!wslot_f) <- kc;
        wslot_f := if !wslot_f + 1 = phys then 0 else !wslot_f + 1
      end
      else begin
        done_i.(d.ddst) <- cmp;
        kw_i.(!wslot_i) <- kc;
        wslot_i := if !wslot_i + 1 = phys then 0 else !wslot_i + 1
      end;
    incr dyn;
    incr n;
    if d.dbr then incr nb;
    let taken = exec ivals fvals mem d in
    if taken then begin
      pc := d.dtarget;
      (* fetch resumes at the target next cycle *)
      match ps with
      | Some s -> s.ps_redirect <- s.ps_redirect + (issue_width - !n)
      | None -> ()
    end
    else incr pc;
    if taken || !n = issue_width then begin
      (match ps with Some s -> s.ps_ilp.(!n) <- s.ps_ilp.(!n) + 1 | None -> ());
      incr cyc;
      n := 0;
      nb := 0
    end
  done;
  (* Out of instructions: the rest of the last dispatch cycle and every
     cycle up to the last commit drain. *)
  if !n > 0 then begin
    (match ps with
    | Some s ->
      s.ps_drain <- s.ps_drain + (issue_width - !n);
      s.ps_ilp.(!n) <- s.ps_ilp.(!n) + 1
    | None -> ());
    incr cyc
  end;
  let cycles = if !dyn = 0 then 0 else !k_prev + 1 in
  if cycles > 0 && cycles - 1 > fuel then raise Timeout;
  let prof =
    Option.map (fun s -> profile_of_pstate s machine ~last:!cyc ~cycles ~dyn:!dyn code) ps
  in
  (finish p st ~cycles ~dyn:!dyn, prof)

(* Simulation dispatch on the machine's core axis; each core's run is
   its own telemetry span. *)
let run_gen ?fuel ~profile (machine : Machine.t) (p : Prog.t) =
  match machine.Machine.core with
  | Machine.Inorder ->
    Impact_obs.Obs.span ~cat:"sim" "sim.run" (fun () ->
      run_inorder_gen ?fuel ~profile machine p)
  | Machine.Ooo { rob; phys_regs } ->
    Impact_obs.Obs.span ~cat:"sim" "ooo.run" (fun () ->
      run_ooo_gen ?fuel ~profile ~rob ~phys_regs machine p)

let run ?fuel (machine : Machine.t) (p : Prog.t) : result =
  fst (run_gen ?fuel ~profile:false machine p)

let run_profiled ?fuel (machine : Machine.t) (p : Prog.t) : result * profile =
  match run_gen ?fuel ~profile:true machine p with
  | r, Some prof -> (r, prof)
  | _, None -> assert false

module Ooo = struct
  let run ?fuel (machine : Machine.t) (p : Prog.t) : result =
    match machine.Machine.core with
    | Machine.Inorder -> invalid_arg "Ooo.run: machine core is Inorder (use Sim.run)"
    | Machine.Ooo _ -> run ?fuel machine p
end
