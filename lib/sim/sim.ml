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
     matching, no closure dispatch and no trace checks. The decoder and
     the memory image are shared with lib/ooo. *)

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

(* ---- Issue-slot accounting (stall attribution) ---- *)

(* A profiled run classifies every one of its [p_cycles * p_issue]
   issue slots: [p_issued_slots] of them issued an instruction and each
   empty slot has exactly one attributed cause, so the categories sum
   to [empty_slots] by construction (checked by the tier-1 tests). The
   in-order pipeline empties the rest of a cycle for whichever reason
   stops issue first, which is why one cause per cycle suffices. *)
type profile = {
  p_issue : int;
  p_cycles : int;
  p_issued_slots : int;  (* = dyn_insns *)
  p_interlock : (int * int) array;
      (* (producer latency, slot-cycles) — slots lost waiting on a
         result, keyed by the latency class of the op producing it *)
  p_branch_limit : int;  (* slots lost to the branch-slot limit *)
  p_redirect : int;  (* slots emptied after a taken branch *)
  p_drain : int;  (* program ran out of instructions / final writebacks *)
  p_ilp : int array;  (* p_ilp.(k) = cycles that issued exactly k *)
  p_insn_issues : (Insn.t * int) array;  (* per static instruction *)
}

let empty_slots p = (p.p_cycles * p.p_issue) - p.p_issued_slots

let classified_slots p =
  Array.fold_left (fun acc (_, n) -> acc + n) 0 p.p_interlock
  + p.p_branch_limit + p.p_redirect + p.p_drain

(* Largest Table 1 latency; bounds the interlock histogram. *)
let max_latency = List.fold_left (fun acc (_, l) -> max acc l) 1 Machine.table1_rows

(* Mutable accumulator threaded through a profiled run. [ps_iprod] /
   [ps_fprod] remember the latency of the op that last wrote each
   register, so an interlock can be attributed to its producer's
   latency class (the paper's Fig. 8 mechanism: renaming and expansion
   remove exactly these waits). *)
type pstate = {
  ps_interlock : int array;
  mutable ps_blimit : int;
  mutable ps_redirect : int;
  mutable ps_drain : int;
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
    ps_ilp = Array.make (issue + 1) 0;
    ps_insn = Array.make ncode 0;
    ps_iprod = Array.make nregs 0;
    ps_fprod = Array.make nregs 0;
  }

let profile_of_pstate (s : pstate) ~issue ~cycles ~dyn (code : Insn.t array) : profile =
  let inter = ref [] in
  Array.iteri (fun lat n -> if n > 0 then inter := (lat, n) :: !inter) s.ps_interlock;
  {
    p_issue = issue;
    p_cycles = cycles;
    p_issued_slots = dyn;
    p_interlock = Array.of_list (List.rev !inter);
    p_branch_limit = s.ps_blimit;
    p_redirect = s.ps_redirect;
    p_drain = s.ps_drain;
    p_ilp = s.ps_ilp;
    p_insn_issues = Array.mapi (fun k c -> (code.(k), c)) s.ps_insn;
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
    Option.map
      (fun s ->
        (* Trailing cycles where issue has stopped but results are
           still in flight. *)
        s.ps_drain <- s.ps_drain + ((cycles - !cycle) * machine.Machine.issue);
        s.ps_ilp.(0) <- s.ps_ilp.(0) + (cycles - !cycle);
        profile_of_pstate s ~issue:machine.Machine.issue ~cycles ~dyn:!dyn code)
      ps
  in
  ({ cycles; dyn_insns = !dyn; outputs; arrays_out }, prof)

let run_ref ?fuel ?trace (machine : Machine.t) (p : Prog.t) : result =
  fst (run_ref_gen ?fuel ?trace ~profile:false machine p)

let run_ref_profiled ?fuel (machine : Machine.t) (p : Prog.t) : result * profile =
  match run_ref_gen ?fuel ~profile:true machine p with
  | r, Some prof -> (r, prof)
  | _, None -> assert false

(* ---- Pre-decoded fast path ---- *)

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

let run_fast_gen ?(fuel = default_fuel) ~profile (machine : Machine.t) (p : Prog.t) :
    result * profile option =
  let flat = Flatten.of_prog p in
  let code = flat.Flatten.code in
  let ncode = Array.length code in
  let nregs = Reg.gen_count p.Prog.ctx.Prog.rgen + 1 in
  let ps = if profile then Some (make_pstate ~issue:machine.Machine.issue ~ncode ~nregs) else None in
  let ivals = Array.make nregs 0 in
  let fvals = Array.make nregs 0.0 in
  let iready = Array.make nregs 0 in
  let fready = Array.make nregs 0 in
  let mem = build_mem p in
  let dcode = decode mem flat in
  let mem_i = mem.mem_i in
  let mem_f = mem.mem_f in
  let mem_valid = mem.valid in
  let mem_isf = mem.is_float in
  let nmem = Array.length mem_valid in
  let issue_width = machine.Machine.issue in
  let branch_slots = machine.Machine.branch_slots in
  (* Source slot k in int / float context. *)
  let gi d k =
    let r = d.dsrc_reg.(k) in
    if r >= 0 then ivals.(r) else d.dsrc_imm_i.(k)
  [@@inline]
  in
  let gf d k =
    let r = d.dsrc_reg.(k) in
    if r >= 0 then fvals.(r) else d.dsrc_imm_f.(k)
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
        (match d.dop with
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
          ivals.(d.ddst) <- v;
          iready.(d.ddst) <- cyc + lat
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
          fvals.(d.ddst) <- v;
          fready.(d.ddst) <- cyc + lat
        | Insn.IMov ->
          ivals.(d.ddst) <- gi d 0;
          iready.(d.ddst) <- cyc + lat
        | Insn.FMov ->
          fvals.(d.ddst) <- gf d 0;
          fready.(d.ddst) <- cyc + lat
        | Insn.ItoF ->
          fvals.(d.ddst) <- float_of_int (gi d 0);
          fready.(d.ddst) <- cyc + lat
        | Insn.FtoI ->
          ivals.(d.ddst) <- int_of_float (Float.trunc (gf d 0));
          iready.(d.ddst) <- cyc + lat
        | Insn.Load cls ->
          let addr = gi d 0 + gi d 1 + gi d 2 in
          let c = cell_of_addr addr "load" in
          (match cls with
          | Reg.Int ->
            if mem_isf.(c) then errf "int load from float cell %d" addr;
            ivals.(d.ddst) <- mem_i.(c);
            iready.(d.ddst) <- cyc + lat
          | Reg.Float ->
            if not mem_isf.(c) then errf "float load from int cell %d" addr;
            fvals.(d.ddst) <- mem_f.(c);
            fready.(d.ddst) <- cyc + lat)
        | Insn.Store cls ->
          let addr = gi d 0 + gi d 1 + gi d 2 in
          let c = cell_of_addr addr "store" in
          (match cls with
          | Reg.Int ->
            if mem_isf.(c) then errf "int store to float cell %d" addr;
            mem_i.(c) <- gi d 3
          | Reg.Float ->
            if not mem_isf.(c) then errf "float store to int cell %d" addr;
            mem_f.(c) <- gf d 3)
        | Insn.Br (cls, c) ->
          incr branches;
          let taken =
            match cls with
            | Reg.Int -> Insn.eval_icmp c (gi d 0) (gi d 1)
            | Reg.Float -> Insn.eval_fcmp c (gf d 0) (gf d 1)
          in
          if taken then begin
            pc := d.dtarget;
            (* Redirected fetch begins next cycle. *)
            stall := true
          end
        | Insn.Jmp ->
          incr branches;
          pc := d.dtarget;
          stall := true);
        if not d.dbr then incr pc
        else if not !stall then incr pc (* untaken conditional: fall through *);
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
  let outputs, arrays_out = collect p mem ivals fvals in
  let cycles = max !cycle !last_writeback in
  let prof =
    Option.map
      (fun s ->
        (* Trailing cycles where issue has stopped but results are
           still in flight. *)
        s.ps_drain <- s.ps_drain + ((cycles - !cycle) * issue_width);
        s.ps_ilp.(0) <- s.ps_ilp.(0) + (cycles - !cycle);
        profile_of_pstate s ~issue:issue_width ~cycles ~dyn:!dyn code)
      ps
  in
  ({ cycles; dyn_insns = !dyn; outputs; arrays_out }, prof)

let run ?fuel (machine : Machine.t) (p : Prog.t) : result =
  Impact_obs.Obs.span ~cat:"sim" "sim.run" (fun () ->
    fst (run_fast_gen ?fuel ~profile:false machine p))

let run_profiled ?fuel (machine : Machine.t) (p : Prog.t) : result * profile =
  Impact_obs.Obs.span ~cat:"sim" "sim.run" (fun () ->
    match run_fast_gen ?fuel ~profile:true machine p with
    | r, Some prof -> (r, prof)
    | _, None -> assert false)
