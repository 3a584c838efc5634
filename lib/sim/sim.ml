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
   - [run] first decodes each static instruction into one flat record
     ([dinsn]) of immediate fields, so the per-dynamic-instruction path
     performs no operand matching, no list lookups, no closure dispatch
     and no trace checks:
     - a constant pool: every immediate operand (an [Int], a [Flt], or
       a [Lab] resolved to its array's base address) gets its own slot
       past the registers in the int or float value file, filled once
       at decode, so every source read is [ivals.(d.da)] with no branch
       on the operand's kind;
     - one ready index for both register classes, [Reg.hash] =
       2 * id + cls; unused source slots and constants point at a
       sentinel index that is never written (always ready), and
       instructions without a destination write a sink index that is
       never read, so the interlock is four compares and the
       out-of-order ready cycle four loads and a max;
     - a flat opcode ([fop]: one constant constructor per operation,
       class and direction), so the instruction step is one jump table.

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

(* The memory image. [kind] classifies every cell in one byte: an
   unmapped guard word, an int cell or a float cell. [mem_i] / [mem_f]
   hold the cells' values; each is only as long as the last array of
   its class reaches. *)
type mem = {
  mem_i : int array;
  mem_f : float array;
  kind : Bytes.t;
  bases : (string * int) list;
}

let cell_unmapped = '\000'

let cell_int = '\001'

let cell_float = '\002'

let build_mem (p : Prog.t) : mem =
  let total =
    List.fold_left (fun acc a -> acc + a.Prog.asize + gap_words) gap_words p.Prog.arrays
  in
  let kind = Bytes.make total cell_unmapped in
  let next = ref gap_words in
  let iend = ref 0 in
  let fend = ref 0 in
  let placed =
    List.map
      (fun (a : Prog.adecl) ->
        let base = !next in
        next := base + a.Prog.asize + gap_words;
        (match a.Prog.ainit with
        | Prog.IInit vs ->
          Bytes.fill kind base (Array.length vs) cell_int;
          iend := base + Array.length vs
        | Prog.FInit vs ->
          Bytes.fill kind base (Array.length vs) cell_float;
          fend := base + Array.length vs);
        (a, base))
      p.Prog.arrays
  in
  let mem_i = Array.make !iend 0 in
  let mem_f = Array.make !fend 0.0 in
  List.iter
    (fun ((a : Prog.adecl), base) ->
      match a.Prog.ainit with
      | Prog.IInit vs -> Array.blit vs 0 mem_i base (Array.length vs)
      | Prog.FInit vs -> Array.blit vs 0 mem_f base (Array.length vs))
    placed;
  let bases = List.map (fun ((a : Prog.adecl), base) -> (a.Prog.aname, base * word)) placed in
  { mem_i; mem_f; kind; bases }

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
        (* Cells past the initial contents are unmapped and read 0. *)
        let contents = Array.make a.Prog.asize 0.0 in
        (match a.Prog.ainit with
        | Prog.FInit vs ->
          Array.blit mem.mem_f base contents 0 (Int.min a.Prog.asize (Array.length vs))
        | Prog.IInit vs ->
          for k = 0 to Int.min a.Prog.asize (Array.length vs) - 1 do
            contents.(k) <- float_of_int mem.mem_i.(base + k)
          done);
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
let max_latency = List.fold_left (fun acc (_, l) -> Int.max acc l) 1 Machine.table1_rows

(* Mutable accumulator threaded through a profiled run of either core.
   The in-order core charges [ps_interlock] and remembers in [ps_prod],
   by ready index ([Reg.hash]), the latency of the op that last wrote
   each register, so an interlock can be attributed to its producer's
   latency class (the paper's Fig. 8 mechanism: renaming and expansion
   remove exactly these waits); the out-of-order core charges the
   window causes and tracks [ps_max_rob]. *)
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
  ps_prod : int array;
}

let make_pstate ~issue ~ncode ~nready =
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
    ps_prod = Array.make nready 0;
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
  let ps =
    if profile then Some (make_pstate ~issue:machine.Machine.issue ~ncode ~nready:(2 * nregs))
    else None
  in
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
    if c < 0 || c >= Bytes.length mem.kind || Bytes.get mem.kind c = cell_unmapped then
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
    match ps with Some s -> s.ps_prod.(Reg.hash r) <- lat | None -> ()
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
             lat := s.ps_prod.(Reg.hash r);
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
              if Bytes.get mem.kind c <> cell_int then errf "int load from float cell %d" addr;
              VI mem.mem_i.(c)
            | Reg.Float ->
              if Bytes.get mem.kind c <> cell_float then errf "float load from int cell %d" addr;
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
            if Bytes.get mem.kind c <> cell_int then errf "int store to float cell %d" addr;
            mem.mem_i.(c) <- int_of_operand i.Insn.srcs.(3)
          | Reg.Float ->
            if Bytes.get mem.kind c <> cell_float then errf "float store to int cell %d" addr;
            mem.mem_f.(c) <- flt_of_operand i.Insn.srcs.(3))
        | Insn.Br (cls, c) ->
          incr branches;
          let taken =
            match cls with
            | Reg.Int ->
              Insn.eval_icmp c (int_of_operand i.Insn.srcs.(0)) (int_of_operand i.Insn.srcs.(1))
            | Reg.Float ->
              Insn.eval_fcmp c (flt_of_operand i.Insn.srcs.(0)) (flt_of_operand i.Insn.srcs.(1))
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
  let cycles = Int.max !cycle !last_writeback in
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

(* The flat opcode: one constant constructor per operation, register
   class and direction, so [exec] dispatches through one jump table. *)
type fop =
  | Add | Sub | Mul | Div | Rem | Shl | Shr | And | Or | Xor
  | Fadd | Fsub | Fmul | Fdiv
  | IMov | FMov | ItoF | FtoI
  | LoadI | LoadF | StoreI | StoreF
  | BrI | BrF | Jmp

(* One static instruction, decoded into immediate fields. Source slots
   a, b, c, e (the opcode's operands in order; a store's value is e)
   index the int or float value file, as the opcode's slot context
   dictates: a register's slot is its id, a constant's its pool slot
   past the registers. [dra]..[dre] are their ready indices:
   [Reg.hash] for a register, the sentinel for a constant or an unused
   slot. [drdy] is the destination's ready index, the sink when there
   is none. *)
type dinsn = {
  dop : fop;
  ddst : int;  (* destination slot; 0 when none (never written) *)
  drdy : int;
  dlat : int;  (* Table 1 latency *)
  dtarget : int;  (* branch target code index; -1 when not a branch *)
  dcmp : Insn.cmp;  (* a branch's comparison *)
  da : int;
  db : int;
  dc : int;
  de : int;
  dra : int;
  drb : int;
  drc : int;
  dre : int;
  dbr : bool;  (* branch or jump *)
  dmem : bool;  (* load or store *)
}

let flat_op (op : Insn.op) : fop =
  match op with
  | Insn.IBin o -> (
    match o with
    | Insn.Add -> Add | Insn.Sub -> Sub | Insn.Mul -> Mul | Insn.Div -> Div | Insn.Rem -> Rem
    | Insn.Shl -> Shl | Insn.Shr -> Shr | Insn.And -> And | Insn.Or -> Or | Insn.Xor -> Xor)
  | Insn.FBin o -> (
    match o with Insn.Fadd -> Fadd | Insn.Fsub -> Fsub | Insn.Fmul -> Fmul | Insn.Fdiv -> Fdiv)
  | Insn.IMov -> IMov
  | Insn.FMov -> FMov
  | Insn.ItoF -> ItoF
  | Insn.FtoI -> FtoI
  | Insn.Load Reg.Int -> LoadI
  | Insn.Load Reg.Float -> LoadF
  | Insn.Store Reg.Int -> StoreI
  | Insn.Store Reg.Float -> StoreF
  | Insn.Br (Reg.Int, _) -> BrI
  | Insn.Br (Reg.Float, _) -> BrF
  | Insn.Jmp -> Jmp

(* Per-run set-up shared by both decoded loops: the flattened code, its
   decoded records, the initial memory image and the value files, the
   constant pool filled in. Ready indices run over [0, nready): the
   registers' [Reg.hash]es, then the sentinel ([nready - 2]) and the
   sink ([nready - 1]). *)
type state = {
  code : Insn.t array;
  dcode : dinsn array;
  mem : mem;
  ivals : int array;
  fvals : float array;
  nready : int;
}

(* Flatten [p], build its memory image and decode every instruction.
   Each opcode's source slots take the int or float context of the
   reference interpreter's [int_of_operand]/[flt_of_operand] choices.
   Raises [Error] on class confusion, unknown labels or a missing
   destination, with the reference's messages. *)
let start (p : Prog.t) : state =
  let flat = Flatten.of_prog p in
  let code = flat.Flatten.code in
  let nregs = Reg.gen_count p.Prog.ctx.Prog.rgen + 1 in
  let sentinel = 2 * nregs in
  let sink = sentinel + 1 in
  let mem = build_mem p in
  let base_of lab =
    match List.assoc_opt lab mem.bases with
    | Some b -> b
    | None -> errf "unknown array label %s" lab
  in
  (* The constant pool, newest first; pool entry k is slot nregs + k. *)
  let ipool = ref [] and ni = ref 0 in
  let fpool = ref [] and nf = ref 0 in
  let iconst v =
    ipool := v :: !ipool;
    incr ni;
    nregs + !ni - 1
  in
  let fconst x =
    fpool := x :: !fpool;
    incr nf;
    nregs + !nf - 1
  in
  let vs = Array.make 4 0 in
  let rs = Array.make 4 sentinel in
  (* Decode source [k] of [i] in context [cls] into [vs.(k)] / [rs.(k)]. *)
  let slot (i : Insn.t) k (cls : Reg.cls) =
    match cls, i.Insn.srcs.(k) with
    | Reg.Int, Operand.Reg r ->
      if r.Reg.cls <> Reg.Int then errf "float register %s in int context" (Reg.to_string r);
      vs.(k) <- r.Reg.id;
      rs.(k) <- 2 * r.Reg.id
    | Reg.Int, Operand.Int v -> vs.(k) <- iconst v
    | Reg.Int, Operand.Lab s -> vs.(k) <- iconst (base_of s)
    | Reg.Int, Operand.Flt _ -> errf "float immediate in int context"
    | Reg.Float, Operand.Reg r ->
      if r.Reg.cls <> Reg.Float then errf "int register %s in float context" (Reg.to_string r);
      vs.(k) <- r.Reg.id;
      rs.(k) <- (2 * r.Reg.id) + 1
    | Reg.Float, Operand.Flt x -> vs.(k) <- fconst x
    | Reg.Float, Operand.Int v -> vs.(k) <- fconst (float_of_int v)
    | Reg.Float, Operand.Lab _ -> errf "label in float context"
  in
  let decode_one (i : Insn.t) : dinsn =
    Array.fill vs 0 4 0;
    Array.fill rs 0 4 sentinel;
    (match i.Insn.op with
    | Insn.IBin _ ->
      slot i 0 Reg.Int;
      slot i 1 Reg.Int
    | Insn.FBin _ ->
      slot i 0 Reg.Float;
      slot i 1 Reg.Float
    | Insn.IMov | Insn.ItoF -> slot i 0 Reg.Int
    | Insn.FMov | Insn.FtoI -> slot i 0 Reg.Float
    | Insn.Load _ ->
      slot i 0 Reg.Int;
      slot i 1 Reg.Int;
      slot i 2 Reg.Int
    | Insn.Store cls ->
      slot i 0 Reg.Int;
      slot i 1 Reg.Int;
      slot i 2 Reg.Int;
      slot i 3 cls
    | Insn.Br (cls, _) ->
      slot i 0 cls;
      slot i 1 cls
    | Insn.Jmp -> ());
    let ddst, drdy =
      match i.Insn.dst, Insn.result_cls i with
      | Some r, Some cls ->
        if r.Reg.cls <> cls then errf "class mismatch writing %s" (Reg.to_string r);
        (r.Reg.id, (2 * r.Reg.id) + if cls = Reg.Float then 1 else 0)
      | None, Some _ -> errf "instruction %d lacks destination" i.Insn.id
      | Some _, None | None, None -> (0, sink)
    in
    let dbr = Insn.is_branch i in
    {
      dop = flat_op i.Insn.op;
      ddst;
      drdy;
      dlat = Machine.latency i.Insn.op;
      dtarget = (if dbr then Flatten.target_index flat i else -1);
      dcmp = (match i.Insn.op with Insn.Br (_, c) -> c | _ -> Insn.Eq);
      da = vs.(0);
      db = vs.(1);
      dc = vs.(2);
      de = vs.(3);
      dra = rs.(0);
      drb = rs.(1);
      drc = rs.(2);
      dre = rs.(3);
      dbr;
      dmem = Insn.is_mem i;
    }
  in
  let dcode = Array.map decode_one code in
  let ivals = Array.make (nregs + !ni) 0 in
  List.iteri (fun k v -> ivals.(nregs + !ni - 1 - k) <- v) !ipool;
  let fvals = Array.make (nregs + !nf) 0.0 in
  List.iteri (fun k x -> fvals.(nregs + !nf - 1 - k) <- x) !fpool;
  { code; dcode; mem; ivals; fvals; nready = sink + 1 }

let finish (p : Prog.t) (st : state) ~cycles ~dyn : result =
  let outputs, arrays_out = collect p st.mem st.ivals st.fvals in
  { cycles; dyn_insns = dyn; outputs; arrays_out }

(* ---- The instruction step ----

   The semantics of a decoded instruction, written once for both loops.
   These functions must stay top-level, [@inline], free of local
   closures (which keep a function from being inlined) and in this
   module: dune's dev profile compiles every module with -opaque, so a
   step in another module (say [Insn.eval_icmp]) would cost a call per
   dynamic instruction, while these are inlined into each loop. For the
   same reason every max, min and comparison on the hot paths is typed:
   Stdlib's [max]/[min] are polymorphic and compare through
   [caml_greaterequal], a C call (four polymorphic [max] per
   instruction double the out-of-order run's time); [Int.max] and
   [Int.min] inline. *)

let[@inline] icmp (c : Insn.cmp) (a : int) (b : int) =
  match c with
  | Insn.Lt -> a < b
  | Insn.Le -> a <= b
  | Insn.Gt -> a > b
  | Insn.Ge -> a >= b
  | Insn.Eq -> a = b
  | Insn.Ne -> a <> b

let[@inline] fcmp (c : Insn.cmp) (a : float) (b : float) =
  match c with
  | Insn.Lt -> a < b
  | Insn.Le -> a <= b
  | Insn.Gt -> a > b
  | Insn.Ge -> a >= b
  | Insn.Eq -> a = b
  | Insn.Ne -> a <> b

let[@inline] cell_of_addr mem addr what =
  if addr mod word <> 0 then errf "%s: misaligned address %d" what addr;
  let c = addr / word in
  if c < 0 || c >= Bytes.length mem.kind || Bytes.get mem.kind c = cell_unmapped then
    errf "%s: address %d out of bounds" what addr;
  c

(* Execute [d]: read its operands, compute, check a memory access's
   alignment, bounds and cell class, and write the result. Returns
   whether control transfers to [d.dtarget]. *)
let[@inline] exec ivals fvals mem d =
  match d.dop with
  | Add -> ivals.(d.ddst) <- ivals.(d.da) + ivals.(d.db); false
  | Sub -> ivals.(d.ddst) <- ivals.(d.da) - ivals.(d.db); false
  | Mul -> ivals.(d.ddst) <- ivals.(d.da) * ivals.(d.db); false
  | Div ->
    let b = ivals.(d.db) in
    if b = 0 then errf "division by zero";
    ivals.(d.ddst) <- ivals.(d.da) / b;
    false
  | Rem ->
    let b = ivals.(d.db) in
    if b = 0 then errf "remainder by zero";
    ivals.(d.ddst) <- ivals.(d.da) mod b;
    false
  | Shl -> ivals.(d.ddst) <- ivals.(d.da) lsl ivals.(d.db); false
  | Shr -> ivals.(d.ddst) <- ivals.(d.da) asr ivals.(d.db); false
  | And -> ivals.(d.ddst) <- ivals.(d.da) land ivals.(d.db); false
  | Or -> ivals.(d.ddst) <- ivals.(d.da) lor ivals.(d.db); false
  | Xor -> ivals.(d.ddst) <- ivals.(d.da) lxor ivals.(d.db); false
  | Fadd -> fvals.(d.ddst) <- fvals.(d.da) +. fvals.(d.db); false
  | Fsub -> fvals.(d.ddst) <- fvals.(d.da) -. fvals.(d.db); false
  | Fmul -> fvals.(d.ddst) <- fvals.(d.da) *. fvals.(d.db); false
  | Fdiv -> fvals.(d.ddst) <- fvals.(d.da) /. fvals.(d.db); false
  | IMov -> ivals.(d.ddst) <- ivals.(d.da); false
  | FMov -> fvals.(d.ddst) <- fvals.(d.da); false
  | ItoF -> fvals.(d.ddst) <- float_of_int ivals.(d.da); false
  | FtoI -> ivals.(d.ddst) <- int_of_float (Float.trunc fvals.(d.da)); false
  | LoadI ->
    let addr = ivals.(d.da) + ivals.(d.db) + ivals.(d.dc) in
    let c = cell_of_addr mem addr "load" in
    if Bytes.get mem.kind c <> cell_int then errf "int load from float cell %d" addr;
    ivals.(d.ddst) <- mem.mem_i.(c);
    false
  | LoadF ->
    let addr = ivals.(d.da) + ivals.(d.db) + ivals.(d.dc) in
    let c = cell_of_addr mem addr "load" in
    if Bytes.get mem.kind c <> cell_float then errf "float load from int cell %d" addr;
    fvals.(d.ddst) <- mem.mem_f.(c);
    false
  | StoreI ->
    let addr = ivals.(d.da) + ivals.(d.db) + ivals.(d.dc) in
    let c = cell_of_addr mem addr "store" in
    if Bytes.get mem.kind c <> cell_int then errf "int store to float cell %d" addr;
    mem.mem_i.(c) <- ivals.(d.de);
    false
  | StoreF ->
    let addr = ivals.(d.da) + ivals.(d.db) + ivals.(d.dc) in
    let c = cell_of_addr mem addr "store" in
    if Bytes.get mem.kind c <> cell_float then errf "float store to int cell %d" addr;
    mem.mem_f.(c) <- fvals.(d.de);
    false
  | BrI -> icmp d.dcmp ivals.(d.da) ivals.(d.db)
  | BrF -> fcmp d.dcmp fvals.(d.da) fvals.(d.db)
  | Jmp -> true

(* ---- In-order timing loop ---- *)

let run_inorder_gen ?(fuel = default_fuel) ~profile (machine : Machine.t) (p : Prog.t) :
    result * profile option =
  let st = start p in
  let { code; dcode; mem; ivals; fvals; nready } = st in
  let ncode = Array.length code in
  let ps = if profile then Some (make_pstate ~issue:machine.Machine.issue ~ncode ~nready) else None in
  (* Cycle each ready index's latest value becomes available. *)
  let ready = Array.make nready 0 in
  let issue_width = machine.Machine.issue in
  let branch_slots = machine.Machine.branch_slots in
  (* Producer latency of the first unready source in operand-slot
     order, matching the reference path's [blocking_lat]. *)
  let blocking_lat prod d cyc =
    if ready.(d.dra) > cyc then prod.(d.dra)
    else if ready.(d.drb) > cyc then prod.(d.drb)
    else if ready.(d.drc) > cyc then prod.(d.drc)
    else if ready.(d.dre) > cyc then prod.(d.dre)
    else 0
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
        ready.(d.dra) <= cyc && ready.(d.drb) <= cyc && ready.(d.drc) <= cyc
        && ready.(d.dre) <= cyc
      in
      let ready_to_issue = regs_ready && ((not d.dbr) || !branches < branch_slots) in
      if not ready_to_issue then begin
        (match ps with
        | Some s ->
          let open_slots = issue_width - !issued in
          if not regs_ready then begin
            let lat = blocking_lat s.ps_prod d cyc in
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
        ready.(d.drdy) <- cyc + lat;
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
          s.ps_prod.(d.drdy) <- lat;
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
  let cycles = Int.max !cycle !last_writeback in
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
     writer <= D_i). That writer is at least P instructions back and
     commit cycles never decrease, so for P >= R the reorder-buffer
     check implies this one, and it is skipped;
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
  let { code; dcode; mem; ivals; fvals; nready } = st in
  let ncode = Array.length code in
  let ps = if profile then Some (make_pstate ~issue:issue_width ~ncode ~nready) else None in
  (* Completion cycle of each ready index's latest writer (0: never
     written, ready from the start). *)
  let done_ = Array.make nready 0 in
  let sentinel = nready - 2 in
  (* Commit and issue cycles of the last R instructions: when i is
     dispatched, slot [rslot] holds K_{i-R} and I_{i-R}. *)
  let k_ring = Array.make rob 0 in
  let i_ring = Array.make rob 0 in
  let rslot = ref 0 in
  (* Commit cycles of the last P writers per class, kept only when the
     physical registers can bind (P < R). *)
  let bind_phys = phys_regs < rob in
  let phys = if bind_phys then phys_regs else 0 in
  let kw_i = Array.make phys 0 in
  let kw_f = Array.make phys 0 in
  let wslot_i = ref 0 in
  let wslot_f = ref 0 in
  (* Issue count per cycle, on a ring tagged by cycle number. A full
     window of R instructions issues within (R + 1) * maxlat cycles of
     the current dispatch, so the live cycles never share a slot. *)
  let maxlat = Array.fold_left (fun a d -> Int.max a d.dlat) 1 dcode in
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
    let w = d.drdy in
    let need_phys =
      if (not bind_phys) || w >= sentinel then 0
      else if w land 1 = 1 then kw_f.(!wslot_f)
      else kw_i.(!wslot_i)
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
      let c1 = Int.max c0 need_rob in
      let c2 = Int.max c1 need_phys in
      (match ps with
      | Some s ->
        if need_rob > c0 then begin
          let h = i_ring.(!rslot) in
          s.ps_rs_wait <- s.ps_rs_wait + (issue_width * Int.max 0 (Int.min need_rob h - c0));
          s.ps_rob_full <- s.ps_rob_full + (issue_width * Int.max 0 (need_rob - Int.max c0 h))
        end;
        s.ps_no_phys <- s.ps_no_phys + (issue_width * (c2 - c1));
        s.ps_ilp.(0) <- s.ps_ilp.(0) + (c2 - c0)
      | None -> ());
      cyc := c2
    end;
    let dc = !cyc in
    if dc > fuel then raise Timeout;
    (* -- issue cycle I_i, completion C_i, commit K_i -- *)
    let ready =
      Int.max (dc + 1)
        (Int.max (Int.max done_.(d.dra) done_.(d.drb)) (Int.max done_.(d.drc) done_.(d.dre)))
    in
    let t = ref (if d.dmem then Int.max ready !last_mem else ready) in
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
    done_.(w) <- cmp;
    if bind_phys && w < sentinel then
      if w land 1 = 1 then begin
        kw_f.(!wslot_f) <- kc;
        wslot_f := if !wslot_f + 1 = phys then 0 else !wslot_f + 1
      end
      else begin
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
