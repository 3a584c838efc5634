(* Linear symbolic values for integer registers within a loop body.

   Each integer value is represented, when possible, as a linear
   combination  sum_k coeff_k * key_k + c  over symbolic keys: the value a
   register held at body entry (KReg), an array base address (KLab), or an
   opaque one-off value (KOpq). The analysis is a forward abstract
   interpretation over the body's internal (forward-branch-only) control
   flow, merging at join labels.

   This single engine powers memory disambiguation, induction-variable
   strength reduction, loop classification, and the expansion
   transformations' legality checks. *)

open Impact_ir

module Key = struct
  (* KReg: a register's value at region entry. KOpq: an unknowable value
     (instruction id when produced by an instruction, negative counter at
     merge points). KLab: an array base address. KTrip: the (unknown,
     non-negative) trip count of an intermediate loop, used when
     composing preheader environments across loops. *)
  type t = KReg of Reg.t | KOpq of int | KLab of string | KTrip of int

  let rank = function KReg _ -> 0 | KOpq _ -> 1 | KLab _ -> 2 | KTrip _ -> 3

  (* [Stdlib.compare]'s order (constructor first, then the argument)
     without calling it: [Ivopt] rebuilds operands in [terms] order, so
     the order itself is part of the output. *)
  let compare a b =
    match a, b with
    | KReg r, KReg s -> Reg.compare r s
    | KOpq i, KOpq j | KTrip i, KTrip j -> Int.compare i j
    | KLab s, KLab t -> String.compare s t
    | _ -> Int.compare (rank a) (rank b)
end

module KMap = Map.Make (Key)

type lin = { coeffs : int KMap.t; c : int }

let norm m = KMap.filter (fun _ v -> v <> 0) m

let const c = { coeffs = KMap.empty; c }

let of_key k = { coeffs = KMap.singleton k 1; c = 0 }

let add a b =
  {
    coeffs = norm (KMap.union (fun _ x y -> Some (x + y)) a.coeffs b.coeffs);
    c = a.c + b.c;
  }

let scale k a =
  if k = 0 then const 0
  else { coeffs = norm (KMap.map (fun v -> v * k) a.coeffs); c = a.c * k }

let sub a b = add a (scale (-1) b)

let is_const a = KMap.is_empty a.coeffs

let same_coeffs a b = KMap.equal Int.equal a.coeffs b.coeffs

let equal a b = a.c = b.c && same_coeffs a b

(* [diff a b] = Some d when a - b is the constant d. Every [lin] keeps
   only non-zero coefficients, so a - b is constant exactly when the two
   coefficient maps are equal: no map is built. *)
let diff a b = if same_coeffs a b then Some (a.c - b.c) else None

let terms a = KMap.bindings a.coeffs

type t = {
  sb : Sb.t;
  res : lin option array;  (* per position: value written to the (int) dst *)
  addr : lin option array;  (* per position: memory address of a load/store *)
  end_env : lin Reg.Map.t option;  (* env on reaching the back-branch *)
  final_env : lin Reg.Map.t option;  (* env after the last item (fall-through) *)
  def_counts : (int, int) Hashtbl.t;
}

let lookup env (r : Reg.t) =
  match Reg.Map.find_opt r env with Some v -> v | None -> of_key (Key.KReg r)

let analyze (sb : Sb.t) : t =
  let n = Sb.length sb in
  let res = Array.make n None in
  let addr = Array.make n None in
  (* Opaque keys for merge points: negative ids (instruction-derived
     opaque values use the globally-unique instruction id, so values from
     different analyses never unify spuriously). *)
  let opq = ref 0 in
  let fresh_opaque () =
    decr opq;
    of_key (Key.KOpq !opq)
  in
  let pending : (string, lin Reg.Map.t) Hashtbl.t = Hashtbl.create 8 in
  (* Merge two environments pointwise; disagreeing registers get a fresh
     opaque value. An absent binding means "entry value". *)
  let merge e1 e2 =
    let all =
      Reg.Map.union (fun _ a _ -> Some a) e1 e2 (* domain union; values fixed below *)
    in
    Reg.Map.mapi
      (fun r _ ->
        let v1 = lookup e1 r and v2 = lookup e2 r in
        if equal v1 v2 then v1 else fresh_opaque ())
      all
  in
  let merge_pending l env =
    match Hashtbl.find_opt pending l with
    | None -> Hashtbl.replace pending l env
    | Some e -> Hashtbl.replace pending l (merge e env)
  in
  let lin_of_operand env (o : Operand.t) : lin option =
    match o with
    | Operand.Int k -> Some (const k)
    | Operand.Lab s -> Some (of_key (Key.KLab s))
    | Operand.Reg r -> if r.Reg.cls = Reg.Int then Some (lookup env r) else None
    | Operand.Flt _ -> None
  in
  let end_pos = Dom.end_position sb in
  let end_env = ref None in
  let env : lin Reg.Map.t option ref = ref (Some Reg.Map.empty) in
  for k = 0 to n - 1 do
    (match Sb.insn sb k with
    | None -> (
      (* A label: merge incoming forward edges. *)
      match sb.Sb.items.(k) with
      | Block.Lbl l -> (
        match Hashtbl.find_opt pending l, !env with
        | Some p, Some e -> env := Some (merge p e)
        | Some p, None -> env := Some p
        | None, _ -> ())
      | Block.Ins _ | Block.Loop _ -> ())
    | Some i -> (
      match !env with
      | None -> () (* unreachable code *)
      | Some e ->
        if end_pos = Some k then end_env := Some e;
        (match Insn.mem_addr i with
        | Some (b, o, disp) -> (
          match lin_of_operand e b, lin_of_operand e o with
          | Some lb, Some lo -> addr.(k) <- Some (add (add lb lo) (const disp))
          | _ -> addr.(k) <- None)
        | None -> ());
        let result : lin option =
          match i.Insn.op, i.Insn.dst with
          | _, None -> None
          | _, Some d when d.Reg.cls = Reg.Float -> None
          | Insn.IMov, Some _ -> lin_of_operand e i.Insn.srcs.(0)
          | Insn.IBin op, Some _ -> (
            let a = lin_of_operand e i.Insn.srcs.(0) in
            let b = lin_of_operand e i.Insn.srcs.(1) in
            match op, a, b with
            | Insn.Add, Some x, Some y -> Some (add x y)
            | Insn.Sub, Some x, Some y -> Some (sub x y)
            | Insn.Mul, Some x, Some y when is_const x -> Some (scale x.c y)
            | Insn.Mul, Some x, Some y when is_const y -> Some (scale y.c x)
            | Insn.Shl, Some x, Some y when is_const y && y.c >= 0 && y.c < 30 ->
              Some (scale (1 lsl y.c) x)
            | _ -> None)
          | (Insn.Load _ | Insn.FtoI | Insn.FMov | Insn.FBin _ | Insn.ItoF), Some _ -> None
          | (Insn.Br _ | Insn.Jmp | Insn.Store _), Some _ -> None
        in
        (match i.Insn.dst with
        | Some d when d.Reg.cls = Reg.Int ->
          let v =
            match result with
            | Some v -> v
            | None -> of_key (Key.KOpq i.Insn.id)
          in
          res.(k) <- Some v;
          env := Some (Reg.Map.add d v e)
        | Some _ | None -> ());
        (* Control flow effects on the walk. *)
        (match i.Insn.op with
        | Insn.Br _ -> (
          match Sb.internal_target sb i with
          | Some _ ->
            let l = Option.get i.Insn.target in
            merge_pending l (Option.get !env)
          | None -> ())
        | Insn.Jmp -> (
          (match Sb.internal_target sb i with
          | Some _ -> merge_pending (Option.get i.Insn.target) (Option.get !env)
          | None -> ());
          env := None)
        | _ -> ())))
  done;
  { sb; res; addr; end_env = !end_env; final_env = !env; def_counts = Sb.def_counts sb }

let result t k = t.res.(k)

let address t k = t.addr.(k)

(* Number of definitions of [r] in the body. *)
let defs_of t (r : Reg.t) = Option.value ~default:0 (Hashtbl.find_opt t.def_counts r.Reg.id)

let invariant t r = defs_of t r = 0

(* Per-iteration step of a register: Some d when the value at the
   back-branch equals its entry value plus the constant d on every
   complete iteration. *)
let iv_step t (r : Reg.t) : int option =
  if r.Reg.cls <> Reg.Int then None
  else if invariant t r then Some 0
  else
    match t.end_env with
    | None -> None
    | Some env -> (
      let v = lookup env r in
      match KMap.bindings v.coeffs with
      | [ (Key.KReg r', 1) ] when Reg.equal r r' -> Some v.c
      | _ -> None)

(* Per-iteration change of a linear value, when derivable: every key must
   be an invariant register, a linear induction register, or a label. *)
let lin_step t (v : lin) : int option =
  List.fold_left
    (fun acc (k, coeff) ->
      match acc with
      | None -> None
      | Some s -> (
        match k with
        | Key.KLab _ -> Some s
        | Key.KOpq _ | Key.KTrip _ -> None
        | Key.KReg r -> (
          match iv_step t r with
          | Some d -> Some (s + (coeff * d))
          | None -> None)))
    (Some 0) (terms v)

(* The single array label an address refers to, if syntactically
   evident: its one [KLab] key at coefficient 1. *)
let label_of_addr (v : lin) : string option =
  match
    KMap.fold
      (fun k co acc ->
        match k, acc with
        | Key.KLab s, `None when co = 1 -> `One s
        | Key.KLab _, `One _ when co = 1 -> `Many
        | _ -> acc)
      v.coeffs `None
  with
  | `One s -> Some s
  | `None | `Many -> None

(* Substitute register-entry keys by their values in [env]; unmapped keys
   are kept. Used to relate a loop body's entry values back to a common
   basis established in the preheader. *)
let subst (env : lin Reg.Map.t) (v : lin) : lin =
  List.fold_left
    (fun acc (k, coeff) ->
      match k with
      | Key.KReg r -> (
        match Reg.Map.find_opt r env with
        | Some m -> add acc (scale coeff m)
        | None -> add acc (scale coeff (of_key k)))
      | Key.KOpq _ | Key.KLab _ | Key.KTrip _ -> add acc (scale coeff (of_key k)))
    (const v.c) (terms v)

(* Synthetic opaque keys for environment composition; the counter starts
   far below the per-analysis merge keys so the namespaces stay
   disjoint. Atomic: analyses run concurrently on worker domains, and
   only freshness (not the specific value) matters. *)
let synth_counter = Atomic.make (-1_000_000)

let fresh_synth () = of_key (Key.KOpq (Atomic.fetch_and_add synth_counter (-1) - 1))

(* [compose base f]: environment after applying [f] (whose KReg keys
   denote values at f's entry) on top of [base]. *)
let compose (base : lin Reg.Map.t) (f : lin Reg.Map.t) : lin Reg.Map.t =
  let substituted = Reg.Map.map (fun v -> subst base v) f in
  Reg.Map.union (fun _ fv _ -> Some fv) substituted base

(* Abstract effect of running an intermediate loop: a register stepped by
   a constant d per iteration becomes entry + d * T(lid) with T unknown
   and non-negative (T = 0 covers a guarded zero-trip skip); any other
   register modified inside the loop becomes opaque. *)
let loop_effect (l : Block.loop) : lin Reg.Map.t =
  let defined =
    List.fold_left
      (fun s i -> List.fold_left (fun s r -> Reg.Set.add r s) s (Insn.defs i))
      Reg.Set.empty
      (Block.insns l.Block.body)
  in
  let steps =
    if Block.is_innermost l then begin
      let lv_body = analyze (Sb.of_loop l) in
      fun r -> iv_step lv_body r
    end
    else fun _ -> None
  in
  Reg.Set.fold
    (fun r env ->
      if r.Reg.cls <> Reg.Int then env
      else
        match steps r with
        | Some 0 -> env
        | Some d ->
          Reg.Map.add r
            (add (of_key (Key.KReg r)) (scale d (of_key (Key.KTrip l.Block.lid))))
            env
        | None -> Reg.Map.add r (fresh_synth ()) env)
    defined Reg.Map.empty

(* Forward evaluation of a loop-preheader region (the items preceding a
   loop in its parent block): returns the linear value of each integer
   register at the end in terms of the values at the start of the region.
   Straight-line chunks (which may contain internal forward branches and
   labels) are analyzed precisely; intermediate loops contribute their
   abstract effect. *)
let env_of_items (items : Block.item list) : lin Reg.Map.t =
  let chunks =
    let rec split acc cur = function
      | [] -> List.rev (`Chunk (List.rev cur) :: acc)
      | Block.Loop l :: rest -> split (`Loop l :: `Chunk (List.rev cur) :: acc) [] rest
      | ((Block.Ins _ | Block.Lbl _) as item) :: rest -> split acc (item :: cur) rest
    in
    split [] [] items
  in
  List.fold_left
    (fun acc part ->
      match part with
      | `Loop l -> compose acc (loop_effect l)
      | `Chunk [] -> acc
      | `Chunk items ->
        let sb = Sb.make ~head:"\000h" ~exit_lbl:"\000x" (Array.of_list items) in
        let lv = analyze sb in
        (match lv.final_env with
        | Some env -> compose acc env
        | None ->
          (* Fall-through end unreachable: nothing flows through. *)
          let defined = Sb.all_defs sb in
          Reg.Set.fold
            (fun r env ->
              if r.Reg.cls = Reg.Int then Reg.Map.add r (fresh_synth ()) env else env)
            defined acc))
    Reg.Map.empty chunks

type relation = Same | Disjoint | May

(* Within-iteration relation between two memory addresses. *)
let relation (a : lin option) (b : lin option) : relation =
  match a, b with
  | Some x, Some y ->
    if same_coeffs x y then if x.c = y.c then Same else Disjoint
    else (
      match label_of_addr x, label_of_addr y with
      | Some la, Some lb when la <> lb -> Disjoint
      | _ -> May)
  | _ -> May
