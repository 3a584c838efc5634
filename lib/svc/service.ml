open Impact_ir
open Impact_core

(* ---- Experiment cache hooks ---- *)

(* Subject digests are content hashes of the AST; memoized per subject
   name so a 40-subject matrix hashes each source once per process.
   (Subjects are immutable for the life of a run; the name is only the
   memo key, the digest is still pure content.) *)
let digest_memo : (string, string) Hashtbl.t = Hashtbl.create 64

let digest_mutex = Mutex.create ()

let subject_digest (s : Experiment.subject) =
  Mutex.lock digest_mutex;
  let d =
    match Hashtbl.find_opt digest_memo s.Experiment.sname with
    | Some d -> d
    | None ->
      let d = Query.subject_digest s.Experiment.ast in
      Hashtbl.replace digest_memo s.Experiment.sname d;
      d
  in
  Mutex.unlock digest_mutex;
  d

let query_of_subject s opts level machine =
  Query.make ~subject:(subject_digest s) ~opts level machine

let install_cache store =
  Experiment.set_cache
    (Some
       {
         Experiment.lookup =
           (fun s opts level machine ->
             Store.lookup store (query_of_subject s opts level machine));
         store =
           (fun s opts level machine m ->
             Store.add store (query_of_subject s opts level machine) m);
       })

let uninstall_cache () = Experiment.set_cache None

(* ---- Request parsing ---- *)

type request = {
  rq_loop : Impact_workloads.Suite.t;
  rq_level : Level.t;
  rq_machine : Machine.t;
  rq_opts : Opts.t;
}

exception Malformed of string

exception Unknown_loop of string

let get_int name = function
  | Json.Int n when n >= 1 -> n
  | Json.Int n -> raise (Malformed (Printf.sprintf "%s must be >= 1, got %d" name n))
  | _ -> raise (Malformed (Printf.sprintf "%s must be an integer" name))

let get_str name = function
  | Json.Str s -> s
  | _ -> raise (Malformed (Printf.sprintf "%s must be a string" name))

let parse_request raw : request =
  let json =
    match Json.parse raw with
    | Ok j -> j
    | Error msg -> raise (Malformed msg)
  in
  let members =
    match json with
    | Json.Obj ms -> ms
    | _ -> raise (Malformed "query must be a JSON object")
  in
  let allowed =
    [ "loop"; "level"; "issue"; "sched"; "unroll"; "fuel"; "core"; "rob"; "phys_regs" ]
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        raise (Malformed (Printf.sprintf "unknown field %S" k)))
    members;
  (match
     List.filter (fun k -> List.length (List.filter (fun (k', _) -> k' = k) members) > 1) allowed
   with
  | [] -> ()
  | k :: _ -> raise (Malformed (Printf.sprintf "duplicate field %S" k)));
  (* [null] fields read as absent, so clients can send fixed shapes. *)
  let field k =
    match List.assoc_opt k members with Some Json.Null -> None | v -> v
  in
  let loop_name =
    match field "loop" with
    | Some v -> get_str "loop" v
    | None -> raise (Malformed "missing required field \"loop\"")
  in
  let level =
    match field "level" with
    | None -> Level.Lev4
    | Some v -> (
      let s = get_str "level" v in
      match Level.of_string s with
      | Some l -> l
      | None -> raise (Malformed (Printf.sprintf "unknown level %S" s)))
  in
  let issue = match field "issue" with None -> 8 | Some v -> get_int "issue" v in
  let sched =
    match field "sched" with
    | None -> `List
    | Some v -> (
      let s = get_str "sched" v in
      match Opts.sched_of_string s with
      | Some sched -> sched
      | None -> raise (Malformed (Printf.sprintf "unknown sched %S" s)))
  in
  let unroll = Option.map (get_int "unroll") (field "unroll") in
  let fuel = Option.map (get_int "fuel") (field "fuel") in
  let rob = Option.map (get_int "rob") (field "rob") in
  let phys_regs = Option.map (get_int "phys_regs") (field "phys_regs") in
  let core =
    match field "core" with
    | None -> `Inorder
    | Some v -> (
      match get_str "core" v with
      | "inorder" -> `Inorder
      | "ooo" -> `Ooo
      | s -> raise (Malformed (Printf.sprintf "unknown core %S" s)))
  in
  let machine =
    match core with
    | `Inorder ->
      (match rob, phys_regs with
      | None, None -> ()
      | _ -> raise (Malformed "\"rob\"/\"phys_regs\" require \"core\": \"ooo\""));
      Machine.make ~issue ()
    | `Ooo ->
      let rob = Option.value rob ~default:32 in
      Machine.ooo ?phys_regs ~issue ~rob ()
  in
  let loop =
    match Impact_workloads.Suite.find loop_name with
    | Some w -> w
    | None -> raise (Unknown_loop loop_name)
  in
  {
    rq_loop = loop;
    rq_level = level;
    rq_machine = machine;
    rq_opts = { Opts.unroll; sched; fuel };
  }

(* ---- Evaluation ---- *)

let subject_of_workload (w : Impact_workloads.Suite.t) : Experiment.subject =
  {
    Experiment.sname = w.Impact_workloads.Suite.name;
    group = Impact_workloads.Suite.ltype_to_string w.Impact_workloads.Suite.ltype;
    ast = w.Impact_workloads.Suite.ast;
  }

(* The cell measurement, through the store when one is given. Returns
   the cache disposition for the response record. *)
let measure_cell ~store (rq : request) q =
  let compute () =
    Compile.measure_with rq.rq_opts rq.rq_level rq.rq_machine
      (Impact_fir.Lower.lower rq.rq_loop.Impact_workloads.Suite.ast)
  in
  match store with
  | None -> ("off", compute ())
  | Some st -> (
    match Store.lookup st q with
    | Some m -> ("hit", m)
    | None ->
      let m = compute () in
      Store.add st q m;
      ("miss", m))

(* Returns the response object together with the cache disposition, so
   the network layer can stamp its request-lifecycle records without
   re-parsing the response. *)
let response_of_request ~store ~line (rq : request) : Json.t * string =
  (* Through the memoized subject digest: the AST hashes once per loop
     name per process, not once per request. *)
  let q =
    query_of_subject (subject_of_workload rq.rq_loop) rq.rq_opts rq.rq_level
      rq.rq_machine
  in
  let cache, m = measure_cell ~store rq q in
  (* Speedup against the paper's issue-1 Conv baseline; served from the
     process-wide base cache (which itself consults the installed
     Experiment hooks, i.e. the same store). *)
  let base =
    Experiment.base_measurement_with rq.rq_opts (subject_of_workload rq.rq_loop)
  in
  let opt_int = function None -> Json.Null | Some n -> Json.Int n in
  let obj =
    Json.Obj
    [
      ("ok", Json.Bool true);
      ("line", Json.Int line);
      ("loop", Json.Str rq.rq_loop.Impact_workloads.Suite.name);
      ("level", Json.Str (Level.to_string rq.rq_level));
      ("machine", Json.Str rq.rq_machine.Machine.name);
      ("issue", Json.Int rq.rq_machine.Machine.issue);
      ( "core",
        Json.Str
          (match rq.rq_machine.Machine.core with
          | Machine.Inorder -> "inorder"
          | Machine.Ooo _ -> "ooo") );
      ( "rob",
        match rq.rq_machine.Machine.core with
        | Machine.Inorder -> Json.Null
        | Machine.Ooo { rob; _ } -> Json.Int rob );
      ( "phys_regs",
        match rq.rq_machine.Machine.core with
        | Machine.Inorder -> Json.Null
        | Machine.Ooo { phys_regs; _ } -> Json.Int phys_regs );
      ("sched", Json.Str (Opts.sched_to_string rq.rq_opts.Opts.sched));
      ("unroll", opt_int rq.rq_opts.Opts.unroll);
      ("fuel", opt_int rq.rq_opts.Opts.fuel);
      ("digest", Json.Str (Query.digest q));
      ("cache", Json.Str cache);
      ("cycles", Json.Int m.Compile.cycles);
      ("dyn_insns", Json.Int m.Compile.dyn_insns);
      ("speedup", Json.Float (Compile.speedup ~base ~this:m));
      ("int_regs", Json.Int m.Compile.usage.Impact_regalloc.Regalloc.int_used);
      ("float_regs", Json.Int m.Compile.usage.Impact_regalloc.Regalloc.float_used);
    ]
  in
  (obj, cache)

let error_record ~line ~error ~detail =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ("line", Json.Int line);
      ("error", Json.Str error);
      ("detail", Json.Str detail);
    ]

type answer = {
  a_text : string;
  a_ok : bool;
  a_cache : string option;
  a_loop : string option;
}

let answer_line_ex ~store ~line raw =
  let err ?loop ~error ~detail () =
    {
      a_text = Json.to_string (error_record ~line ~error ~detail);
      a_ok = false;
      a_cache = None;
      a_loop = loop;
    }
  in
  match parse_request raw with
  | exception Malformed detail -> err ~error:"malformed query" ~detail ()
  | exception Unknown_loop name ->
    err ~loop:name ~error:"unknown loop"
      ~detail:(Printf.sprintf "no loop nest named %S (try `impactc list`)" name)
      ()
  | rq -> (
    let loop = rq.rq_loop.Impact_workloads.Suite.name in
    match response_of_request ~store ~line rq with
    | r, cache ->
      { a_text = Json.to_string r; a_ok = true; a_cache = Some cache;
        a_loop = Some loop }
    | exception Impact_sim.Sim.Timeout ->
      err ~loop ~error:"sim timeout"
        ~detail:"simulation fuel exhausted; raise \"fuel\" or drop it" ())

let answer_line ~store ~line raw = (answer_line_ex ~store ~line raw).a_text

let is_blank s = String.trim s = ""

(* ---- Input lines ----

   A request line is either its raw text or an [Oversized] marker when
   it blew through the reader's byte bound. The bound exists because a
   single unterminated multi-gigabyte line would otherwise buffer
   unboundedly before the parser even saw it; an oversized line is
   answered with a structured record, like every other client error,
   and carries the bound it exceeded so the record can say so. *)

type input = Line of string | Oversized of int

let default_max_line = 1 lsl 20

let too_long_record ~line ~max_line =
  Json.to_string
    (error_record ~line ~error:"line too long"
       ~detail:
         (Printf.sprintf
            "request line exceeds %d bytes; split the request or raise the line bound"
            max_line))

let serve_inputs ?workers ~store inputs =
  let numbered =
    List.mapi (fun k inp -> (k + 1, inp)) inputs
    |> List.filter (fun (_, inp) ->
         match inp with Line s -> not (is_blank s) | Oversized _ -> true)
  in
  Impact_exec.Pool.map_list ?workers
    (fun (line, inp) ->
      match inp with
      | Line raw -> answer_line ~store ~line raw
      | Oversized max_line -> too_long_record ~line ~max_line)
    numbered

let serve_lines ?workers ~store lines =
  serve_inputs ?workers ~store (List.map (fun l -> Line l) lines)

let read_lines ?(max_line = default_max_line) ic =
  let buf = Buffer.create 256 in
  let acc = ref [] in
  (* [over] set: the current line already exceeded the bound; its bytes
     are discarded until the newline, so memory stays O(max_line). *)
  let over = ref false in
  let flush_line () =
    acc := (if !over then Oversized max_line else Line (Buffer.contents buf)) :: !acc;
    Buffer.clear buf;
    over := false
  in
  let rec go () =
    match input_char ic with
    | '\n' ->
      flush_line ();
      go ()
    | c ->
      if not !over then begin
        if Buffer.length buf >= max_line then begin
          Buffer.clear buf;
          over := true
        end
        else Buffer.add_char buf c
      end;
      go ()
    | exception End_of_file ->
      if Buffer.length buf > 0 || !over then flush_line ()
  in
  go ();
  List.rev !acc

let run_channel ?workers ?max_line ~store ic oc =
  List.iter
    (fun response ->
      output_string oc response;
      output_char oc '\n')
    (serve_inputs ?workers ~store (read_lines ?max_line ic));
  flush oc
