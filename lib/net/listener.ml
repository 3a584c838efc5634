module Obs = Impact_obs.Obs
module Json = Impact_svc.Json
module Store = Impact_svc.Store
module Service = Impact_svc.Service
module Pool = Impact_exec.Pool

type config = {
  host : string;
  port : int;
  workers : int option;
  queue_depth : int;
  deadline_ms : int option;
  max_line : int;
  faults : Faults.t;
  store : Store.t option;
  access_log : string option;  (* JSONL per-request timing log *)
  trace_sample : int option;  (* trace spans for 1-in-N connections *)
}

let default_config ?store () =
  {
    host = "127.0.0.1";
    port = 0;
    workers = None;
    queue_depth = 64;
    deadline_ms = None;
    max_line = Service.default_max_line;
    faults = Faults.none;
    store;
    access_log = None;
    trace_sample = None;
  }

type stats = {
  accepted : int;
  requests : int;
  responses : int;
  shed : int;
  deadlined : int;
  too_long : int;
  dropped_conns : int;
}

(* ---- Request lifecycle ----

   Every answered line carries one of these through the cell queue: the
   event loop stamps read/admit, the worker stamps eval start/done (and
   the outcome), and the flush callback — the only place that knows when
   the bytes actually left — closes it out: histograms, the access log
   and the sampled trace spans are all fed at write-flush time. *)

type lifecycle = {
  lc_conn : int;
  lc_line : int;
  lc_read : float;  (* request line fully read *)
  mutable lc_admit : float;  (* accepted by the executor queue *)
  mutable lc_start : float;  (* evaluation started *)
  mutable lc_done : float;  (* response text ready *)
  mutable lc_kind : string;  (* query | health | metrics | too_long *)
  mutable lc_outcome : string;  (* ok | error | shed | deadline *)
  mutable lc_cache : string option;  (* hit | miss | off *)
  mutable lc_loop : string option;
}

let lifecycle ~conn ~line ~kind t_read =
  {
    lc_conn = conn;
    lc_line = line;
    lc_read = t_read;
    lc_admit = t_read;
    lc_start = t_read;
    lc_done = t_read;
    lc_kind = kind;
    lc_outcome = "ok";
    lc_cache = None;
    lc_loop = None;
  }

(* ---- Per-connection state ----

   The loop owns everything here except [c_resp], which a worker domain
   fills ([Atomic.set], then a self-pipe ring). The cell queue holds
   answered-but-not-yet-serialized lines in request order; the loop pops
   the filled prefix into the write queue, so pipelined evaluation may
   complete out of order while the wire order never does. *)

type cell = { c_resp : string option Atomic.t; c_lc : lifecycle }

type conn = {
  cn_id : int;
  cn_fd : Unix.file_descr;
  cn_sampled : bool;
  cn_rd_faults : Faults.stream;
  cn_wr_faults : Faults.stream;
  cn_framer : Service.Framer.t;
  mutable cn_lineno : int;
  cn_cells : cell Queue.t;
  cn_out : Evloop.Outq.t;
  mutable cn_read_open : bool;  (* still reading request bytes *)
  mutable cn_alive : bool;  (* write side still usable *)
  mutable cn_want_write : bool;  (* outq blocked; arm write interest *)
}

type t = {
  cfg : config;
  lfd : Unix.file_descr;
  lport : int;
  exec : Pool.executor;
  started_at : float;
  wake : Evloop.Wake.t;
  draining : bool Atomic.t;
  stop_sent : bool Atomic.t;
  finished : bool Atomic.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* loop-owned, keyed by socket *)
  mutable next_conn : int;
  mutable active : int;
  mutable accepting : bool;
  mutable loop_thread : Thread.t option;
  c_accepted : int Atomic.t;
  c_requests : int Atomic.t;
  c_responses : int Atomic.t;
  c_shed : int Atomic.t;
  c_deadlined : int Atomic.t;
  c_too_long : int Atomic.t;
  c_dropped : int Atomic.t;
  access : out_channel option;
}

let port t = t.lport

let stats t =
  {
    accepted = Atomic.get t.c_accepted;
    requests = Atomic.get t.c_requests;
    responses = Atomic.get t.c_responses;
    shed = Atomic.get t.c_shed;
    deadlined = Atomic.get t.c_deadlined;
    too_long = Atomic.get t.c_too_long;
    dropped_conns = Atomic.get t.c_dropped;
  }

(* ---- Response records owned by the network layer ---- *)

let overloaded_record ~line ~capacity =
  Service.error_record ~line ~error:"overloaded"
    ~detail:
      (Printf.sprintf "admission queue full (capacity %d); retry later" capacity)

let deadline_record ~line ~deadline_ms =
  Service.error_record ~line ~error:"deadline"
    ~detail:
      (Printf.sprintf "deadline of %d ms exceeded before evaluation" deadline_ms)

let health_record t ~line =
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool true);
         ("line", Json.Int line);
         ("op", Json.Str "health");
         ("uptime_s", Json.Float (Obs.now () -. t.started_at));
         ("queue_depth", Json.Int (Pool.queue_length t.exec));
         ("queue_capacity", Json.Int t.cfg.queue_depth);
         ("running", Json.Int (Pool.running t.exec));
         ("workers", Json.Int (Pool.executor_workers t.exec));
         ("conns", Json.Int t.active);
         ("accepted", Json.Int (Atomic.get t.c_accepted));
         ("requests", Json.Int (Atomic.get t.c_requests));
         ("responses", Json.Int (Atomic.get t.c_responses));
         ("shed", Json.Int (Atomic.get t.c_shed));
         ("deadline", Json.Int (Atomic.get t.c_deadlined));
         ("draining", Json.Bool (Atomic.get t.draining));
         ( "cache",
           Option.fold ~none:Json.Null
             ~some:(fun st -> Json.Obj (Store.stats_json st))
             t.cfg.store );
       ])

(* One histogram as JSON: exact integer state (count, sum, sparse
   buckets) plus the extracted percentiles the dashboards want. The
   overflow bucket renders its bound as [null]. *)
let hist_json (h : Obs.Hist.snapshot) =
  let le = ref [] and n = ref [] in
  for k = Obs.Hist.buckets - 1 downto 0 do
    if h.Obs.Hist.h_buckets.(k) > 0 then begin
      le :=
        (if k < Array.length Obs.Hist.bounds then Json.Float Obs.Hist.bounds.(k)
         else Json.Null)
        :: !le;
      n := Json.Int h.Obs.Hist.h_buckets.(k) :: !n
    end
  done;
  let p q = Json.Float (Obs.Hist.percentile h q *. 1e3) in
  Json.Obj
    [
      ("count", Json.Int h.Obs.Hist.h_count);
      ("sum_ms", Json.Float (float_of_int h.Obs.Hist.h_sum_ns *. 1e-6));
      ("p50_ms", p 50.0);
      ("p90_ms", p 90.0);
      ("p99_ms", p 99.0);
      ("p999_ms", p 99.9);
      ("buckets", Json.Obj [ ("le_s", Json.List !le); ("count", Json.List !n) ]);
    ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The full observability snapshot behind [{"op": "metrics"}]: request
   latency histograms, executor occupancy and lifetime accounting,
   request counters and cache statistics — one JSON line, served inline
   so it stays readable under full overload, exactly like health. *)
let metrics_record t ~line =
  let ex = Pool.executor_stats t.exec in
  let hists =
    List.filter
      (fun (h : Obs.Hist.snapshot) ->
        starts_with ~prefix:"serve." h.Obs.Hist.h_name)
      (Obs.Hist.snapshot ())
  in
  Json.to_string
    (Json.Obj
       [
         ("ok", Json.Bool true);
         ("line", Json.Int line);
         ("op", Json.Str "metrics");
         ("uptime_s", Json.Float (Obs.now () -. t.started_at));
         ("conns", Json.Int t.active);
         ("draining", Json.Bool (Atomic.get t.draining));
         ( "executor",
           Json.Obj
             [
               ("queue_depth", Json.Int (Pool.queue_length t.exec));
               ("queue_capacity", Json.Int t.cfg.queue_depth);
               ("running", Json.Int (Pool.running t.exec));
               ("workers", Json.Int (Pool.executor_workers t.exec));
               ("submitted", Json.Int ex.Pool.submitted);
               ("completed", Json.Int ex.Pool.completed);
               ("rejected", Json.Int ex.Pool.rejected);
               ("peak_queue", Json.Int ex.Pool.peak_queue);
             ] );
         ( "counters",
           Json.Obj
             [
               ("accepted", Json.Int (Atomic.get t.c_accepted));
               ("requests", Json.Int (Atomic.get t.c_requests));
               ("responses", Json.Int (Atomic.get t.c_responses));
               ("shed", Json.Int (Atomic.get t.c_shed));
               ("deadline", Json.Int (Atomic.get t.c_deadlined));
               ("too_long", Json.Int (Atomic.get t.c_too_long));
               ("dropped_conns", Json.Int (Atomic.get t.c_dropped));
             ] );
         ( "cache",
           Option.fold ~none:Json.Null
             ~some:(fun st -> Json.Obj (Store.stats_json st))
             t.cfg.store );
         ( "histograms",
           Json.Obj
             (List.map
                (fun (h : Obs.Hist.snapshot) -> (h.Obs.Hist.h_name, hist_json h))
                hists) );
       ])

(* Queue-bypassing introspection ops, answered inline on the event loop
   so they work under full overload. *)
let inline_op raw =
  match Json.parse raw with
  | Ok j -> (
    match Json.member "op" j with
    | Some (Json.Str "health") -> Some `Health
    | Some (Json.Str "metrics") -> Some `Metrics
    | _ -> None)
  | Error _ -> None

let opt_str = function None -> Json.Null | Some s -> Json.Str s

(* Close out one request at write-flush time [t1]: feed the latency
   histograms (total split by outcome; queue wait and eval time for
   requests that went through the executor), append the access-log
   record, and emit Chrome-trace spans when this connection is
   sampled. *)
let finish_lifecycle t lc ~t1 ~bytes ~wrote ~sampled =
  let queued = lc.lc_kind = "query" && lc.lc_outcome <> "shed" in
  let evaluated = queued && lc.lc_outcome <> "deadline" in
  Obs.Hist.observe ("serve.latency.total." ^ lc.lc_outcome) (t1 -. lc.lc_read);
  if queued then Obs.Hist.observe "serve.latency.queue" (lc.lc_start -. lc.lc_admit);
  if evaluated then Obs.Hist.observe "serve.latency.eval" (lc.lc_done -. lc.lc_start);
  Obs.Hist.observe "serve.latency.write" (t1 -. lc.lc_done);
  (match t.access with
  | None -> ()
  | Some ch ->
    let ms a b = Json.Float (Float.max 0.0 ((b -. a) *. 1e3)) in
    let record =
      Json.Obj
        [
          ("ts_s", Json.Float (lc.lc_read -. t.started_at));
          ("conn", Json.Int lc.lc_conn);
          ("line", Json.Int lc.lc_line);
          ("event", Json.Str lc.lc_kind);
          ("outcome", Json.Str lc.lc_outcome);
          ("cache", opt_str lc.lc_cache);
          ("loop", opt_str lc.lc_loop);
          ("total_ms", ms lc.lc_read t1);
          ("queue_ms", if queued then ms lc.lc_admit lc.lc_start else Json.Null);
          ("eval_ms", if evaluated then ms lc.lc_start lc.lc_done else Json.Null);
          ("write_ms", ms lc.lc_done t1);
          ("bytes", Json.Int bytes);
          ("wrote", Json.Bool wrote);
        ]
    in
    output_string ch (Json.to_string record);
    output_char ch '\n';
    flush ch);
  if sampled then begin
    let label =
      match lc.lc_loop with
      | Some l -> Printf.sprintf "req %s" l
      | None -> Printf.sprintf "req %s" lc.lc_kind
    in
    let args =
      [
        ("line", string_of_int lc.lc_line);
        ("outcome", lc.lc_outcome);
        ("cache", Option.value ~default:"-" lc.lc_cache);
      ]
    in
    Obs.event ~cat:"serve" ~args ~tid:lc.lc_conn label ~t0:lc.lc_read ~t1;
    if queued then
      Obs.event ~cat:"serve" ~tid:lc.lc_conn "queue" ~t0:lc.lc_admit
        ~t1:lc.lc_start;
    if evaluated then
      Obs.event ~cat:"serve" ~tid:lc.lc_conn "eval" ~t0:lc.lc_start
        ~t1:lc.lc_done;
    Obs.event ~cat:"serve" ~tid:lc.lc_conn "write" ~t0:lc.lc_done ~t1
  end

(* ---- Request handling (on the loop thread) ---- *)

let push_cell cn lc =
  let c = { c_resp = Atomic.make None; c_lc = lc } in
  Queue.add c cn.cn_cells;
  c

let fill cell resp =
  cell.c_lc.lc_done <- Obs.now ();
  Atomic.set cell.c_resp (Some resp)

let handle_request t cn ~t_read raw =
  let line = cn.cn_lineno in
  Atomic.incr t.c_requests;
  if Faults.slow_read cn.cn_rd_faults then Faults.delay cn.cn_rd_faults;
  match inline_op raw with
  | Some `Health ->
    let c = push_cell cn (lifecycle ~conn:cn.cn_id ~line ~kind:"health" t_read) in
    fill c (health_record t ~line)
  | Some `Metrics ->
    let c = push_cell cn (lifecycle ~conn:cn.cn_id ~line ~kind:"metrics" t_read) in
    fill c (metrics_record t ~line)
  | None ->
    let cfg = t.cfg in
    let slow = Faults.slow_cell cn.cn_rd_faults in
    let lc = lifecycle ~conn:cn.cn_id ~line ~kind:"query" t_read in
    let c = push_cell cn lc in
    let arrival = Obs.now () in
    let expired () =
      match cfg.deadline_ms with
      | None -> false
      | Some ms -> (Obs.now () -. arrival) *. 1000.0 > float_of_int ms
    in
    let deadlined () =
      Atomic.incr t.c_deadlined;
      lc.lc_outcome <- "deadline";
      deadline_record ~line ~deadline_ms:(Option.get cfg.deadline_ms)
    in
    let answer () =
      if expired () then deadlined ()
      else begin
        if slow then Faults.delay cn.cn_rd_faults;
        if expired () then deadlined ()
        else begin
          let a = Service.answer_line_ex ~store:cfg.store ~line raw in
          lc.lc_outcome <- (if a.Service.a_ok then "ok" else "error");
          lc.lc_cache <- a.Service.a_cache;
          lc.lc_loop <- a.Service.a_loop;
          a.Service.a_text
        end
      end
    in
    let job () =
      lc.lc_start <- Obs.now ();
      fill c
        (try answer ()
         with e ->
           lc.lc_outcome <- "error";
           Service.error_record ~line ~error:"internal error"
             ~detail:(Printexc.to_string e))
    in
    lc.lc_admit <- Obs.now ();
    if not (Pool.submit t.exec job) then begin
      Atomic.incr t.c_shed;
      lc.lc_outcome <- "shed";
      let now = Obs.now () in
      lc.lc_admit <- now;
      lc.lc_start <- now;
      fill c (overloaded_record ~line ~capacity:cfg.queue_depth)
    end

let handle_line t cn item =
  cn.cn_lineno <- cn.cn_lineno + 1;
  let t_read = Obs.now () in
  match item with
  | Service.Oversized max_line ->
    Atomic.incr t.c_too_long;
    let lc =
      lifecycle ~conn:cn.cn_id ~line:cn.cn_lineno ~kind:"too_long" t_read
    in
    lc.lc_outcome <- "error";
    let c = push_cell cn lc in
    fill c (Service.too_long_record ~line:cn.cn_lineno ~max_line)
  | Service.Line raw -> if String.trim raw <> "" then handle_request t cn ~t_read raw

(* End of the request stream (EOF, error, sever or drain): the
   unterminated tail counts as a final line, like the batch reader. *)
let close_read t cn =
  if cn.cn_read_open then begin
    cn.cn_read_open <- false;
    match Service.Framer.final cn.cn_framer with
    | Some item -> handle_line t cn item
    | None -> ()
  end

let read_chunk t cn buf =
  match Unix.read cn.cn_fd buf 0 (Bytes.length buf) with
  | 0 -> close_read t cn
  | n -> Service.Framer.feed cn.cn_framer buf n (fun item -> handle_line t cn item)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) -> close_read t cn

(* Mid-line disconnect delivered: sever both directions so the peer sees
   the cut, and stop reading. The unterminated input tail still counts
   as a final (never-written) request, exactly as an EOF would. *)
let sever t cn =
  (try Unix.shutdown cn.cn_fd Unix.SHUTDOWN_ALL with _ -> ());
  cn.cn_alive <- false;
  close_read t cn

(* Serialize the filled prefix of the cell queue into the write queue.
   While the connection is alive every consumed cell draws the writer
   fault stream in response order (deterministic replay); after a sever
   or write error, cells are still consumed and closed out — so the
   access log carries exactly one record per answered request line —
   but nothing further hits the wire. *)
let promote t cn =
  while
    (not (Queue.is_empty cn.cn_cells))
    && Atomic.get (Queue.peek cn.cn_cells).c_resp <> None
  do
    let cell = Queue.pop cn.cn_cells in
    let resp = Option.get (Atomic.get cell.c_resp) in
    if cn.cn_alive then
      if Faults.drop_conn cn.cn_wr_faults then begin
        (* Mid-line disconnect: half the response on the wire, then
           sever both directions once the torn bytes have flushed — so
           the torn tail is the last thing the peer ever sees. *)
        Atomic.incr t.c_dropped;
        cn.cn_alive <- false;
        Evloop.Outq.push cn.cn_out
          ~on_flush:(fun ~wrote:_ -> sever t cn)
          (String.sub resp 0 ((String.length resp + 1) / 2));
        finish_lifecycle t cell.c_lc ~t1:(Obs.now ())
          ~bytes:(String.length resp) ~wrote:false ~sampled:cn.cn_sampled
      end
      else
        Evloop.Outq.push cn.cn_out
          ~on_flush:(fun ~wrote ->
            if wrote then Atomic.incr t.c_responses;
            finish_lifecycle t cell.c_lc ~t1:(Obs.now ())
              ~bytes:(String.length resp) ~wrote ~sampled:cn.cn_sampled)
          (resp ^ "\n")
    else
      finish_lifecycle t cell.c_lc ~t1:(Obs.now ())
        ~bytes:(String.length resp) ~wrote:false ~sampled:cn.cn_sampled
  done

let flush_out cn =
  if not (Evloop.Outq.is_empty cn.cn_out) then
    match Evloop.Outq.flush cn.cn_out cn.cn_fd with
    | `Drained -> cn.cn_want_write <- false
    | `Blocked -> cn.cn_want_write <- true
    | `Error ->
      (* The flush aborted the queue (callbacks fired unwritten); stop
         producing output but keep consuming cells and, until EOF,
         request bytes — exactly like the old writer/reader split. *)
      cn.cn_want_write <- false;
      cn.cn_alive <- false

let conn_finished cn =
  (not cn.cn_read_open)
  && Queue.is_empty cn.cn_cells
  && Evloop.Outq.is_empty cn.cn_out

let close_conn t cn =
  (try Unix.close cn.cn_fd with _ -> ());
  Hashtbl.remove t.conns cn.cn_fd;
  t.active <- t.active - 1

let accept_burst t =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.lfd with
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
      ->
      continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
    | fd, _ ->
      Atomic.incr t.c_accepted;
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
      let id = t.next_conn in
      t.next_conn <- id + 1;
      let cfg = t.cfg in
      let sampled =
        match cfg.trace_sample with
        | Some n when n > 0 -> id mod n = 0
        | _ -> false
      in
      let cn =
        {
          cn_id = id;
          cn_fd = fd;
          cn_sampled = sampled;
          cn_rd_faults = Faults.stream cfg.faults ~conn:id ~channel:0;
          cn_wr_faults = Faults.stream cfg.faults ~conn:id ~channel:1;
          cn_framer = Service.Framer.create ~max_line:cfg.max_line;
          cn_lineno = 0;
          cn_cells = Queue.create ();
          cn_out = Evloop.Outq.create ();
          cn_read_open = true;
          cn_alive = true;
          cn_want_write = false;
        }
      in
      Hashtbl.replace t.conns fd cn;
      t.active <- t.active + 1
  done

let begin_drain t =
  if t.accepting then begin
    t.accepting <- false;
    (try Unix.close t.lfd with _ -> ());
    (* No new requests: every connection's unread bytes are abandoned,
       its partial line counts as final, and whatever was already read
       is evaluated, written and flushed before the loop exits. *)
    Hashtbl.iter (fun _ cn -> close_read t cn) t.conns
  end

let event_loop t =
  let buf = Bytes.create 4096 in
  let rec iterate () =
    if Atomic.get t.draining then begin_drain t;
    (* Serialize completed answers, then push bytes opportunistically:
       a nonblocking write needs no readiness round-trip. *)
    Hashtbl.iter
      (fun _ cn ->
        promote t cn;
        flush_out cn)
      t.conns;
    (* Reap connections that have fully finished. *)
    let dead =
      Hashtbl.fold (fun _ cn acc -> if conn_finished cn then cn :: acc else acc)
        t.conns []
    in
    List.iter (fun cn -> close_conn t cn) dead;
    if Atomic.get t.draining && Hashtbl.length t.conns = 0 then ()
    else begin
      let rds = ref [ Evloop.Wake.fd t.wake ] in
      if t.accepting then rds := t.lfd :: !rds;
      let wrs = ref [] in
      Hashtbl.iter
        (fun fd cn ->
          if cn.cn_read_open then rds := fd :: !rds;
          if cn.cn_want_write then wrs := fd :: !wrs)
        t.conns;
      match Unix.select !rds !wrs [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> iterate ()
      | r, w, _ ->
        Evloop.Wake.drain t.wake;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt t.conns fd with
            | Some cn when cn.cn_want_write -> flush_out cn
            | _ -> ())
          w;
        List.iter
          (fun fd ->
            if t.accepting && fd = t.lfd then accept_burst t
            else if fd <> Evloop.Wake.fd t.wake then
              match Hashtbl.find_opt t.conns fd with
              | Some cn when cn.cn_read_open -> read_chunk t cn buf
              | _ -> ())
          r;
        iterate ()
    end
  in
  iterate ();
  Pool.shutdown_executor t.exec;
  (match t.access with
  | Some ch -> ( try close_out ch with _ -> ())
  | None -> ());
  Evloop.Wake.close t.wake;
  Atomic.set t.finished true

(* ---- Lifecycle ---- *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) -> failwith (Printf.sprintf "cannot resolve host %S" host))

let start cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd (Unix.ADDR_INET (resolve_host cfg.host, cfg.port));
     Unix.listen lfd 128
   with
  | () -> ()
  | exception e ->
    (try Unix.close lfd with _ -> ());
    raise e);
  Unix.set_nonblock lfd;
  let lport =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let access =
    match cfg.access_log with
    | None -> None
    | Some path -> (
      match open_out path with
      | ch -> Some ch
      | exception e ->
        (try Unix.close lfd with _ -> ());
        raise e)
  in
  let wake = Evloop.Wake.create () in
  let t =
    {
      cfg;
      lfd;
      lport;
      exec =
        Pool.create_executor ?workers:cfg.workers
          ~on_complete:(fun () -> Evloop.Wake.ring wake)
          ~queue_depth:cfg.queue_depth ();
      started_at = Obs.now ();
      wake;
      draining = Atomic.make false;
      stop_sent = Atomic.make false;
      finished = Atomic.make false;
      conns = Hashtbl.create 64;
      next_conn = 0;
      active = 0;
      accepting = true;
      loop_thread = None;
      c_accepted = Atomic.make 0;
      c_requests = Atomic.make 0;
      c_responses = Atomic.make 0;
      c_shed = Atomic.make 0;
      c_deadlined = Atomic.make 0;
      c_too_long = Atomic.make 0;
      c_dropped = Atomic.make 0;
      access;
    }
  in
  t.loop_thread <- Some (Thread.create (fun () -> event_loop t) ());
  t

let stop t =
  if not (Atomic.exchange t.stop_sent true) then begin
    Atomic.set t.draining true;
    Evloop.Wake.ring t.wake
  end

let wait t =
  (* Sleep-poll instead of a bare join: a thread parked in Thread.join
     executes no OCaml code, so pending signal handlers (SIGTERM ->
     [stop]) would never run while the server idles. Between delays the
     caller passes safepoints, handlers fire, and the drain proceeds. *)
  while not (Atomic.get t.finished) do
    Thread.delay 0.05
  done;
  match t.loop_thread with Some th -> Thread.join th | None -> ()
