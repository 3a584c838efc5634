(* Tests for the TCP query service (lib/net):

   - Differential oracle: every response line a TCP client reads is
     byte-identical to [Service.serve_lines] on the same input, for the
     full 40-kernel corpus, at 1 and 8 executor workers, with pipelined
     concurrent clients on shuffled corpora, and with benign fault
     injection (delays only) enabled.
   - Fault modes: slow_cell + deadline turns every request into a
     structured "deadline" record; drop_conn severs mid-line and loses
     only that connection's remaining responses; the server survives.
   - Admission control: a full queue sheds with "overloaded" records,
     in order, one response per request.
   - Health, blank-line numbering, oversized lines, graceful drain with
     in-flight work.
   - qcheck property: random interleavings of valid/malformed/oversized/
     blank lines over concurrent connections never crash the server,
     never reorder a connection's responses, and always produce exactly
     one response per (non-blank) request line.
   - Event loop: 64 concurrent pipelined connections match the oracle;
     byte-by-byte clients exercise partial-line framing; EOF treats an
     unterminated tail as a final request.
   - Start-up: a start that fails after binding raises and releases
     its port and descriptors.
   - Faults spec parsing. *)

module Listener = Impact_net.Listener
module Faults = Impact_net.Faults
module Service = Impact_svc.Service
module Json = Impact_svc.Json
module Store = Impact_svc.Store
module Suite = Impact_workloads.Suite
module Obs = Impact_obs.Obs

let fresh_dir () =
  let f = Filename.temp_file "impact-net" ".cache" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

(* ---- Corpus and oracle ----

   One query per Table-2 kernel, levels and issue rates assigned
   round-robin so the corpus spans the whole configuration space. The
   oracle is the in-process batch service on the same lines; both sides
   run store-less so cache dispositions cannot differ. *)

let corpus =
  lazy
    (List.mapi
       (fun i (w : Suite.t) ->
         let level = List.nth [ "Conv"; "Lev1"; "Lev2"; "Lev3"; "Lev4" ] (i mod 5) in
         let issue = List.nth [ 2; 4; 8 ] (i mod 3) in
         Printf.sprintf "{\"loop\": \"%s\", \"level\": \"%s\", \"issue\": %d}"
           w.Suite.name level issue)
       Suite.all)

let oracle = lazy (Service.serve_lines ~workers:2 ~store:None (Lazy.force corpus))

let cheap_queries =
  [
    "{\"loop\": \"add\", \"level\": \"Conv\", \"issue\": 2}";
    "{\"loop\": \"sum\", \"level\": \"Conv\", \"issue\": 2}";
    "{\"loop\": \"dotprod\", \"level\": \"Conv\", \"issue\": 2}";
  ]

(* ---- Client helpers ---- *)

let with_client port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) (fun () -> f fd)

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* Send every line, then half-close so the server sees EOF and closes
   after flushing its responses. *)
let send_lines fd lines =
  send_all fd (String.concat "\n" lines ^ "\n");
  Unix.shutdown fd Unix.SHUTDOWN_SEND

(* Read to EOF; split into (complete lines, partial tail). A receive
   timeout (SO_RCVTIMEO) fails the test instead of hanging it. *)
let recv_all fd =
  let buf = Bytes.create 65536 in
  let b = Buffer.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b buf 0 n;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "client receive timed out"
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  go ();
  let s = Buffer.contents b in
  match List.rev (String.split_on_char '\n' s) with
  | tail :: rev_lines -> (List.rev rev_lines, tail)
  | [] -> ([], "")

let with_listener cfg f =
  let t = Listener.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Listener.stop t;
      Listener.wait t)
    (fun () -> f t)

let check_lines name expected got =
  Helpers.check_int (name ^ ": response count") (List.length expected)
    (List.length got);
  List.iteri
    (fun k (e, g) -> Helpers.check_string (Printf.sprintf "%s: line %d" name (k + 1)) e g)
    (List.combine expected got)

let parse_resp name a =
  match Json.parse a with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: response not JSON (%s): %s" name msg a

let field name j k =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing field %S" name k

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- Differential oracle ---- *)

let test_oracle_j1 () =
  let cfg =
    { (Listener.default_config ()) with Listener.workers = Some 1; queue_depth = 512 }
  in
  with_listener cfg @@ fun t ->
  let lines, tail =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd (Lazy.force corpus);
    recv_all fd
  in
  Helpers.check_string "no partial tail" "" tail;
  check_lines "oracle -j1" (Lazy.force oracle) lines

let test_oracle_j8_concurrent_shuffled () =
  let clients = 3 in
  let cases =
    List.init clients (fun c ->
      let lines = shuffle (Random.State.make [| 17; c |]) (Lazy.force corpus) in
      (lines, Service.serve_lines ~workers:2 ~store:None lines))
  in
  let cfg =
    { (Listener.default_config ()) with Listener.workers = Some 8; queue_depth = 512 }
  in
  with_listener cfg @@ fun t ->
  let failures = ref [] in
  let fail_m = Mutex.create () in
  let run_client c (lines, expected) =
    try
      let got, tail =
        with_client (Listener.port t) @@ fun fd ->
        send_lines fd lines;
        recv_all fd
      in
      if tail <> "" then failwith "partial tail";
      if got <> expected then failwith "responses differ from serve_lines oracle"
    with e ->
      Mutex.lock fail_m;
      failures := Printf.sprintf "client %d: %s" c (Printexc.to_string e) :: !failures;
      Mutex.unlock fail_m
  in
  let threads = List.mapi (fun c case -> Thread.create (run_client c) case) cases in
  List.iter Thread.join threads;
  match !failures with
  | [] -> ()
  | fs -> Alcotest.failf "concurrent oracle: %s" (String.concat "; " fs)

let test_oracle_benign_faults () =
  (* Delay-only faults: behaviour changes in time, never in bytes. *)
  let cfg =
    {
      (Listener.default_config ()) with
      Listener.workers = Some 8;
      queue_depth = 512;
      faults =
        { Faults.none with Faults.slow_read = 0.3; slow_cell = 0.3; delay_ms = 2; seed = 7 };
    }
  in
  with_listener cfg @@ fun t ->
  let lines, tail =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd (Lazy.force corpus);
    recv_all fd
  in
  Helpers.check_string "no partial tail" "" tail;
  check_lines "oracle with delay faults" (Lazy.force oracle) lines

(* ---- Fault modes that do change the protocol ---- *)

let test_deadline_records () =
  let cfg =
    {
      (Listener.default_config ()) with
      Listener.workers = Some 2;
      queue_depth = 16;
      deadline_ms = Some 1;
      faults = { Faults.none with Faults.slow_cell = 1.0; delay_ms = 40; seed = 11 };
    }
  in
  with_listener cfg @@ fun t ->
  let queries = cheap_queries @ cheap_queries in
  let lines, _ =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd queries;
    recv_all fd
  in
  Helpers.check_int "all answered" (List.length queries) (List.length lines);
  List.iteri
    (fun k a ->
      let j = parse_resp "deadline" a in
      Helpers.check_bool "not ok" true (field "deadline" j "ok" = Json.Bool false);
      Helpers.check_bool "deadline error" true
        (field "deadline" j "error" = Json.Str "deadline");
      Helpers.check_bool "line echoed in order" true
        (field "deadline" j "line" = Json.Int (k + 1)))
    lines;
  Helpers.check_int "stats count deadlines" (List.length queries)
    (Listener.stats t).Listener.deadlined

let test_drop_conn () =
  let cfg =
    {
      (Listener.default_config ()) with
      Listener.workers = Some 2;
      queue_depth = 16;
      faults = { Faults.none with Faults.drop_conn = 1.0; seed = 5 };
    }
  in
  let queries = [ List.nth cheap_queries 0; List.nth cheap_queries 1 ] in
  let expected = Service.serve_lines ~workers:1 ~store:None queries in
  with_listener cfg @@ fun t ->
  let lines, tail =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd queries;
    recv_all fd
  in
  (* The first response is severed mid-line: no complete line arrives,
     and whatever did arrive is a strict prefix of the oracle's line. *)
  Helpers.check_int "no complete line" 0 (List.length lines);
  let exp0 = List.nth expected 0 in
  Helpers.check_bool "tail is a strict prefix of the oracle response" true
    (String.length tail < String.length exp0
    && String.sub exp0 0 (String.length tail) = tail);
  (* Only that connection died: the server keeps accepting. *)
  (let lines2, _ =
     with_client (Listener.port t) @@ fun fd ->
     send_lines fd [ List.nth cheap_queries 2 ];
     recv_all fd
   in
   Helpers.check_int "second connection answered (and was then severed)" 0
     (List.length lines2));
  let s = Listener.stats t in
  Helpers.check_int "both connections accepted" 2 s.Listener.accepted;
  Helpers.check_bool "drops counted" true (s.Listener.dropped_conns >= 1)

(* ---- Admission control ---- *)

let test_overload_shedding () =
  let cfg =
    {
      (Listener.default_config ()) with
      Listener.workers = Some 1;
      queue_depth = 1;
      faults = { Faults.none with Faults.slow_cell = 1.0; delay_ms = 50; seed = 3 };
    }
  in
  with_listener cfg @@ fun t ->
  let queries = List.concat (List.init 3 (fun _ -> cheap_queries)) in
  let lines, tail =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd queries;
    recv_all fd
  in
  Helpers.check_string "no partial tail" "" tail;
  Helpers.check_int "one response per request" (List.length queries)
    (List.length lines);
  let shed = ref 0 in
  List.iteri
    (fun k a ->
      let j = parse_resp "shed" a in
      Helpers.check_bool "responses in request order" true
        (field "shed" j "line" = Json.Int (k + 1));
      match field "shed" j "ok" with
      | Json.Bool true -> ()
      | _ ->
        Helpers.check_bool "only overloaded errors" true
          (field "shed" j "error" = Json.Str "overloaded");
        incr shed)
    lines;
  Helpers.check_bool "queue bound shed some load" true (!shed >= 1);
  Helpers.check_int "stats agree" !shed (Listener.stats t).Listener.shed

(* ---- Health, blanks, oversized lines ---- *)

let test_health_and_blank_numbering () =
  let dir = fresh_dir () in
  let store = Store.open_store dir in
  let cfg =
    { (Listener.default_config ~store ()) with Listener.workers = Some 2 }
  in
  with_listener cfg @@ fun t ->
  let lines, _ =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd
      [ List.nth cheap_queries 0; ""; "{\"op\": \"health\"}"; List.nth cheap_queries 1 ];
    recv_all fd
  in
  Helpers.check_int "blank skipped, three answers" 3 (List.length lines);
  let j1 = parse_resp "health" (List.nth lines 0) in
  let jh = parse_resp "health" (List.nth lines 1) in
  let j4 = parse_resp "health" (List.nth lines 2) in
  Helpers.check_bool "first is line 1" true (field "h" j1 "line" = Json.Int 1);
  Helpers.check_bool "health is line 3 (blank counted)" true
    (field "h" jh "line" = Json.Int 3);
  Helpers.check_bool "last is line 4" true (field "h" j4 "line" = Json.Int 4);
  Helpers.check_bool "health op echoed" true (field "h" jh "op" = Json.Str "health");
  Helpers.check_bool "health ok" true (field "h" jh "ok" = Json.Bool true);
  Helpers.check_bool "queue capacity reported" true
    (field "h" jh "queue_capacity" = Json.Int 64);
  Helpers.check_bool "not draining" true (field "h" jh "draining" = Json.Bool false);
  (match field "h" jh "uptime_s" with
  | Json.Float s -> Helpers.check_bool "uptime non-negative" true (s >= 0.0)
  | _ -> Alcotest.fail "uptime_s not a float");
  match field "h" jh "cache" with
  | Json.Obj members ->
    Helpers.check_bool "cache stats carry stores" true
      (List.mem_assoc "stores" members && List.mem_assoc "hits" members)
  | _ -> Alcotest.fail "health cache stats missing"

let test_oversized_line () =
  let cfg = { (Listener.default_config ()) with Listener.max_line = 128 } in
  let inputs =
    [
      Service.Line (List.nth cheap_queries 0);
      Service.Oversized 128;
      Service.Line (List.nth cheap_queries 1);
    ]
  in
  let expected = Service.serve_inputs ~workers:1 ~store:None inputs in
  with_listener cfg @@ fun t ->
  let lines, _ =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd
      [ List.nth cheap_queries 0; String.make 300 'x'; List.nth cheap_queries 1 ];
    recv_all fd
  in
  check_lines "oversized differential" expected lines;
  Helpers.check_int "too-long counted" 1 (Listener.stats t).Listener.too_long

(* ---- Service observability: metrics op, access log, trace spans ---- *)

let int_field name j k =
  match field name j k with
  | Json.Int n -> n
  | _ -> Alcotest.failf "%s: field %S not an int" name k

let str_field name j k =
  match field name j k with
  | Json.Str s -> s
  | _ -> Alcotest.failf "%s: field %S not a string" name k

(* One connection of load (3 ok queries + 1 malformed), then the
   snapshot on a fresh connection: histograms are fed at writer flush,
   so a closed connection's requests are fully accounted before the
   metrics record is built. *)
let test_metrics_op () =
  let dir = fresh_dir () in
  let store = Store.open_store dir in
  let cfg =
    { (Listener.default_config ~store ()) with Listener.workers = Some 2 }
  in
  Obs.reset ();
  with_listener cfg @@ fun t ->
  let lines, _ =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd (cheap_queries @ [ "not json" ]);
    recv_all fd
  in
  Helpers.check_int "load answered" 4 (List.length lines);
  let mlines, _ =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd [ "{\"op\": \"metrics\"}" ];
    recv_all fd
  in
  Helpers.check_int "one metrics record" 1 (List.length mlines);
  let m = parse_resp "metrics" (List.nth mlines 0) in
  Helpers.check_bool "ok" true (field "m" m "ok" = Json.Bool true);
  Helpers.check_bool "op echoed" true (field "m" m "op" = Json.Str "metrics");
  let ex = field "m" m "executor" in
  Helpers.check_int "submitted = 4 queries" 4 (int_field "m" ex "submitted");
  Helpers.check_int "completed = submitted" 4 (int_field "m" ex "completed");
  Helpers.check_int "rejected 0" 0 (int_field "m" ex "rejected");
  Helpers.check_int "workers" 2 (int_field "m" ex "workers");
  Helpers.check_bool "peak queue bounded" true
    (int_field "m" ex "peak_queue" <= 4);
  let counters = field "m" m "counters" in
  (* The metrics request itself is counted at read time, before the
     snapshot is built; its response has not flushed yet. *)
  Helpers.check_int "requests = load + metrics" 5
    (int_field "m" counters "requests");
  Helpers.check_int "responses = load" 4 (int_field "m" counters "responses");
  let hists = field "m" m "histograms" in
  let hist k = field "m" hists k in
  Helpers.check_int "total.ok = 3" 3
    (int_field "m" (hist "serve.latency.total.ok") "count");
  Helpers.check_int "total.error = 1 (malformed)" 1
    (int_field "m" (hist "serve.latency.total.error") "count");
  Helpers.check_int "queue = 4 queued" 4
    (int_field "m" (hist "serve.latency.queue") "count");
  Helpers.check_int "eval = 4 evaluated" 4
    (int_field "m" (hist "serve.latency.eval") "count");
  Helpers.check_int "write = 4 flushed" 4
    (int_field "m" (hist "serve.latency.write") "count");
  (* The sparse bucket arrays are parallel and sum to the count. *)
  (match field "m" (hist "serve.latency.total.ok") "buckets" with
  | Json.Obj bs -> (
    match (List.assoc_opt "le_s" bs, List.assoc_opt "count" bs) with
    | Some (Json.List les), Some (Json.List cnts) ->
      Helpers.check_int "parallel bucket arrays" (List.length les)
        (List.length cnts);
      Helpers.check_int "bucket counts sum to count" 3
        (List.fold_left
           (fun acc c -> match c with Json.Int n -> acc + n | _ -> acc)
           0 cnts)
    | _ -> Alcotest.fail "bucket arrays missing")
  | _ -> Alcotest.fail "buckets not an object");
  (match field "m" (hist "serve.latency.total.ok") "p50_ms" with
  | Json.Float p -> Helpers.check_bool "p50_ms positive" true (p > 0.0)
  | _ -> Alcotest.fail "p50_ms not a float");
  (* Satellite: the stale count is surfaced in both metrics and health
     cache stats. *)
  (match field "m" m "cache" with
  | Json.Obj members ->
    Helpers.check_bool "metrics cache has stale" true
      (List.mem_assoc "stale" members)
  | _ -> Alcotest.fail "metrics cache missing");
  let hlines, _ =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd [ "{\"op\": \"health\"}" ];
    recv_all fd
  in
  match field "h" (parse_resp "health" (List.nth hlines 0)) "cache" with
  | Json.Obj members ->
    Helpers.check_bool "health cache has stale" true
      (List.mem_assoc "stale" members && List.assoc "stale" members = Json.Int 0)
  | _ -> Alcotest.fail "health cache missing"

(* The access log carries exactly one record per answered request line
   — requests + too-long, blanks skipped — and every record is one
   JSON object with the lifecycle fields. *)
let test_access_log () =
  let path = Filename.temp_file "impact-access" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ()) @@ fun () ->
  let cfg =
    {
      (Listener.default_config ()) with
      Listener.workers = Some 2;
      max_line = 128;
      access_log = Some path;
    }
  in
  let st =
    with_listener cfg @@ fun t ->
    let lines, _ =
      with_client (Listener.port t) @@ fun fd ->
      send_lines fd
        [
          List.nth cheap_queries 0;
          "";
          "not json";
          String.make 300 'x';
          "{\"op\": \"health\"}";
          List.nth cheap_queries 1;
        ];
      recv_all fd
    in
    Helpers.check_int "answers" 5 (List.length lines);
    Listener.stats t
  in
  (* with_listener drained: the access channel is flushed and closed. *)
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let records = read [] in
  close_in ic;
  Helpers.check_int "one record per answered line"
    (st.Listener.requests + st.Listener.too_long)
    (List.length records);
  let parsed = List.map (parse_resp "access") records in
  let events = List.map (fun r -> str_field "a" r "event") parsed in
  Helpers.check_bool "events cover the kinds" true
    (List.mem "query" events && List.mem "health" events
    && List.mem "too_long" events);
  List.iter
    (fun r ->
      (match field "a" r "total_ms" with
      | Json.Float v -> Helpers.check_bool "total_ms >= 0" true (v >= 0.0)
      | _ -> Alcotest.fail "total_ms not a float");
      Helpers.check_bool "written to a live socket" true
        (field "a" r "wrote" = Json.Bool true);
      Helpers.check_int "single connection" 0 (int_field "a" r "conn"))
    parsed;
  (* Writer flush order = request order: line numbers increase (2 is
     the skipped blank). *)
  Helpers.check_bool "line numbers in request order" true
    (List.map (fun r -> int_field "a" r "line") parsed = [ 1; 3; 4; 5; 6 ]);
  (* Outcomes: ok query, malformed error, too-long error, health ok, ok
     query. *)
  Helpers.check_bool "outcomes recorded" true
    (List.map (fun r -> str_field "a" r "outcome") parsed
    = [ "ok"; "error"; "error"; "ok"; "ok" ])

(* trace_sample = 2 records spans for connections 0 and 2 but not 1;
   every request on a sampled connection gets a req span plus
   queue/eval/write sub-spans, tagged with the connection id as tid. *)
let test_trace_sampling () =
  let cfg =
    {
      (Listener.default_config ()) with
      Listener.workers = Some 1;
      trace_sample = Some 2;
    }
  in
  Obs.reset ();
  with_listener cfg @@ fun t ->
  for _ = 1 to 3 do
    let lines, _ =
      with_client (Listener.port t) @@ fun fd ->
      send_lines fd [ List.nth cheap_queries 0 ];
      recv_all fd
    in
    Helpers.check_int "answered" 1 (List.length lines)
  done;
  let evs = Obs.events () in
  let reqs = List.filter (fun e -> e.Obs.ecat = "serve") evs in
  let tids = List.sort_uniq compare (List.map (fun e -> e.Obs.etid) reqs) in
  Helpers.check_bool "connections 0 and 2 sampled, 1 not" true
    (tids = [ 0; 2 ]);
  let names tid =
    List.filter (fun e -> e.Obs.etid = tid) reqs
    |> List.map (fun e -> e.Obs.ename)
    |> List.sort compare
  in
  List.iter
    (fun tid ->
      Helpers.check_bool
        (Printf.sprintf "conn %d has req+queue+eval+write spans" tid)
        true
        (names tid = [ "eval"; "queue"; "req add"; "write" ]))
    [ 0; 2 ];
  (* Span args carry the lifecycle outcome. *)
  List.iter
    (fun e ->
      if e.Obs.ename = "req add" then
        Helpers.check_bool "req span outcome arg" true
          (List.assoc_opt "outcome" e.Obs.eargs = Some "ok"))
    reqs

(* The differential oracle must survive full observability: access log,
   trace sampling and the store all on, responses still byte-identical
   to the batch path. *)
let test_oracle_under_observability () =
  let path = Filename.temp_file "impact-access" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ()) @@ fun () ->
  let cfg =
    {
      (Listener.default_config ()) with
      Listener.workers = Some 4;
      queue_depth = 512;
      access_log = Some path;
      trace_sample = Some 1;
    }
  in
  Obs.reset ();
  with_listener cfg @@ fun t ->
  let lines, _ =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd (Lazy.force corpus);
    recv_all fd
  in
  check_lines "oracle under observability" (Lazy.force oracle) lines

(* ---- Graceful drain with in-flight work ---- *)

let test_drain_finishes_in_flight () =
  let cfg =
    {
      (Listener.default_config ()) with
      Listener.workers = Some 1;
      queue_depth = 16;
      faults = { Faults.none with Faults.slow_cell = 1.0; delay_ms = 100; seed = 9 };
    }
  in
  let expected = Service.serve_lines ~workers:1 ~store:None cheap_queries in
  let t = Listener.start cfg in
  let lines, tail =
    with_client (Listener.port t) @@ fun fd ->
    send_all fd (String.concat "\n" cheap_queries ^ "\n");
    (* Deliberately no half-close: drain must force EOF on the server's
       read side. Wait until all three requests are in flight first. *)
    let deadline = Unix.gettimeofday () +. 10.0 in
    while
      (Listener.stats t).Listener.requests < List.length cheap_queries
      && Unix.gettimeofday () < deadline
    do
      Thread.delay 0.01
    done;
    Helpers.check_int "all requests read before drain" (List.length cheap_queries)
      (Listener.stats t).Listener.requests;
    Listener.stop t;
    recv_all fd
  in
  Listener.wait t;
  Helpers.check_string "no partial tail" "" tail;
  check_lines "drained responses" expected lines;
  Helpers.check_int "every in-flight response written"
    (List.length cheap_queries)
    (Listener.stats t).Listener.responses

(* ---- qcheck: random interleavings over concurrent connections ---- *)

type line_kind = Valid | Malformed | Oversize | Blank

let render_kind = function
  | Valid -> "{\"loop\": \"add\", \"level\": \"Conv\", \"issue\": 2}"
  | Malformed -> "this is { not json"
  | Oversize -> String.make 300 'x'
  | Blank -> ""

let gen_scripts =
  QCheck.Gen.(
    list_size (int_range 1 3)
      (list_size (int_range 1 6)
         (frequency
            [ (3, return Valid); (2, return Malformed); (1, return Oversize); (1, return Blank) ])))

let check_script_responses script (lines, tail) =
  if tail <> "" then failwith "partial tail";
  let wanted =
    List.mapi (fun i k -> (i + 1, k)) script
    |> List.filter (fun (_, k) -> k <> Blank)
  in
  if List.length lines <> List.length wanted then
    failwith
      (Printf.sprintf "expected %d responses, got %d" (List.length wanted)
         (List.length lines));
  List.iter2
    (fun (pos, kind) a ->
      let j =
        match Json.parse a with
        | Ok j -> j
        | Error m -> failwith ("response not JSON: " ^ m)
      in
      if Json.member "line" j <> Some (Json.Int pos) then
        failwith (Printf.sprintf "response out of order: wanted line %d in %s" pos a);
      let err = Json.member "error" j in
      match kind with
      | Valid ->
        if Json.member "ok" j <> Some (Json.Bool true) then
          failwith ("valid query not answered ok: " ^ a)
      | Malformed ->
        if err <> Some (Json.Str "malformed query") then
          failwith ("malformed line misclassified: " ^ a)
      | Oversize ->
        if err <> Some (Json.Str "line too long") then
          failwith ("oversized line misclassified: " ^ a)
      | Blank -> assert false)
    wanted lines

let test_random_interleavings () =
  let dir = fresh_dir () in
  let store = Store.open_store dir in
  let cfg =
    {
      (Listener.default_config ~store ()) with
      Listener.workers = Some 2;
      queue_depth = 256;
      max_line = 128;
    }
  in
  with_listener cfg @@ fun t ->
  let prop scripts =
    let results = Array.make (List.length scripts) (Ok ()) in
    let run c script =
      try
        let got =
          with_client (Listener.port t) @@ fun fd ->
          send_lines fd (List.map render_kind script);
          recv_all fd
        in
        check_script_responses script got
      with e -> results.(c) <- Error (Printexc.to_string e)
    in
    let threads = List.mapi (fun c s -> Thread.create (run c) s) scripts in
    List.iter Thread.join threads;
    Array.iter (function Ok () -> () | Error m -> failwith m) results;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:10
       ~name:"random interleavings: one in-order response per request, no crash"
       (QCheck.make gen_scripts) prop);
  (* And the server is still healthy afterwards. *)
  let lines, _ =
    with_client (Listener.port t) @@ fun fd ->
    send_lines fd [ "{\"op\": \"health\"}" ];
    recv_all fd
  in
  Helpers.check_int "server healthy after property" 1 (List.length lines)

(* ---- Faults spec parsing ---- *)

let test_faults_parse () =
  (match Faults.parse "slow_read:0.25,drop_conn:0,slow_cell:1" with
  | Ok f ->
    Helpers.check_bool "slow_read parsed" true (f.Faults.slow_read = 0.25);
    Helpers.check_bool "drop_conn parsed" true (f.Faults.drop_conn = 0.0);
    Helpers.check_bool "slow_cell parsed" true (f.Faults.slow_cell = 1.0);
    Helpers.check_bool "active" true (Faults.active f)
  | Error m -> Alcotest.failf "valid spec rejected: %s" m);
  (match Faults.parse "" with
  | Ok f -> Helpers.check_bool "empty spec is none" false (Faults.active f)
  | Error m -> Alcotest.failf "empty spec rejected: %s" m);
  List.iter
    (fun spec ->
      match Faults.parse spec with
      | Ok _ -> Alcotest.failf "spec %S unexpectedly accepted" spec
      | Error m -> Helpers.check_bool ("error nonempty for " ^ spec) true (m <> ""))
    [ "frobnicate:0.5"; "slow_read:1.5"; "slow_read:-0.1"; "slow_read"; "slow_read:x" ];
  (* Same seed, same draw sequence; different conns diverge. *)
  let cfg = { Faults.none with Faults.slow_read = 0.5; seed = 42 } in
  let draws st = List.init 32 (fun _ -> Faults.slow_read st) in
  Helpers.check_bool "seeded draws reproducible" true
    (draws (Faults.stream cfg ~conn:0 ~channel:0)
    = draws (Faults.stream cfg ~conn:0 ~channel:0));
  Helpers.check_bool "connections draw independently" false
    (draws (Faults.stream cfg ~conn:0 ~channel:0)
    = draws (Faults.stream cfg ~conn:1 ~channel:0))

(* ---- Event-loop scale: many pipelined connections ---- *)

(* 64 concurrent connections, each pipelining its whole script before
   reading, against a small worker pool: the single-threaded event loop
   must keep every connection's responses in order and byte-identical
   to the batch oracle. (The old two-threads-per-connection design is
   gone; this is the shape it could not afford.) *)
let test_oracle_64_pipelined_conns () =
  let nclients = 64 in
  let rotate k l =
    let n = List.length l in
    List.init n (fun i -> List.nth l ((i + k) mod n))
  in
  let scripts = Array.init 3 (fun k -> rotate k cheap_queries @ cheap_queries) in
  let expected =
    Array.map (fun s -> Service.serve_lines ~workers:1 ~store:None s) scripts
  in
  let cfg =
    { (Listener.default_config ()) with Listener.workers = Some 4; queue_depth = 1024 }
  in
  with_listener cfg @@ fun t ->
  let failures = ref [] in
  let fail_m = Mutex.create () in
  let run_client c =
    try
      let got, tail =
        with_client (Listener.port t) @@ fun fd ->
        send_lines fd scripts.(c mod 3);
        recv_all fd
      in
      if tail <> "" then failwith "partial tail";
      if got <> expected.(c mod 3) then failwith "responses differ from oracle"
    with e ->
      Mutex.lock fail_m;
      failures := Printf.sprintf "client %d: %s" c (Printexc.to_string e) :: !failures;
      Mutex.unlock fail_m
  in
  let threads = List.init nclients (fun c -> Thread.create run_client c) in
  List.iter Thread.join threads;
  (match !failures with
  | [] -> ()
  | fs -> Alcotest.failf "64-conn oracle: %s" (String.concat "; " fs));
  Helpers.check_int "all connections accepted" nclients
    (Listener.stats t).Listener.accepted

(* ---- Incremental framing: slow and bursty clients ---- *)

(* A client that dribbles its requests byte by byte (with pauses that
   outlast a select round, so the server sees many partial reads per
   line) must get exactly the batch answers: the framer has to carry
   partial lines across reads and never re-deliver consumed bytes. *)
let test_slow_client_partial_lines () =
  let cfg = Listener.default_config () in
  with_listener cfg @@ fun t ->
  let lines = cheap_queries in
  let expected = Service.serve_lines ~workers:1 ~store:None lines in
  let payload = String.concat "\n" lines ^ "\n" in
  let got, tail =
    with_client (Listener.port t) @@ fun fd ->
    String.iteri
      (fun i ch ->
        send_all fd (String.make 1 ch);
        (* A longer stall mid-line every 17 bytes; a short one otherwise. *)
        if i mod 17 = 0 then Unix.sleepf 0.01
        else if ch = '\n' then Unix.sleepf 0.002)
      payload;
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    recv_all fd
  in
  Helpers.check_string "no partial tail" "" tail;
  check_lines "byte-by-byte client" expected got

(* EOF with an unterminated tail: the leftover bytes count as a final
   request line, exactly like the batch reader on a file without a
   trailing newline. *)
let test_eof_unterminated_tail () =
  let cfg = Listener.default_config () in
  with_listener cfg @@ fun t ->
  let q = List.nth cheap_queries 0 in
  let expected = Service.serve_lines ~workers:1 ~store:None [ q ] in
  let got, tail =
    with_client (Listener.port t) @@ fun fd ->
    send_all fd q;
    (* no newline *)
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    recv_all fd
  in
  Helpers.check_string "no partial tail" "" tail;
  check_lines "unterminated final line" expected got

(* ---- Start-up failure ---- *)

(* A start that fails after binding its port (here: the access log
   cannot be created) raises, and releases everything it took: the
   same port binds again at once and no descriptor is left open. *)
let test_start_failure_releases () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no port")
  in
  let cfg = { (Listener.default_config ()) with Listener.port } in
  let before = open_fds () in
  let bad_log = Filename.concat (fresh_dir ()) "missing/access.jsonl" in
  (match Listener.start { cfg with Listener.access_log = Some bad_log } with
  | exception Sys_error _ -> ()
  | t ->
    Listener.stop t;
    Listener.wait t;
    Alcotest.fail "start with an unwritable access log succeeded");
  Helpers.check_int "open fds after the failed start" before (open_fds ());
  with_listener cfg @@ fun t ->
  Helpers.check_int "same port bound again" port (Listener.port t)

let suite =
  [
    ( "net: differential oracle",
      [
        Alcotest.test_case "full corpus, 1 worker" `Slow test_oracle_j1;
        Alcotest.test_case "full corpus, 8 workers, 3 shuffled clients" `Slow
          test_oracle_j8_concurrent_shuffled;
        Alcotest.test_case "full corpus under delay faults" `Slow
          test_oracle_benign_faults;
      ] );
    ( "net: faults",
      [
        Alcotest.test_case "slow_cell + deadline -> structured records" `Quick
          test_deadline_records;
        Alcotest.test_case "drop_conn severs mid-line, server survives" `Quick
          test_drop_conn;
        Alcotest.test_case "spec parsing and seeded determinism" `Quick
          test_faults_parse;
      ] );
    ( "net: admission",
      [
        Alcotest.test_case "full queue sheds with overloaded records" `Quick
          test_overload_shedding;
        Alcotest.test_case "oversized lines rejected like the batch path" `Quick
          test_oversized_line;
      ] );
    ( "net: protocol",
      [
        Alcotest.test_case "health bypasses the queue; blanks keep numbering" `Quick
          test_health_and_blank_numbering;
        Alcotest.test_case "graceful drain finishes in-flight work" `Quick
          test_drain_finishes_in_flight;
        Alcotest.test_case "failed start releases its port and fds" `Quick
          test_start_failure_releases;
      ] );
    ( "net: observability",
      [
        Alcotest.test_case "metrics op: histograms, executor, counters" `Quick
          test_metrics_op;
        Alcotest.test_case "access log: one record per answered line" `Quick
          test_access_log;
        Alcotest.test_case "trace sampling: 1-in-N connections get spans" `Quick
          test_trace_sampling;
        Alcotest.test_case "oracle byte-identical under full observability"
          `Slow test_oracle_under_observability;
      ] );
    ( "net: event loop",
      [
        Alcotest.test_case "64 pipelined connections match the oracle" `Slow
          test_oracle_64_pipelined_conns;
        Alcotest.test_case "byte-by-byte client frames correctly" `Quick
          test_slow_client_partial_lines;
        Alcotest.test_case "EOF treats unterminated tail as final line" `Quick
          test_eof_unterminated_tail;
      ] );
    ( "net: properties",
      [
        Alcotest.test_case "random interleavings over concurrent connections" `Slow
          test_random_interleavings;
      ] );
  ]
