(* Tests for the query service layer (lib/svc):

   - Json: parse/print roundtrips (byte strings included) and error
     reporting.
   - Framer: chunked request-line framing matches [read_lines].
   - Query: digest determinism and sensitivity to every field.
   - Store: put/get roundtrip, disk hits across store instances,
     corrupt-entry and version-mismatch fallback to miss, LRU eviction.
   - Experiment with a store: cold vs warm [run_all_with] produce
     identical cells and the warm run is served from the store.
   - Service: a batch with malformed, unknown-loop and valid lines is
     answered in order with structured records and no exception; cache
     dispositions go miss -> hit.
   - Opts: [Opts.make] defaults match [Opts.default] and [Opts.base]
     always forces list scheduling. *)

open Impact_ir
open Impact_core
module Json = Impact_svc.Json
module Query = Impact_svc.Query
module Store = Impact_svc.Store
module Service = Impact_svc.Service
module Experiment = Impact_svc.Experiment

(* A fresh empty cache directory per test. *)
let fresh_dir () =
  let f = Filename.temp_file "impact-svc" ".cache" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

(* The query of one matrix cell of [ast]. *)
let query_of ~ast ~opts level machine =
  Query.make ~subject:(Query.subject_digest ast) ~opts level machine

(* Where the store publishes [q]'s entry: two-character fan-out under
   the store directory. *)
let entry_path dir q =
  let d = Query.digest q in
  Filename.concat (Filename.concat dir (String.sub d 0 2)) (d ^ ".bin")

let vecadd = Helpers.vecadd_ast 64

let dotprod = Helpers.dotprod_ast 64

let measure_default level machine ast =
  Compile.measure_with Opts.default level machine (Helpers.lower ast)

let same_measurement name (a : Compile.measurement) (b : Compile.measurement) =
  Helpers.check_int (name ^ ": cycles") a.Compile.cycles b.Compile.cycles;
  Helpers.check_int (name ^ ": dyn_insns") a.Compile.dyn_insns b.Compile.dyn_insns;
  Helpers.check_int (name ^ ": int regs")
    a.Compile.usage.Impact_regalloc.Regalloc.int_used
    b.Compile.usage.Impact_regalloc.Regalloc.int_used;
  Helpers.check_int (name ^ ": float regs")
    a.Compile.usage.Impact_regalloc.Regalloc.float_used
    b.Compile.usage.Impact_regalloc.Regalloc.float_used;
  Helpers.same_observables name a.Compile.result b.Compile.result

(* ---- Json ---- *)

let test_json_roundtrip () =
  let cases =
    [
      ("null", Json.Null);
      ("true", Json.Bool true);
      ("-42", Json.Int (-42));
      ("\"a\\\"b\\\\c\\n\"", Json.Str "a\"b\\c\n");
      ("[1, 2, 3]", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
      ( "{\"loop\": \"add\", \"issue\": 8}",
        Json.Obj [ ("loop", Json.Str "add"); ("issue", Json.Int 8) ] );
    ]
  in
  List.iter
    (fun (src, expected) ->
      match Json.parse src with
      | Ok j ->
        Helpers.check_bool ("parse " ^ src) true (j = expected);
        Helpers.check_bool ("reparse " ^ src) true
          (Json.parse (Json.to_string j) = Ok j)
      | Error msg -> Alcotest.failf "parse %s: %s" src msg)
    cases

let test_json_errors () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" src
      | Error msg -> Helpers.check_bool ("error nonempty for " ^ src) true (msg <> ""))
    [ ""; "{"; "{\"a\": }"; "[1, 2"; "\"unterminated"; "{} trailing"; "nul"; "01" ]

let test_json_unicode_escape () =
  match Json.parse "\"\\u0041\\ud83d\\ude00\"" with
  | Ok (Json.Str s) -> Helpers.check_string "escapes decode" "A\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape parse failed"

(* A finite float, integral ones included (the 1 ms histogram bound, say),
   prints so that it parses back as a [Float], never as an [Int]. *)
let prop_json_float_stays_float =
  let gen =
    QCheck.Gen.(
      oneof
        [ float; map float_of_int small_signed_int; map float_of_int int;
          oneofl [ 0.0; -0.0; 1.0; 1e15; -1e15; 1e300; 5e-324 ] ])
  in
  QCheck.Test.make ~count:500 ~name:"finite floats print back as Float"
    (QCheck.make gen ~print:string_of_float)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float _) -> true
      | Ok _ | Error _ -> false)

(* Every byte string survives print-then-parse: the one escaper covers
   quotes, backslashes and every control byte, and passes the rest
   (bytes >= 0x80 included) through. The trace writer, the oracle census
   and the bench artifacts all print strings through it. *)
let prop_json_string_roundtrip =
  let gen =
    QCheck.Gen.(
      let special = oneofl [ '"'; '\\'; '\n'; '\000'; '\x1f'; '\x7f' ] in
      string_size ~gen:(oneof [ char; special ]) (0 -- 40))
  in
  QCheck.Test.make ~count:500 ~name:"byte strings print back as the same Str"
    (QCheck.make gen ~print:String.escaped)
    (fun s -> Json.parse (Json.to_string (Json.Str s)) = Ok (Json.Str s))

(* ---- Query digests ---- *)

let test_query_digest_determinism () =
  let q () = query_of ~ast:vecadd ~opts:Opts.default Level.Lev4 Machine.issue_8 in
  Helpers.check_string "same query, same digest" (Query.digest (q ()))
    (Query.digest (q ()));
  Helpers.check_string "subject digest stable"
    (Query.subject_digest vecadd) (Query.subject_digest vecadd)

let test_query_digest_sensitivity () =
  let base = query_of ~ast:vecadd ~opts:Opts.default Level.Lev4 Machine.issue_8 in
  let differs name q =
    Helpers.check_bool (name ^ " changes digest") false
      (Query.digest q = Query.digest base)
  in
  differs "level" { base with Query.q_level = Level.Lev3 };
  differs "machine" { base with Query.q_machine = Machine.issue_4 };
  differs "core"
    { base with Query.q_machine = Machine.ooo ~issue:8 ~rob:32 () };
  Helpers.check_bool "rob size changes digest" false
    (Query.digest { base with Query.q_machine = Machine.ooo ~issue:8 ~rob:32 () }
    = Query.digest { base with Query.q_machine = Machine.ooo ~issue:8 ~rob:64 () });
  Helpers.check_bool "phys count changes digest" false
    (Query.digest
       { base with Query.q_machine = Machine.ooo ~phys_regs:16 ~issue:8 ~rob:32 () }
    = Query.digest
        { base with Query.q_machine = Machine.ooo ~phys_regs:32 ~issue:8 ~rob:32 () });
  differs "sched" { base with Query.q_opts = { Opts.default with Opts.sched = `Pipe } };
  differs "unroll" { base with Query.q_opts = { Opts.default with Opts.unroll = Some 2 } };
  differs "fuel" { base with Query.q_opts = { Opts.default with Opts.fuel = Some 9 } };
  differs "subject"
    { base with Query.q_subject = Query.subject_digest dotprod };
  Helpers.check_bool "different sources, different subject digests" false
    (Query.subject_digest vecadd = Query.subject_digest dotprod)

(* ---- Store ---- *)

let test_store_roundtrip () =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let q = query_of ~ast:vecadd ~opts:Opts.default Level.Lev2 Machine.issue_4 in
  Helpers.check_bool "empty store misses" true (Store.lookup st q = None);
  let m = measure_default Level.Lev2 Machine.issue_4 vecadd in
  Store.add st q m;
  (match Store.lookup st q with
  | Some m' -> same_measurement "lru roundtrip" m m'
  | None -> Alcotest.fail "lookup after add missed");
  (* A second store instance on the same directory has a cold LRU, so
     this hit must come from disk — an exact Marshal roundtrip. *)
  let st2 = Store.open_store dir in
  (match Store.lookup st2 q with
  | Some m' -> same_measurement "disk roundtrip" m m'
  | None -> Alcotest.fail "disk lookup missed");
  let s = Store.stats st2 in
  Helpers.check_int "disk hit counted" 1 s.Store.disk_hits;
  Helpers.check_int "no corruption" 0 s.Store.corrupt;
  let s1 = Store.stats st in
  Helpers.check_int "store counted" 1 s1.Store.stores;
  Helpers.check_int "mem hit counted" 1 s1.Store.mem_hits

let test_store_corrupt_entry () =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let q = query_of ~ast:vecadd ~opts:Opts.default Level.Conv Machine.issue_2 in
  Store.add st q (measure_default Level.Conv Machine.issue_2 vecadd);
  (* Overwrite the published entry with garbage: the lookup (from a
     cold-LRU store) must degrade to a miss and count the corruption. *)
  let path = entry_path dir q in
  let oc = open_out_bin path in
  output_string oc "not a cache entry at all";
  close_out oc;
  let st2 = Store.open_store dir in
  Helpers.check_bool "corrupt entry misses" true (Store.lookup st2 q = None);
  let s = Store.stats st2 in
  Helpers.check_int "corrupt counted" 1 s.Store.corrupt;
  Helpers.check_int "miss counted" 1 s.Store.misses

(* Rewrite a published entry's header magic to another format version,
   keeping the payload intact. *)
let rewrite_entry_version path version =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let nl = String.index data '\n' in
  let header = String.sub data 0 nl in
  let rest = String.sub data nl (String.length data - nl) in
  let header' =
    match String.split_on_char ' ' header with
    | _magic :: fields ->
      String.concat " " (Printf.sprintf "impact-cache/%d" version :: fields)
    | [] -> assert false
  in
  let oc = open_out_bin path in
  output_string oc header';
  output_string oc rest;
  close_out oc

let test_store_version_mismatch () =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let q = query_of ~ast:vecadd ~opts:Opts.default Level.Lev1 Machine.issue_2 in
  Store.add st q (measure_default Level.Lev1 Machine.issue_2 vecadd);
  (* Rewrite the header as a future format version, keeping the payload:
     the entry must read as stale (miss), not corrupt. *)
  rewrite_entry_version (entry_path dir q) 9999;
  let st2 = Store.open_store dir in
  Helpers.check_bool "stale entry misses" true (Store.lookup st2 q = None);
  let s = Store.stats st2 in
  Helpers.check_int "stale is not corrupt" 0 s.Store.corrupt;
  Helpers.check_int "stale counted as miss" 1 s.Store.misses;
  Helpers.check_int "stale counted as stale" 1 s.Store.stale

let test_store_old_version_entry () =
  (* The machine's core axis landed in format version 2; an entry from a
     version-1 cache directory must degrade to a stale miss, never be
     served (it was keyed without the core axis) and never be flagged as
     corruption. *)
  Helpers.check_bool "format_version covers the core axis" true
    (Query.format_version >= 2);
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let q = query_of ~ast:vecadd ~opts:Opts.default Level.Lev2 Machine.issue_4 in
  Store.add st q (measure_default Level.Lev2 Machine.issue_4 vecadd);
  rewrite_entry_version (entry_path dir q) 1;
  let st2 = Store.open_store dir in
  Helpers.check_bool "v1 entry misses" true (Store.lookup st2 q = None);
  let s = Store.stats st2 in
  Helpers.check_int "v1 entry counted stale" 1 s.Store.stale;
  Helpers.check_int "v1 entry counted miss" 1 s.Store.misses;
  Helpers.check_int "v1 entry is not corrupt" 0 s.Store.corrupt;
  (* Republishing overwrites the stale entry and it reads fresh again. *)
  Store.add st2 q (measure_default Level.Lev2 Machine.issue_4 vecadd);
  let st3 = Store.open_store dir in
  Helpers.check_bool "republished entry hits" true (Store.lookup st3 q <> None);
  Helpers.check_int "republished read is fresh" 0 (Store.stats st3).Store.stale

let test_store_obs_counters () =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let q = query_of ~ast:dotprod ~opts:Opts.default Level.Lev3 Machine.issue_8 in
  let m = measure_default Level.Lev3 Machine.issue_8 dotprod in
  let count = Impact_obs.Obs.counter_value in
  let miss0 = count "svc.cache.miss" in
  let store0 = count "svc.cache.store" in
  let hit0 = count "svc.cache.hit.mem" in
  Impact_obs.Obs.set_collecting true;
  Fun.protect
    ~finally:(fun () -> Impact_obs.Obs.set_collecting false)
    (fun () ->
      ignore (Store.lookup st q);
      Store.add st q m;
      ignore (Store.lookup st q));
  Helpers.check_int "miss counted in Obs" (miss0 + 1) (count "svc.cache.miss");
  Helpers.check_int "store counted in Obs" (store0 + 1) (count "svc.cache.store");
  Helpers.check_int "hit counted in Obs" (hit0 + 1) (count "svc.cache.hit.mem")

let test_store_lru_eviction () =
  let dir = fresh_dir () in
  let st = Store.open_store ~lru_capacity:1 dir in
  let q1 = query_of ~ast:vecadd ~opts:Opts.default Level.Conv Machine.issue_4 in
  let q2 = query_of ~ast:dotprod ~opts:Opts.default Level.Conv Machine.issue_4 in
  let m1 = measure_default Level.Conv Machine.issue_4 vecadd in
  let m2 = measure_default Level.Conv Machine.issue_4 dotprod in
  Store.add st q1 m1;
  Store.add st q2 m2;
  (* q1 was evicted from the one-entry LRU by q2, so this lookup must
     fall back to the directory and still hit. *)
  (match Store.lookup st q1 with
  | Some m -> same_measurement "evicted entry from disk" m1 m
  | None -> Alcotest.fail "evicted entry missed on disk");
  let s = Store.stats st in
  Helpers.check_int "evicted hit is a disk hit" 1 s.Store.disk_hits;
  (match Store.lookup st q1 with
  | Some _ -> ()
  | None -> Alcotest.fail "re-promoted entry missed");
  Helpers.check_int "re-promoted hit is a mem hit" 1 (Store.stats st).Store.mem_hits

(* ---- Experiment with a store: cold vs warm ---- *)

let same_cells name (a : Experiment.cell list) (b : Experiment.cell list) =
  Helpers.check_int (name ^ ": cell count") (List.length a) (List.length b);
  List.iter2
    (fun (x : Experiment.cell) (y : Experiment.cell) ->
      Helpers.check_string (name ^ ": subject")
        x.Experiment.subject.Experiment.sname y.Experiment.subject.Experiment.sname;
      Helpers.check_bool (name ^ ": level") true (x.Experiment.level = y.Experiment.level);
      Helpers.check_int (name ^ ": cycles") x.Experiment.cycles y.Experiment.cycles;
      Helpers.check_int (name ^ ": dyn") x.Experiment.dyn_insns y.Experiment.dyn_insns;
      Helpers.check_bool (name ^ ": speedup") true
        (x.Experiment.speedup = y.Experiment.speedup);
      Helpers.check_int (name ^ ": int regs") x.Experiment.int_regs y.Experiment.int_regs;
      Helpers.check_int (name ^ ": float regs")
        x.Experiment.float_regs y.Experiment.float_regs)
    a b

let test_cold_warm_run_all () =
  let subjects =
    [
      { Experiment.sname = "svc-add"; group = "doall"; ast = vecadd };
      { Experiment.sname = "svc-dot"; group = "serial"; ast = dotprod };
    ]
  in
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let run () =
    Experiment.run_all_with ~store:st ~workers:2 Opts.default [ Machine.issue_4 ]
      [ Level.Conv; Level.Lev4 ] subjects
  in
  let cold = run () in
  let s = Store.stats st in
  Helpers.check_bool "cold run stores" true (s.Store.stores > 0);
  let warm = run () in
  same_cells "cold vs warm" cold warm;
  let s' = Store.stats st in
  let hits (s : Store.stats) = s.Store.mem_hits + s.Store.disk_hits in
  Helpers.check_bool "warm run hits" true (hits s' > hits s);
  Helpers.check_int "warm run stores nothing" s.Store.stores s'.Store.stores

(* Two subjects that share a name but not a source: the corpus kernel
   [add] (512 elements) and a 64-element vecadd, also named [add],
   evaluated in one process. The harness memoizes digests and bases by
   AST value, so each subject's cells and speedups must be its own,
   without a store and through one shared store. *)
let test_same_name_subjects () =
  let corpus = Service.subject_of_workload (Option.get (Impact_workloads.Suite.find "add")) in
  let small =
    {
      Experiment.sname = "add";
      group = "doall";
      ast =
        Impact_fir.Parse.parse_program
          "integer j\nreal A(64) seed 1\nreal B(64) seed 2\nreal C(64) seed 3\n\
           do j = 1, 64\n  C(j) = A(j) + B(j)\nend\n";
    }
  in
  let fresh (s : Experiment.subject) level machine =
    Compile.measure_with Opts.default level machine (Helpers.lower s.Experiment.ast)
  in
  let check label ?store (s : Experiment.subject) =
    let cells =
      Experiment.run_all_with ?store ~workers:1 Opts.default [ Machine.issue_8 ] Level.all
        [ s ]
    in
    let base = fresh s Level.Conv Machine.issue_1 in
    Helpers.check_int (label ^ ": cell count") (List.length Level.all) (List.length cells);
    List.iter
      (fun (c : Experiment.cell) ->
        let m = fresh s c.Experiment.level c.Experiment.machine in
        let name =
          Printf.sprintf "%s: %s (%d cycles base) %s" label s.Experiment.sname
            base.Compile.cycles (Level.to_string c.Experiment.level)
        in
        Helpers.check_int (name ^ " cycles") m.Compile.cycles c.Experiment.cycles;
        Helpers.check_int (name ^ " int regs")
          m.Compile.usage.Impact_regalloc.Regalloc.int_used c.Experiment.int_regs;
        Helpers.check_string (name ^ " speedup")
          (Printf.sprintf "%.17g" (Compile.speedup ~base ~this:m))
          (Printf.sprintf "%.17g" c.Experiment.speedup))
      cells
  in
  List.iter (check "no store") [ corpus; small ];
  let store = Store.open_store (fresh_dir ()) in
  List.iter (check "one store" ~store) [ corpus; small ]

(* ---- Service ---- *)

let test_serve_batch () =
  let lines =
    [
      "this is not json";
      "{\"loop\": \"no-such-loop\"}";
      "";
      "{\"loop\": \"vecadd\", \"level\": \"Conv\", \"issue\": 2}";
      "{\"loop\": \"dotprod\", \"frobnicate\": 1}";
    ]
  in
  let answers = Service.serve_lines ~workers:2 ~store:None lines in
  Helpers.check_int "blank line skipped" 4 (List.length answers);
  let parsed =
    List.map
      (fun a ->
        match Json.parse a with
        | Ok j -> j
        | Error msg -> Alcotest.failf "response not JSON (%s): %s" msg a)
      answers
  in
  let field j k = Option.get (Json.member k j) in
  (match parsed with
  | [ e1; e2; ok; e3 ] ->
    Helpers.check_bool "line 1 is an error" true (field e1 "ok" = Json.Bool false);
    Helpers.check_bool "line 1 malformed" true
      (field e1 "error" = Json.Str "malformed query");
    Helpers.check_bool "line 2 unknown loop" true
      (field e2 "error" = Json.Str "unknown loop");
    Helpers.check_bool "line 4 ok" true (field ok "ok" = Json.Bool true);
    Helpers.check_bool "line 4 echoes line number" true (field ok "line" = Json.Int 4);
    Helpers.check_bool "alias resolves to suite name" true
      (field ok "loop" = Json.Str "add");
    (match field ok "cycles" with
    | Json.Int n -> Helpers.check_bool "cycles positive" true (n > 0)
    | _ -> Alcotest.fail "cycles not an int");
    Helpers.check_bool "line 5 rejects unknown field" true
      (field e3 "error" = Json.Str "malformed query")
  | _ -> Alcotest.fail "unexpected answer shape")

let test_serve_cache_disposition () =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let line = "{\"loop\": \"sum\", \"level\": \"Lev2\", \"issue\": 4}" in
  let disposition a =
    match Json.parse a with
    | Ok j -> Option.get (Json.member "cache" j)
    | Error _ -> Alcotest.fail "response not JSON"
  in
  let first = Service.answer_line ~store:(Some st) ~line:1 line in
  let second = Service.answer_line ~store:(Some st) ~line:1 line in
  Helpers.check_bool "first is a miss" true (disposition first = Json.Str "miss");
  Helpers.check_bool "second is a hit" true (disposition second = Json.Str "hit");
  (* The two answers must agree on everything but the disposition. *)
  match (Json.parse first, Json.parse second) with
  | Ok f, Ok s ->
    List.iter
      (fun k ->
        Helpers.check_bool ("field " ^ k ^ " identical") true
          (Json.member k f = Json.member k s))
      [ "cycles"; "dyn_insns"; "speedup"; "digest"; "int_regs"; "float_regs" ]
  | _ -> Alcotest.fail "responses not JSON"

(* answer_line_ex: the metadata variant the TCP listener stamps into
   its lifecycle records must agree with the plain text path byte for
   byte, and classify outcomes/cache dispositions correctly. *)
let test_answer_line_ex () =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let q = "{\"loop\": \"sum\", \"level\": \"Lev2\", \"issue\": 4}" in
  (* Warm the store first so both sides of the byte-identity check see
     the same cache disposition. *)
  ignore (Service.answer_line ~store:(Some st) ~line:3 q);
  let cases =
    [
      ("valid", Some st, q);
      ("valid again (hit)", Some st, q);
      ("storeless", None, q);
      ("malformed", Some st, "not json");
      ("unknown loop", Some st, "{\"loop\": \"nope\"}");
    ]
  in
  List.iter
    (fun (name, store, line) ->
      let a = Service.answer_line_ex ~store ~line:3 line in
      Helpers.check_string (name ^ ": text identical to answer_line")
        (Service.answer_line ~store ~line:3 line)
        a.Service.a_text)
    cases;
  let ex store line = Service.answer_line_ex ~store ~line:1 line in
  let miss = ex (Some st) "{\"loop\": \"dotprod\"}" in
  Helpers.check_bool "first eval ok" true miss.Service.a_ok;
  Helpers.check_bool "first eval is a miss" true
    (miss.Service.a_cache = Some "miss");
  Helpers.check_bool "loop recorded" true
    (miss.Service.a_loop = Some "dotprod");
  let hit = ex (Some st) "{\"loop\": \"dotprod\"}" in
  Helpers.check_bool "second eval is a hit" true
    (hit.Service.a_cache = Some "hit");
  let off = ex None "{\"loop\": \"dotprod\"}" in
  Helpers.check_bool "storeless is off" true (off.Service.a_cache = Some "off");
  let bad = ex None "not json" in
  Helpers.check_bool "malformed not ok" false bad.Service.a_ok;
  Helpers.check_bool "malformed has no cache" true (bad.Service.a_cache = None);
  Helpers.check_bool "malformed has no loop" true (bad.Service.a_loop = None);
  let unknown = ex None "{\"loop\": \"nope\"}" in
  Helpers.check_bool "unknown loop not ok" false unknown.Service.a_ok;
  Helpers.check_bool "unknown loop still named" true
    (unknown.Service.a_loop = Some "nope")

let test_serve_ooo_query () =
  let line extra =
    Printf.sprintf "{\"loop\": \"vecadd\", \"level\": \"Lev2\", \"issue\": 4%s}"
      extra
  in
  let answer extra =
    match Json.parse (Service.answer_line ~store:None ~line:1 (line extra)) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "response not JSON: %s" msg
  in
  let field j k = Option.get (Json.member k j) in
  let inorder = answer "" in
  let ooo = answer ", \"core\": \"ooo\", \"rob\": 8" in
  Helpers.check_bool "ooo query ok" true (field ooo "ok" = Json.Bool true);
  Helpers.check_bool "core echoed" true (field ooo "core" = Json.Str "ooo");
  Helpers.check_bool "rob echoed" true (field ooo "rob" = Json.Int 8);
  Helpers.check_bool "phys defaults to rob" true
    (field ooo "phys_regs" = Json.Int 8);
  Helpers.check_bool "inorder core echoed" true
    (field inorder "core" = Json.Str "inorder");
  Helpers.check_bool "inorder rob is null" true (field inorder "rob" = Json.Null);
  Helpers.check_bool "core changes the digest" false
    (field inorder "digest" = field ooo "digest");
  (match (field inorder "cycles", field ooo "cycles") with
  | Json.Int a, Json.Int b ->
    Helpers.check_bool "both cores simulate" true (a > 0 && b > 0)
  | _ -> Alcotest.fail "cycles not ints");
  let bad = answer ", \"rob\": 8" in
  Helpers.check_bool "rob without core rejected" true
    (field bad "error" = Json.Str "malformed query")

(* ---- Opts ---- *)

let test_opts () =
  Helpers.check_bool "make () = default" true (Opts.make () = Opts.default);
  let o = Opts.make ~unroll:4 ~sched:`Pipe ~fuel:9 () in
  Helpers.check_bool "base keeps unroll/fuel" true
    (let b = Opts.base o in b.Opts.unroll = Some 4 && b.Opts.fuel = Some 9);
  Helpers.check_bool "Opts.base forces list scheduling" true
    ((Opts.base o).Opts.sched = `List);
  (* The digest must see every knob: options are part of the cache key. *)
  let q opts = query_of ~ast:vecadd ~opts Level.Lev2 Machine.issue_2 in
  Helpers.check_bool "digest distinguishes opts" true
    (Query.digest (q Opts.default) <> Query.digest (q o))

(* ---- Crash recovery ----

   A writer can die at any point of [Store.add]'s temp-write +
   atomic-rename publication. Whatever it leaves behind — an orphaned
   temp file, a header cut mid-line, a payload cut mid-Marshal — the
   next open must degrade to a miss, never raise, and the cache must
   repopulate over the damage. *)

let test_store_crash_orphaned_tmp () =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let q = query_of ~ast:vecadd ~opts:Opts.default Level.Lev2 Machine.issue_2 in
  Store.add st q (measure_default Level.Lev2 Machine.issue_2 vecadd);
  (* A writer that died between temp write and rename leaves this. *)
  let orphan = Filename.concat dir ".tmp.99999.0.0" in
  let oc = open_out_bin orphan in
  output_string oc "half-written entry from a dead process";
  close_out oc;
  let st2 = Store.open_store dir in
  Helpers.check_bool "orphan swept on open" false (Sys.file_exists orphan);
  (match Store.lookup st2 q with
  | Some _ -> ()
  | None -> Alcotest.fail "published entry lost by the sweep");
  Helpers.check_int "sweep is not a corruption event" 0
    (Store.stats st2).Store.corrupt

let test_store_crash_torn_entry () =
  let dir = fresh_dir () in
  let st = Store.open_store dir in
  let q = query_of ~ast:vecadd ~opts:Opts.default Level.Lev3 Machine.issue_4 in
  let m = measure_default Level.Lev3 Machine.issue_4 vecadd in
  Store.add st q m;
  let path = entry_path dir q in
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let truncate_to n =
    let oc = open_out_bin path in
    output_string oc (String.sub data 0 n);
    close_out oc
  in
  let nl = String.index data '\n' in
  (* Torn header: the crash happened before the newline was written. *)
  truncate_to (nl / 2);
  let st2 = Store.open_store dir in
  Helpers.check_bool "torn header misses" true (Store.lookup st2 q = None);
  Helpers.check_int "torn header counted corrupt" 1 (Store.stats st2).Store.corrupt;
  (* Truncated payload: intact header, Marshal bytes cut short. *)
  truncate_to (nl + 1 + ((String.length data - nl - 1) / 2));
  let st3 = Store.open_store dir in
  Helpers.check_bool "truncated payload misses" true (Store.lookup st3 q = None);
  Helpers.check_int "truncation counted corrupt" 1 (Store.stats st3).Store.corrupt;
  (* Empty file: crash immediately after open. *)
  truncate_to 0;
  let st4 = Store.open_store dir in
  Helpers.check_bool "empty entry misses" true (Store.lookup st4 q = None);
  (* The cache repopulates straight over the damage. *)
  Store.add st4 q m;
  (match Store.lookup st4 q with
  | Some m' -> same_measurement "repopulated entry" m m'
  | None -> Alcotest.fail "repopulation missed");
  let st5 = Store.open_store dir in
  (match Store.lookup st5 q with
  | Some m' -> same_measurement "repopulated entry from disk" m m'
  | None -> Alcotest.fail "repopulated entry not on disk");
  Helpers.check_int "repopulated read is clean" 0 (Store.stats st5).Store.corrupt

(* ---- Request-line bound ---- *)

let test_read_lines_bound () =
  let file = Filename.temp_file "impact-svc" ".lines" in
  let oc = open_out_bin file in
  output_string oc "short line 1\n";
  output_string oc (String.make 100 'y' ^ "\n");
  output_string oc "short line 3\n";
  output_string oc (String.make 40 'z');
  (* no trailing newline: EOF must still flush the partial line *)
  close_out oc;
  let ic = open_in_bin file in
  let inputs = Service.read_lines ~max_line:64 ic in
  close_in ic;
  Sys.remove file;
  (match inputs with
  | [ Service.Line a; Service.Oversized 64; Service.Line c; Service.Line d ] ->
    Helpers.check_string "line 1 intact" "short line 1" a;
    Helpers.check_string "line after oversized intact" "short line 3" c;
    Helpers.check_string "EOF flushes partial line" (String.make 40 'z') d
  | _ -> Alcotest.failf "unexpected shape: %d inputs" (List.length inputs));
  (* The oversized marker answers with a structured record, in order,
     and the batch keeps going. *)
  let out = Service.serve_inputs ~workers:1 ~store:None inputs in
  Helpers.check_int "one response per input" 4 (List.length out);
  (match Json.parse (List.nth out 1) with
  | Ok j ->
    Helpers.check_bool "ok false" true (Json.member "ok" j = Some (Json.Bool false));
    Helpers.check_bool "error tagged" true
      (Json.member "error" j = Some (Json.Str "line too long"));
    Helpers.check_bool "line number kept" true
      (Json.member "line" j = Some (Json.Int 2))
  | Error m -> Alcotest.failf "too-long record not JSON: %s" m);
  Helpers.check_string "record matches the shared constructor"
    (Service.too_long_record ~line:2 ~max_line:64)
    (List.nth out 1)

(* The framer is chunk-boundary blind: a random byte stream (short and
   empty lines, lines of exactly [max_line] bytes and one byte more, an
   optional unterminated tail) cut at random points and fed chunk by
   chunk frames into the inputs [read_lines] reads from the whole
   stream, and both match splitting the stream at its newlines. *)
let prop_framer_chunking =
  let max_line = 8 in
  let gen =
    QCheck.Gen.(
      let line =
        oneof
          [
            string_size ~gen:(char_range 'a' 'z') (0 -- (max_line - 1));
            return (String.make max_line 'x');
            return (String.make (max_line + 1) 'y');
            string_size ~gen:char (0 -- (3 * max_line));
          ]
      in
      let* lines = list_size (0 -- 12) line in
      let* tail = oneof [ return ""; string_size ~gen:(char_range 'a' 'z') (1 -- 12) ] in
      let stream = String.concat "" (List.map (fun l -> l ^ "\n") lines) ^ tail in
      let* cuts = list_size (0 -- 6) (0 -- String.length stream) in
      return (stream, List.sort_uniq compare cuts))
  in
  let framed (stream, cuts) =
    let fr = Service.Framer.create ~max_line in
    let acc = ref [] in
    let bounds = (0 :: cuts) @ [ String.length stream ] in
    List.iteri
      (fun k lo ->
        match List.nth_opt bounds (k + 1) with
        | Some hi when hi > lo ->
          let chunk = Bytes.of_string (String.sub stream lo (hi - lo)) in
          Service.Framer.feed fr chunk (hi - lo) (fun i -> acc := i :: !acc)
        | _ -> ())
      bounds;
    List.rev (Option.fold ~none:!acc ~some:(fun i -> i :: !acc) (Service.Framer.final fr))
  in
  let read stream =
    let file = Filename.temp_file "impact-svc" ".stream" in
    let oc = open_out_bin file in
    output_string oc stream;
    close_out oc;
    let ic = open_in_bin file in
    let inputs = Service.read_lines ~max_line ic in
    close_in ic;
    Sys.remove file;
    inputs
  in
  let spec stream =
    let pieces = String.split_on_char '\n' stream in
    let pieces =
      match List.rev pieces with "" :: rest -> List.rev rest | _ -> pieces
    in
    List.map
      (fun l ->
        if String.length l > max_line then Service.Oversized max_line else Service.Line l)
      pieces
  in
  QCheck.Test.make ~count:300 ~name:"chunked framing = read_lines = split at newlines"
    (QCheck.make gen ~print:(fun (s, cuts) ->
         Printf.sprintf "%S cut at %s" s
           (String.concat "," (List.map string_of_int cuts))))
    (fun ((stream, _) as case) ->
      let want = read stream in
      framed case = want && want = spec stream)

let suite =
  [
    ( "svc: json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "errors" `Quick test_json_errors;
        Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape;
        QCheck_alcotest.to_alcotest prop_json_float_stays_float;
        QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
      ] );
    ( "svc: query",
      [
        Alcotest.test_case "digest determinism" `Quick test_query_digest_determinism;
        Alcotest.test_case "digest sensitivity" `Quick test_query_digest_sensitivity;
      ] );
    ( "svc: store",
      [
        Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
        Alcotest.test_case "corrupt entry" `Quick test_store_corrupt_entry;
        Alcotest.test_case "version mismatch" `Quick test_store_version_mismatch;
        Alcotest.test_case "old-version entry" `Quick test_store_old_version_entry;
        Alcotest.test_case "obs counters" `Quick test_store_obs_counters;
        Alcotest.test_case "lru eviction" `Quick test_store_lru_eviction;
        Alcotest.test_case "crash recovery: orphaned temp swept" `Quick
          test_store_crash_orphaned_tmp;
        Alcotest.test_case "crash recovery: torn entries miss, then repopulate"
          `Quick test_store_crash_torn_entry;
      ] );
    ( "svc: experiment cache",
      [
        Alcotest.test_case "cold vs warm run_all" `Quick test_cold_warm_run_all;
        Alcotest.test_case "subjects that share a name" `Quick test_same_name_subjects;
      ] );
    ( "svc: service",
      [
        Alcotest.test_case "batch with errors" `Quick test_serve_batch;
        Alcotest.test_case "cache disposition" `Quick test_serve_cache_disposition;
        Alcotest.test_case "answer_line_ex metadata matches text path" `Quick
          test_answer_line_ex;
        Alcotest.test_case "ooo query" `Quick test_serve_ooo_query;
        Alcotest.test_case "read_lines bounds request lines" `Quick
          test_read_lines_bound;
        QCheck_alcotest.to_alcotest prop_framer_chunking;
      ] );
    ( "svc: opts",
      [ Alcotest.test_case "make/base/digest" `Quick test_opts ] );
  ]
