open Impact_core
module Obs = Impact_obs.Obs

type stats = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  corrupt : int;
  stale : int;
}

let hits s = s.mem_hits + s.disk_hits

(* LRU front: digest -> (last-use generation, measurement). Eviction
   scans for the minimum generation — O(capacity), but it only runs
   once per insertion beyond capacity and the table is small. *)
type t = {
  st_dir : string;
  st_capacity : int;
  st_mutex : Mutex.t;
  st_lru : (string, int * Compile.measurement) Hashtbl.t;
  mutable st_gen : int;
  mutable st_tmp_seq : int;
  mutable st_stats : stats;
}

let default_dir = "_cache"

let resolve_dir () =
  match Sys.getenv_opt "IMPACT_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> default_dir

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let tmp_prefix = ".tmp."

(* Crash recovery: a writer killed between open_out and rename leaves a
   .tmp.* file behind. Unpublished temp entries are never read (lookups
   go by digest path), so they only leak disk; sweep them on open. A
   temp file belonging to a concurrent live writer may be swept too, in
   which case that writer's rename fails and its [add] degrades to a
   no-op — the documented worst case for any store I/O failure. *)
let sweep_tmp dir =
  match Sys.readdir dir with
  | exception _ -> ()
  | entries ->
    Array.iter
      (fun e ->
        if
          String.length e > String.length tmp_prefix
          && String.sub e 0 (String.length tmp_prefix) = tmp_prefix
        then try Sys.remove (Filename.concat dir e) with _ -> ())
      entries

let open_store ?(lru_capacity = 4096) dir =
  (try mkdir_p dir with _ -> ());
  sweep_tmp dir;
  {
    st_dir = dir;
    st_capacity = max 1 lru_capacity;
    st_mutex = Mutex.create ();
    st_lru = Hashtbl.create 256;
    st_gen = 0;
    st_tmp_seq = 0;
    st_stats =
      { mem_hits = 0; disk_hits = 0; misses = 0; stores = 0; corrupt = 0; stale = 0 };
  }

let locked t f =
  Mutex.lock t.st_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.st_mutex) f

(* Two-character fan-out keeps any one directory small at production
   entry counts. *)
let entry_path_of_digest t digest =
  Filename.concat (Filename.concat t.st_dir (String.sub digest 0 2)) (digest ^ ".bin")

(* ---- LRU front ---- *)

let lru_find t digest =
  locked t (fun () ->
    match Hashtbl.find_opt t.st_lru digest with
    | None -> None
    | Some (_, m) ->
      t.st_gen <- t.st_gen + 1;
      Hashtbl.replace t.st_lru digest (t.st_gen, m);
      Some m)

let lru_put t digest m =
  locked t (fun () ->
    t.st_gen <- t.st_gen + 1;
    Hashtbl.replace t.st_lru digest (t.st_gen, m);
    if Hashtbl.length t.st_lru > t.st_capacity then begin
      let victim =
        Hashtbl.fold
          (fun k (gen, _) acc ->
            match acc with
            | Some (_, g) when g <= gen -> acc
            | _ -> Some (k, gen))
          t.st_lru None
      in
      match victim with
      | Some (k, _) -> Hashtbl.remove t.st_lru k
      | None -> ()
    end)

let bump t f name =
  locked t (fun () -> t.st_stats <- f t.st_stats);
  Obs.count ("svc.cache." ^ name)

(* ---- Disk format ----

   One header line, then the marshaled measurement:

     impact-cache/<format_version> <query-digest> <payload-md5> <payload-len>\n
     <payload bytes>

   The header makes every failure mode detectable before Marshal ever
   sees the bytes: a version bump or digest mismatch is a stale entry,
   a length/MD5 mismatch is corruption. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type disk_entry = Fresh of Compile.measurement | Stale | Corrupt | Absent

let read_entry t q =
  let digest = Query.digest q in
  let path = entry_path_of_digest t digest in
  if not (Sys.file_exists path) then Absent
  else
    match read_file path with
    | exception _ -> Corrupt
    | data -> (
      match String.index_opt data '\n' with
      | None -> Corrupt
      | Some nl -> (
        let header = String.sub data 0 nl in
        let payload = String.sub data (nl + 1) (String.length data - nl - 1) in
        match String.split_on_char ' ' header with
        | [ magic; qdigest; pmd5; plen ] -> (
          if magic <> Printf.sprintf "impact-cache/%d" Query.format_version then
            Stale
          else if qdigest <> digest then Corrupt
          else if int_of_string_opt plen <> Some (String.length payload) then
            Corrupt
          else if Digest.to_hex (Digest.string payload) <> pmd5 then Corrupt
          else
            match (Marshal.from_string payload 0 : Compile.measurement) with
            | exception _ -> Corrupt
            | m ->
              (* Cheap plausibility check: the entry must answer this
                 query's level and machine. *)
              if
                m.Compile.level = q.Query.q_level
                && m.Compile.machine = q.Query.q_machine
              then Fresh m
              else Corrupt)
        | _ -> Corrupt))

let lookup t q =
  let digest = Query.digest q in
  match lru_find t digest with
  | Some m ->
    bump t (fun s -> { s with mem_hits = s.mem_hits + 1 }) "hit.mem";
    Some m
  | None -> (
    match read_entry t q with
    | Fresh m ->
      lru_put t digest m;
      bump t (fun s -> { s with disk_hits = s.disk_hits + 1 }) "hit.disk";
      Some m
    | Stale ->
      bump t (fun s -> { s with stale = s.stale + 1 }) "stale";
      bump t (fun s -> { s with misses = s.misses + 1 }) "miss";
      None
    | Corrupt ->
      bump t (fun s -> { s with corrupt = s.corrupt + 1 }) "corrupt";
      bump t (fun s -> { s with misses = s.misses + 1 }) "miss";
      None
    | Absent ->
      bump t (fun s -> { s with misses = s.misses + 1 }) "miss";
      None)

let add t q m =
  let digest = Query.digest q in
  lru_put t digest m;
  let path = entry_path_of_digest t digest in
  let payload = Marshal.to_string m [] in
  let header =
    Printf.sprintf "impact-cache/%d %s %s %d\n" Query.format_version digest
      (Digest.to_hex (Digest.string payload))
      (String.length payload)
  in
  let seq = locked t (fun () -> t.st_tmp_seq <- t.st_tmp_seq + 1; t.st_tmp_seq) in
  let tmp =
    Filename.concat t.st_dir
      (Printf.sprintf "%s%d.%d.%d" tmp_prefix (Unix.getpid ())
         (Domain.self () :> int)
         seq)
  in
  (* Publication is atomic (rename), and any I/O failure leaves the
     store no worse than a miss. *)
  match
    mkdir_p (Filename.dirname path);
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc header;
        output_string oc payload);
    Sys.rename tmp path
  with
  | () -> bump t (fun s -> { s with stores = s.stores + 1 }) "store"
  | exception _ -> ( try Sys.remove tmp with _ -> ())

let stats t = locked t (fun () -> t.st_stats)

let stats_json t =
  let s = stats t in
  List.map
    (fun (k, n) -> (k, Json.Int n))
    [
      ("hits", hits s);
      ("mem_hits", s.mem_hits);
      ("disk_hits", s.disk_hits);
      ("misses", s.misses);
      ("stores", s.stores);
      ("corrupt", s.corrupt);
      ("stale", s.stale);
    ]

let stats_line t =
  let s = stats t in
  Printf.sprintf
    "cache: %d hits (%d memory, %d disk), %d misses, %d stores, %d corrupt, \
     %d stale (dir %s)"
    (hits s) s.mem_hits s.disk_hits s.misses s.stores s.corrupt s.stale t.st_dir
