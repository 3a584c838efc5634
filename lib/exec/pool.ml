(* Hand-rolled OCaml 5 domain work pool: one worker loop, the
   persistent executor's. Its jobs wait on a bounded queue guarded by a
   Mutex/Condition pair. [map] is a short-lived executor with one job
   per array index; the calling domain only submits and waits. *)

(* 0 = resolve from IMPACT_JOBS or the machine's core count. *)
let default = Atomic.make 0

let set_default_workers n = Atomic.set default (max 0 n)

let resolve_workers () =
  let d = Atomic.get default in
  if d > 0 then d
  else
    match Sys.getenv_opt "IMPACT_JOBS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ()

(* ---- Persistent executor ----

   An executor keeps a fixed set of worker domains alive behind a
   bounded job queue. The
   bound is the admission-control surface: [submit] refuses instead of
   buffering unboundedly, so callers (the TCP listener) can shed load
   with an explicit error. Shutdown is a drain: already-accepted jobs
   still run, then the workers exit and are joined. *)

type executor = {
  ex_mutex : Mutex.t;
  ex_work : Condition.t;  (* queue gained work, or the executor closed *)
  ex_queue : (unit -> unit) Queue.t;
  ex_capacity : int;
  ex_workers : int;
  mutable ex_running : int;  (* jobs currently executing *)
  mutable ex_closed : bool;
  mutable ex_domains : unit Domain.t list;
  (* Lifetime accounting, all guarded by [ex_mutex]. *)
  mutable ex_submitted : int;  (* jobs accepted by [submit] *)
  mutable ex_completed : int;  (* jobs that finished running *)
  mutable ex_rejected : int;  (* submissions refused (queue full / closed) *)
  mutable ex_peak_queue : int;  (* high-water mark of the pending queue *)
  ex_on_complete : unit -> unit;  (* completion wakeup, outside the lock *)
}

type executor_stats = {
  submitted : int;
  completed : int;
  rejected : int;
  peak_queue : int;
}

let create_executor ?workers ?(on_complete = fun () -> ()) ~queue_depth () =
  let w = match workers with Some w -> max 1 w | None -> resolve_workers () in
  let ex =
    {
      ex_mutex = Mutex.create ();
      ex_work = Condition.create ();
      ex_queue = Queue.create ();
      ex_capacity = max 1 queue_depth;
      ex_workers = w;
      ex_running = 0;
      ex_closed = false;
      ex_domains = [];
      ex_submitted = 0;
      ex_completed = 0;
      ex_rejected = 0;
      ex_peak_queue = 0;
      ex_on_complete = on_complete;
    }
  in
  let worker () =
    let rec next () =
      Mutex.lock ex.ex_mutex;
      let rec take () =
        if not (Queue.is_empty ex.ex_queue) then Some (Queue.pop ex.ex_queue)
        else if ex.ex_closed then None
        else begin
          Condition.wait ex.ex_work ex.ex_mutex;
          take ()
        end
      in
      let job = take () in
      (match job with Some _ -> ex.ex_running <- ex.ex_running + 1 | None -> ());
      Mutex.unlock ex.ex_mutex;
      match job with
      | None -> ()
      | Some f ->
        (try f () with _ -> ());
        Mutex.lock ex.ex_mutex;
        ex.ex_running <- ex.ex_running - 1;
        ex.ex_completed <- ex.ex_completed + 1;
        Mutex.unlock ex.ex_mutex;
        (try ex.ex_on_complete () with _ -> ());
        next ()
    in
    next ()
  in
  ex.ex_domains <- List.init w (fun _ -> Domain.spawn worker);
  ex

let submit ex f =
  Mutex.lock ex.ex_mutex;
  let ok = (not ex.ex_closed) && Queue.length ex.ex_queue < ex.ex_capacity in
  if ok then begin
    Queue.add f ex.ex_queue;
    ex.ex_submitted <- ex.ex_submitted + 1;
    ex.ex_peak_queue <- max ex.ex_peak_queue (Queue.length ex.ex_queue);
    Condition.signal ex.ex_work
  end
  else ex.ex_rejected <- ex.ex_rejected + 1;
  Mutex.unlock ex.ex_mutex;
  ok

let queue_length ex =
  Mutex.lock ex.ex_mutex;
  let n = Queue.length ex.ex_queue in
  Mutex.unlock ex.ex_mutex;
  n

let running ex =
  Mutex.lock ex.ex_mutex;
  let n = ex.ex_running in
  Mutex.unlock ex.ex_mutex;
  n

let executor_stats ex =
  Mutex.lock ex.ex_mutex;
  let s =
    {
      submitted = ex.ex_submitted;
      completed = ex.ex_completed;
      rejected = ex.ex_rejected;
      peak_queue = ex.ex_peak_queue;
    }
  in
  Mutex.unlock ex.ex_mutex;
  s

let executor_workers ex = ex.ex_workers

let shutdown_executor ex =
  Mutex.lock ex.ex_mutex;
  ex.ex_closed <- true;
  Condition.broadcast ex.ex_work;
  Mutex.unlock ex.ex_mutex;
  List.iter Domain.join ex.ex_domains;
  ex.ex_domains <- []

(* ---- Batch map over a short-lived executor ----

   One task per index, each writing its own result slot, so the order
   of results is the input order whatever the worker count or the
   scheduling. Shutdown is the join: it returns once every task ran.
   With one worker the map runs inline and is [Array.map]. *)

type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let map ?workers (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  let w = min n (match workers with Some w -> max 1 w | None -> resolve_workers ()) in
  if w <= 1 then Array.map f xs
  else begin
    let slots = Array.make n Pending in
    let ex = create_executor ~workers:w ~queue_depth:n () in
    for k = 0 to n - 1 do
      ignore
        (submit ex (fun () ->
           slots.(k) <-
             (try Done (f xs.(k)) with e -> Failed (e, Printexc.get_raw_backtrace ()))))
    done;
    shutdown_executor ex;
    Array.map
      (function
        | Done v -> v
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending -> assert false)
      slots
  end

let map_list ?workers f xs = Array.to_list (map ?workers f (Array.of_list xs))
