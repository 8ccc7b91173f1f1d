let src = Logs.Src.create "dlearn.pool" ~doc:"Domain pool counters"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Dlearn_obs.Obs

(* ------------------------------------------------------------------ *)
(* Cost model.

   Every batch starts by running items inline on the submitting domain
   while the clock runs. The measured per-item cost decides, per batch:

   - finish inline when the predicted remaining work is below
     [fanout_threshold_ns] — tiny batches never touch a mutex, a
     condition variable, or another domain;
   - otherwise fan out, with the chunk size derived from
     [remaining / (domains * chunking)] but floored so a chunk is worth
     at least [min_chunk_ns] of work (cheap items get big chunks, so
     per-chunk bookkeeping never dominates).

   The knobs are process-wide atomics so tests can force either path;
   [ewma_item_ns] is a feedback hook fed by every measured batch and
   exposed through {!last_item_cost_ns} for observability. *)

let default_fanout_threshold_ns = 100_000
let default_min_chunk_ns = 20_000
let default_probe_budget_ns = 10_000
let fanout_threshold_ns = Atomic.make default_fanout_threshold_ns
let min_chunk_ns = Atomic.make default_min_chunk_ns
let probe_budget_ns = Atomic.make default_probe_budget_ns
let ewma_item_ns = Atomic.make 0

let set_cost_model ?fanout_threshold ?min_chunk ?probe_budget () =
  Option.iter (Atomic.set fanout_threshold_ns) fanout_threshold;
  Option.iter (Atomic.set min_chunk_ns) min_chunk;
  Option.iter (Atomic.set probe_budget_ns) probe_budget

let reset_cost_model () =
  Atomic.set fanout_threshold_ns default_fanout_threshold_ns;
  Atomic.set min_chunk_ns default_min_chunk_ns;
  Atomic.set probe_budget_ns default_probe_budget_ns

let last_item_cost_ns () = Atomic.get ewma_item_ns

let note_item_cost per_item =
  let prev = Atomic.get ewma_item_ns in
  let next = if prev = 0 then per_item else (3 * prev + per_item) / 4 in
  Atomic.set ewma_item_ns next

(* ------------------------------------------------------------------ *)
(* Jobs.

   A job covers items [base, total) of the caller's batch, split into
   [num_chunks] fixed-size chunks. Chunk indexes are dealt up front into
   one work-stealing deque per participant slot; a participant drains its
   own deque LIFO and then steals FIFO from the others. [completed]
   counts finished chunks; the first exception wins the [failed] slot and
   is re-raised by the submitter once the batch drains. *)
type job = {
  run : int -> int -> unit; (* [run lo hi] processes items [lo, hi) *)
  base : int;
  total : int;
  chunk_size : int;
  num_chunks : int;
  deques : Deque.t array; (* one per slot; slot 0 = submitter *)
  completed : int Atomic.t;
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
}

type t = {
  size : int; (* participating domains, including the submitter *)
  mutable workers : unit Domain.t list;
  mutable spawned : bool; (* workers exist; guarded by [m] *)
  m : Mutex.t; (* guards job/generation/stopping *)
  cond : Condition.t; (* job arrival and shutdown *)
  done_m : Mutex.t;
  done_c : Condition.t; (* batch completion *)
  mutable job : job option;
  mutable generation : int;
  mutable stopping : bool;
  submit_m : Mutex.t; (* serializes submitters *)
  (* Counters live on the Obs registry under [pool.<size>.*] — pools of
     one size are process-wide singletons (see [get]), so the registry
     name is the pool's identity. The busy array stays local: one slot
     per participant, indexed by position, which the registry's
     per-domain shards cannot represent. *)
  tasks_c : Obs.counter;
  chunks_c : Obs.counter;
  items_c : Obs.counter;
  steals_c : Obs.counter;
  inline_c : Obs.counter;
  participate_h : Obs.histogram;
  chunk_size_h : Obs.histogram;
  busy : float array; (* slot 0 = submitter, 1.. = workers *)
}

type stats = {
  domains : int;
  tasks : int;
  chunks : int;
  items : int;
  steals : int;
  inline_batches : int;
  busy_seconds : float array;
}

(* True while this domain is executing a pool task; nested batches fall
   back to the sequential path instead of deadlocking on the pool. *)
let inside : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)
let in_worker () = !(Domain.DLS.get inside)

let run_chunk pool job c =
  let lo = job.base + (c * job.chunk_size) in
  let hi = min job.total (lo + job.chunk_size) in
  (try job.run lo hi
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     ignore (Atomic.compare_and_set job.failed None (Some (e, bt))));
  Obs.incr pool.chunks_c;
  Obs.add pool.items_c (hi - lo);
  let finished = 1 + Atomic.fetch_and_add job.completed 1 in
  if finished = job.num_chunks then begin
    Mutex.lock pool.done_m;
    Condition.broadcast pool.done_c;
    Mutex.unlock pool.done_m
  end

(* Drain own deque LIFO, then steal FIFO from the others. Exit only after
   one clean scan in which every deque reported Empty and no CAS was
   lost — emptiness is monotone after publication, so a clean scan means
   the batch has no unclaimed chunks left. Runs in workers and in the
   submitting domain alike. *)
let participate pool job slot =
  let t0 = Unix.gettimeofday () in
  let flag = Domain.DLS.get inside in
  let previously = !flag in
  flag := true;
  let own = job.deques.(slot) in
  let nd = Array.length job.deques in
  let rec drain_own () =
    match Deque.pop own with
    | Some c ->
        run_chunk pool job c;
        drain_own ()
    | None -> steal_scan ()
  and steal_scan () =
    let progressed = ref false in
    let contended = ref false in
    for k = 1 to nd - 1 do
      match Deque.steal job.deques.((slot + k) mod nd) with
      | Deque.Stolen c ->
          Obs.incr pool.steals_c;
          run_chunk pool job c;
          progressed := true
      | Deque.Lost -> contended := true
      | Deque.Empty -> ()
    done;
    if !progressed || !contended then steal_scan ()
  in
  drain_own ();
  flag := previously;
  let t1 = Unix.gettimeofday () in
  let dt = t1 -. t0 in
  pool.busy.(slot) <- pool.busy.(slot) +. dt;
  if Obs.active () then begin
    let ns t = int_of_float (t *. 1e9) in
    Obs.observe_ns pool.participate_h (ns dt);
    (* The event's ends are rounded alike, as [Obs.span] rounds them, so
       it cannot overlap the span that follows it on this domain. *)
    if Obs.recording () then
      Obs.emit_event
        ~args:[ ("slot", string_of_int slot) ]
        ~name:"pool.participate"
        ~start_ns:(ns t0) ~dur_ns:(ns t1 - ns t0) ()
  end

let worker_loop pool slot ~generation =
  let seen = ref generation in
  let rec loop () =
    Mutex.lock pool.m;
    while (not pool.stopping) && pool.generation = !seen do
      Condition.wait pool.cond pool.m
    done;
    if pool.stopping then Mutex.unlock pool.m
    else begin
      seen := pool.generation;
      let job = pool.job in
      Mutex.unlock pool.m;
      (match job with Some j -> participate pool j slot | None -> ());
      loop ()
    end
  in
  loop ()

let create ~num_domains =
  let size = max 1 num_domains in
  let pool =
    {
      size;
      workers = [];
      spawned = false;
      m = Mutex.create ();
      cond = Condition.create ();
      done_m = Mutex.create ();
      done_c = Condition.create ();
      job = None;
      generation = 0;
      stopping = false;
      submit_m = Mutex.create ();
      tasks_c = Obs.counter (Printf.sprintf "pool.%d.tasks" size);
      chunks_c = Obs.counter (Printf.sprintf "pool.%d.chunks" size);
      items_c = Obs.counter (Printf.sprintf "pool.%d.items" size);
      steals_c = Obs.counter (Printf.sprintf "pool.%d.steals" size);
      inline_c = Obs.counter (Printf.sprintf "pool.%d.inline" size);
      participate_h = Obs.histogram (Printf.sprintf "pool.%d.participate" size);
      chunk_size_h = Obs.histogram (Printf.sprintf "pool.%d.chunk_size" size);
      busy = Array.make size 0.0;
    }
  in
  pool

(* Worker domains are spawned on the first fan-out, not at pool creation.
   Idle domains are not free: every minor collection is a stop-the-world
   across all spawned domains, so a pool whose batches all run inline
   (single-core host, or uniformly tiny batches) must not tax the
   process for workers it never uses. *)
let ensure_workers pool =
  Mutex.protect pool.m (fun () ->
      if (not pool.spawned) && not pool.stopping then begin
        pool.spawned <- true;
        let generation = pool.generation in
        pool.workers <-
          List.init (pool.size - 1) (fun i ->
              Domain.spawn (fun () -> worker_loop pool (i + 1) ~generation))
      end)

let num_domains pool = pool.size

let stats pool =
  {
    domains = pool.size;
    tasks = Obs.value pool.tasks_c;
    chunks = Obs.value pool.chunks_c;
    items = Obs.value pool.items_c;
    steals = Obs.value pool.steals_c;
    inline_batches = Obs.value pool.inline_c;
    busy_seconds = Array.copy pool.busy;
  }

let log_stats pool =
  let s = stats pool in
  Log.debug (fun m ->
      m "pool[%d domains]: %d tasks, %d chunks, %d items, %d steals, %d inline, busy %s"
        s.domains s.tasks s.chunks s.items s.steals s.inline_batches
        (String.concat "/"
           (Array.to_list
              (Array.map (fun b -> Printf.sprintf "%.2fs" b) s.busy_seconds))))

let shutdown pool =
  let workers =
    Mutex.protect pool.m (fun () ->
        if pool.stopping then []
        else begin
          pool.stopping <- true;
          Condition.broadcast pool.cond;
          let ws = pool.workers in
          pool.workers <- [];
          ws
        end)
  in
  List.iter Domain.join workers;
  if workers <> [] then log_stats pool

(* Publish the job, work on it, then wait for stragglers. The submit lock
   keeps concurrent submitters (and their jobs) strictly ordered. *)
let run_job pool job =
  Mutex.lock pool.submit_m;
  ensure_workers pool;
  Obs.incr pool.tasks_c;
  Mutex.lock pool.m;
  pool.job <- Some job;
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.m;
  participate pool job 0;
  Mutex.lock pool.done_m;
  while Atomic.get job.completed < job.num_chunks do
    Condition.wait pool.done_c pool.done_m
  done;
  Mutex.unlock pool.done_m;
  (* Drop the drained job, so its closure and everything it captured
     become garbage now rather than at the next fan-out. *)
  Mutex.protect pool.m (fun () -> pool.job <- None);
  Mutex.unlock pool.submit_m;
  match Atomic.get job.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Chunks per participant once we do fan out: small enough to even out
   skewed item costs (stealing rebalances the rest), large enough to keep
   per-chunk bookkeeping off the hot path. *)
let chunking = 8

let sequential pool = pool.size <= 1 || in_worker ()

(* Adaptive batch runner. Items [0, start) already ran inline on the
   caller starting at absolute time [t0]; finish items [start, n).
   Probing continues inline until the probe budget elapses, then the
   measured per-item cost picks inline finish vs fan-out (see the cost
   model above). Exceptions raised while inline propagate directly; on
   the fan-out path the first failure is re-raised after the batch
   drains, like before. *)
(* Hardware parallelism available to this process. A pool wider than the
   machine still computes correctly, but fanning out past [cores] — and in
   particular on a single-core host — can only add overhead, so the cost
   model folds it into the fan-out verdict. *)
let cores = lazy (Domain.recommended_domain_count ())

let run_from pool ~t0 ~start run n =
  let threshold = Atomic.get fanout_threshold_ns in
  let i = ref start in
  if threshold > 0 then begin
    let deadline = t0 + Atomic.get probe_budget_ns in
    while !i < n && Obs.now_ns () < deadline do
      run !i (!i + 1);
      incr i
    done
  end;
  let probed = !i in
  if probed > start then Obs.add pool.items_c (probed - start);
  if probed < n then begin
    let elapsed = Obs.now_ns () - t0 in
    let per_item = if probed = 0 then 0 else max 1 (elapsed / probed) in
    if per_item > 0 then note_item_cost per_item;
    let remaining = n - probed in
    if
      threshold > 0
      && (remaining * per_item < threshold || min pool.size (Lazy.force cores) <= 1)
    then begin
      Obs.incr pool.inline_c;
      Obs.add pool.items_c remaining;
      run probed n
    end
    else begin
      let by_cost =
        if per_item = 0 then 1 else Atomic.get min_chunk_ns / per_item
      in
      let chunk_size =
        min remaining (max 1 (max (remaining / (pool.size * chunking)) by_cost))
      in
      let num_chunks = (remaining + chunk_size - 1) / chunk_size in
      Obs.observe_ns pool.chunk_size_h chunk_size;
      let per_deque = (num_chunks + pool.size - 1) / pool.size in
      let deques =
        Array.init pool.size (fun s ->
            let lo = min num_chunks (s * per_deque) in
            Deque.make lo (min num_chunks (lo + per_deque)))
      in
      run_job pool
        {
          run;
          base = probed;
          total = n;
          chunk_size;
          num_chunks;
          deques;
          completed = Atomic.make 0;
          failed = Atomic.make None;
        }
    end
  end

let map pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if sequential pool then Array.map f arr
  else begin
    let t0 = Obs.now_ns () in
    let r0 = f arr.(0) in
    let results = Array.make n r0 in
    if n > 1 then begin
      let run lo hi =
        for j = lo to hi - 1 do
          results.(j) <- f arr.(j)
        done
      in
      run_from pool ~t0 ~start:1 run n
    end;
    results
  end

let iter pool f arr =
  let n = Array.length arr in
  let run lo hi =
    for j = lo to hi - 1 do
      f arr.(j)
    done
  in
  if n = 0 then ()
  else if sequential pool then run 0 n
  else run_from pool ~t0:(Obs.now_ns ()) ~start:0 run n

let filter_count pool p arr =
  let n = Array.length arr in
  if sequential pool then
    Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 arr
  else begin
    let total = Atomic.make 0 in
    let run lo hi =
      let count = ref 0 in
      for j = lo to hi - 1 do
        if p arr.(j) then incr count
      done;
      if !count > 0 then ignore (Atomic.fetch_and_add total !count)
    in
    if n > 0 then run_from pool ~t0:(Obs.now_ns ()) ~start:0 run n;
    Atomic.get total
  end

(* Pack [p 0 .. p (n-1)] into a fresh bit buffer, bit [i] at byte
   [i lsr 3] / position [i land 7]. Work items are whole bytes, so no
   two domains ever read-modify-write the same byte — plain writes are
   race-free without atomics. *)
let fill pool ~n p =
  let nbytes = (max 0 n + 7) / 8 in
  let buf = Bytes.make nbytes '\000' in
  let fill_byte byte =
    let lo = byte lsl 3 in
    let hi = min n (lo + 8) in
    let v = ref 0 in
    for i = lo to hi - 1 do
      if p i then v := !v lor (1 lsl (i - lo))
    done;
    if !v <> 0 then Bytes.set buf byte (Char.chr !v)
  in
  let run lo hi =
    for byte = lo to hi - 1 do
      fill_byte byte
    done
  in
  if nbytes = 0 then ()
  else if sequential pool then run 0 nbytes
  else run_from pool ~t0:(Obs.now_ns ()) ~start:0 run nbytes;
  buf

let map_list pool f l = Array.to_list (map pool f (Array.of_list l))

(* Process-wide pools, one per size, shut down at exit so no domain is
   left blocked on a condition variable when the runtime tears down. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_m = Mutex.create ()
let at_exit_installed = ref false

let get num_domains =
  let size = max 1 num_domains in
  Mutex.protect registry_m (fun () ->
      match Hashtbl.find_opt registry size with
      | Some pool -> pool
      | None ->
          let pool = create ~num_domains:size in
          Hashtbl.add registry size pool;
          if not !at_exit_installed then begin
            at_exit_installed := true;
            at_exit (fun () ->
                let pools =
                  Mutex.protect registry_m (fun () ->
                      Hashtbl.fold (fun _ p acc -> p :: acc) registry [])
                in
                List.iter shutdown pools)
          end;
          pool)
