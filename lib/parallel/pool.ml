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

   The knobs are process-wide atomics so tests can force either path. *)

let default_fanout_threshold_ns = 100_000
let default_min_chunk_ns = 20_000
let probe_budget_ns = 10_000
let fanout_threshold_ns = Atomic.make default_fanout_threshold_ns
let min_chunk_ns = Atomic.make default_min_chunk_ns

let set_cost_model ?fanout_threshold ?min_chunk () =
  Option.iter (Atomic.set fanout_threshold_ns) fanout_threshold;
  Option.iter (Atomic.set min_chunk_ns) min_chunk

let reset_cost_model () =
  Atomic.set fanout_threshold_ns default_fanout_threshold_ns;
  Atomic.set min_chunk_ns default_min_chunk_ns

(* ------------------------------------------------------------------ *)
(* Jobs.

   A job covers items [base, total) of the caller's batch, split into
   [num_chunks] fixed-size chunks. Every participant claims the next
   chunk from the shared cursor [next] until it passes [num_chunks], so
   each chunk runs exactly once whichever domain takes it. [completed]
   counts finished chunks; the first exception wins the [failed] slot and
   is re-raised by the submitter once the batch drains. *)
type job = {
  run : int -> int -> unit; (* [run lo hi] processes items [lo, hi) *)
  base : int;
  total : int;
  chunk_size : int;
  num_chunks : int;
  next : int Atomic.t; (* the next unclaimed chunk *)
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
  submit_m : Mutex.t; (* held by the submitter of the job in flight *)
  (* Counters live on the Obs registry under [pool.<size>.*] — pools of
     one size are process-wide singletons (see [get]), so the registry
     name is the pool's identity. The busy array stays local: one slot
     per participant, indexed by position, which the registry's
     per-domain shards cannot represent. *)
  tasks_c : Obs.counter;
  chunks_c : Obs.counter;
  items_c : Obs.counter;
  inline_c : Obs.counter;
  participate_h : Obs.histogram;
  busy : float array; (* slot 0 = submitter, 1.. = workers *)
}

type stats = {
  domains : int;
  tasks : int;
  chunks : int;
  items : int;
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

(* Claim chunks from the cursor until none is left. Runs in workers and
   in the submitting domain alike. *)
let participate pool job slot =
  let t0 = Obs.now_ns () in
  let flag = Domain.DLS.get inside in
  let previously = !flag in
  flag := true;
  let rec claim () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < job.num_chunks then begin
      run_chunk pool job c;
      claim ()
    end
  in
  claim ();
  flag := previously;
  let dt = Obs.now_ns () - t0 in
  pool.busy.(slot) <- pool.busy.(slot) +. (float_of_int dt /. 1e9);
  if Obs.active () then begin
    Obs.observe_ns pool.participate_h dt;
    if Obs.recording () then
      Obs.emit_event
        ~args:[ ("slot", string_of_int slot) ]
        ~name:"pool.participate" ~start_ns:t0 ~dur_ns:dt ()
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
      inline_c = Obs.counter (Printf.sprintf "pool.%d.inline" size);
      participate_h = Obs.histogram (Printf.sprintf "pool.%d.participate" size);
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
        (* Each worker is recorded as soon as it exists, so a failed spawn
           leaves the earlier ones to be joined at shutdown. *)
        for slot = 1 to pool.size - 1 do
          let d = Domain.spawn (fun () -> worker_loop pool slot ~generation) in
          pool.workers <- d :: pool.workers
        done
      end)

let num_domains pool = pool.size

let stats pool =
  {
    domains = pool.size;
    tasks = Obs.value pool.tasks_c;
    chunks = Obs.value pool.chunks_c;
    items = Obs.value pool.items_c;
    inline_batches = Obs.value pool.inline_c;
    busy_seconds = Array.copy pool.busy;
  }

let log_stats pool =
  let s = stats pool in
  Log.debug (fun m ->
      m "pool[%d domains]: %d tasks, %d chunks, %d items, %d inline, busy %s"
        s.domains s.tasks s.chunks s.items s.inline_batches
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

(* Publish the job, work on it, then wait for stragglers. The caller holds
   the submit lock, which keeps one job in flight; it is released here,
   even when spawning the workers fails. *)
let run_job pool job =
  Fun.protect ~finally:(fun () -> Mutex.unlock pool.submit_m) (fun () ->
      ensure_workers pool;
      Obs.incr pool.tasks_c;
      Mutex.protect pool.m (fun () ->
          pool.job <- Some job;
          pool.generation <- pool.generation + 1;
          Condition.broadcast pool.cond);
      participate pool job 0;
      Mutex.protect pool.done_m (fun () ->
          while Atomic.get job.completed < job.num_chunks do
            Condition.wait pool.done_c pool.done_m
          done);
      (* Drop the drained job, so its closure and everything it captured
         become garbage now rather than at the next fan-out. *)
      Mutex.protect pool.m (fun () -> pool.job <- None));
  match Atomic.get job.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Chunks per participant once we do fan out: small enough that a domain
   which drew cheap chunks keeps claiming while another finishes a slow
   one, large enough to keep per-chunk bookkeeping off the hot path. *)
let chunking = 8

let sequential pool = pool.size <= 1 || in_worker ()

(* Hardware parallelism available to this process. A pool wider than the
   machine still computes correctly, but fanning out past [cores] — and in
   particular on a single-core host — can only add overhead, so the cost
   model folds it into the fan-out verdict. *)
let cores = lazy (Domain.recommended_domain_count ())

(* Adaptive batch runner. Item 0 already ran inline on the caller,
   starting at absolute time [t0]; finish items [1, n). Probing continues
   inline until the probe budget elapses, then the measured per-item cost
   picks inline finish vs fan-out (see the cost model above). Exceptions
   raised while inline propagate directly; on the fan-out path the first
   failure is re-raised after the batch drains. *)
let run_rest pool ~t0 run n =
  let threshold = Atomic.get fanout_threshold_ns in
  let i = ref 1 in
  if threshold > 0 then begin
    let deadline = t0 + probe_budget_ns in
    while !i < n && Obs.now_ns () < deadline do
      run !i (!i + 1);
      incr i
    done
  end;
  let probed = !i in
  if probed > 1 then Obs.add pool.items_c (probed - 1);
  if probed < n then begin
    let per_item = max 1 ((Obs.now_ns () - t0) / probed) in
    let remaining = n - probed in
    if
      threshold > 0
      && (remaining * per_item < threshold || min pool.size (Lazy.force cores) <= 1)
      (* Another submitter's batch is in flight: finish inline rather than
         wait for it. Waiting could deadlock, since this caller may be
         computing a [Memo] cell that a chunk of that batch is blocked
         on. *)
      || not (Mutex.try_lock pool.submit_m)
    then begin
      Obs.incr pool.inline_c;
      Obs.add pool.items_c remaining;
      run probed n
    end
    else begin
      (* Holding the submit lock, which [run_job] releases. *)
      let by_cost = Atomic.get min_chunk_ns / per_item in
      let chunk_size =
        min remaining (max 1 (max (remaining / (pool.size * chunking)) by_cost))
      in
      run_job pool
        {
          run;
          base = probed;
          total = n;
          chunk_size;
          num_chunks = (remaining + chunk_size - 1) / chunk_size;
          next = Atomic.make 0;
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
    Obs.incr pool.items_c;
    let results = Array.make n r0 in
    if n > 1 then begin
      let run lo hi =
        for j = lo to hi - 1 do
          results.(j) <- f arr.(j)
        done
      in
      run_rest pool ~t0 run n
    end;
    results
  end

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
