(** A fixed-size domain pool for data-parallel fan-out (OCaml 5 domains).

    The pool owns [num_domains - 1] worker domains, spawned lazily on the
    first batch that actually fans out — a pool whose batches all run
    inline never spawns a domain (idle domains are not free: every minor
    GC is a stop-the-world across all spawned domains). The submitting
    domain participates in every batch, so a pool of size [n] computes
    with [n] domains in total.

    Every batch goes through an adaptive cost model. The submitter first
    runs items inline while measuring their cost (the probe); if the
    predicted remaining work is below a fan-out threshold — or the host
    has no spare hardware parallelism to exploit
    ([Domain.recommended_domain_count () <= 1]) — the batch simply
    finishes inline: tiny batches never touch a mutex, a condition
    variable, or another domain. Otherwise the remaining items
    are split into chunks (sized from [remaining / (domains * chunking)],
    floored so each chunk is worth a minimum amount of measured work) and
    dealt into one work-stealing {!Deque} per participant: each domain
    drains its own deque LIFO and then steals FIFO from the others, which
    balances load when per-item cost is skewed (as it is for coverage
    checks, where one example may trigger a full repair enumeration while
    its neighbours hit the fast path).

    Guarantees:
    - {b Deterministic ordering}: [map] writes each result at its input
      index, so the output is identical to the sequential [Array.map]
      regardless of which domain computed which chunk — and regardless of
      how the probe / inline / fan-out decision falls. [filter_count]
      returns the same count as the sequential filter.
    - {b Exception propagation}: if any item raises, one of the raised
      exceptions is re-raised (with its backtrace) in the submitting
      domain. Items run inline (probe or inline finish) raise directly;
      on the fan-out path the first failure is re-raised after the batch
      drains, and remaining chunks still run.
    - {b Reentrancy}: a batch submitted from inside a pool task (any
      domain, including the submitter while it participates) runs
      sequentially in place instead of deadlocking on the pool.
    - {b Sequential path}: a pool of size [<= 1] spawns no domains and
      runs every batch as a plain sequential loop — bit-for-bit the
      pre-parallelism behaviour. *)

type t

(** [create ~num_domains] spawns [max 0 (num_domains - 1)] worker
    domains. Workers block on a condition variable between batches and
    consume no CPU while idle. *)
val create : num_domains:int -> t

(** Total participating domains, including the submitter; [1] means the
    pool is purely sequential. *)
val num_domains : t -> int

(** [get n] returns the process-wide shared pool of size [n], creating it
    on first use. Pools obtained this way are shut down automatically at
    exit. Use this rather than [create] when several subsystems (coverage,
    learner, experiments) should share one set of worker domains. *)
val get : int -> t

(** [in_worker ()] is [true] while the calling domain is executing a pool
    task. Exposed for code that must pick a sequential code path when it
    may be called from inside a fan-out. *)
val in_worker : unit -> bool

(** [map pool f arr] is [Array.map f arr] computed in parallel with
    deterministic result ordering. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [filter_count pool p arr] is the number of elements satisfying [p]. *)
val filter_count : t -> ('a -> bool) -> 'a array -> int

(** [iter pool f arr] runs [f] on every element, in parallel. *)
val iter : t -> ('a -> unit) -> 'a array -> unit

(** [fill pool ~n p] packs the verdicts [p 0 .. p (n-1)] into a fresh bit
    buffer of [(n + 7) / 8] bytes: bit [i] lives at byte [i lsr 3],
    position [i land 7], and is set iff [p i]. The work is chunked on
    whole-byte boundaries, so no two domains write the same byte and the
    result equals the sequential fill bit-for-bit. *)
val fill : t -> n:int -> (int -> bool) -> Bytes.t

(** {2 Cost model}

    Process-wide knobs for the adaptive fan-out decision, in
    nanoseconds. Defaults: fan-out threshold 100µs (batches predicted
    cheaper than this finish inline), minimum chunk cost 20µs, probe
    budget 10µs. Exposed primarily so tests can force a path:
    [set_cost_model ~fanout_threshold:0 ~min_chunk:0 ()] makes every
    parallel-eligible batch fan out with small chunks (maximum stealing);
    a huge [fanout_threshold] forces everything inline. *)

val set_cost_model :
  ?fanout_threshold:int -> ?min_chunk:int -> ?probe_budget:int -> unit -> unit

(** Restore the default cost model. *)
val reset_cost_model : unit -> unit

(** Exponentially-weighted moving average of the measured per-item cost
    (ns) across recent batches — the cost model's feedback hook, exposed
    for observability. [0] until the first measured batch. *)
val last_item_cost_ns : unit -> int

(** Cumulative counters since pool creation. [busy_seconds.(0)] is the
    submitting side; slots [1..] are the workers. *)
type stats = {
  domains : int;
  tasks : int;  (** batches that fanned out to the workers *)
  chunks : int;  (** chunks claimed and run *)
  items : int;  (** items processed through parallel-eligible batches *)
  steals : int;  (** chunks taken from another participant's deque *)
  inline_batches : int;  (** batches the cost model kept inline *)
  busy_seconds : float array;
}

val stats : t -> stats

(** Log the counters on the [dlearn.pool] source at debug level. *)
val log_stats : t -> unit

(** Stop the workers and join them. The pool must not be used afterwards;
    idempotent. Pools from {!get} are shut down at exit automatically. *)
val shutdown : t -> unit
