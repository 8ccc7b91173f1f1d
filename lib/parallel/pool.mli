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
    floored so each chunk is worth a minimum amount of measured work),
    and every participant claims the next unclaimed chunk from one shared
    atomic cursor until none is left. A domain that draws cheap chunks
    keeps claiming while another finishes a slow one, which balances load
    when per-item cost is skewed (as it is for coverage checks, where one
    example may trigger a full repair enumeration while its neighbours
    hit the fast path).

    Guarantees:
    - {b Deterministic ordering}: [map] runs [f] exactly once per item and
      writes each result at its input index, so the output is identical
      to the sequential [Array.map] regardless of which domain computed
      which chunk — and regardless of how the probe / inline / fan-out
      decision falls.
    - {b Exception propagation}: if any item raises, one of the raised
      exceptions is re-raised (with its backtrace) in the submitting
      domain. Items run inline (probe or inline finish) raise directly;
      on the fan-out path the first failure is re-raised after the batch
      drains, and remaining chunks still run.
    - {b Reentrancy}: a batch submitted from inside a pool task (any
      domain, including the submitter while it participates) runs
      sequentially in place instead of deadlocking on the pool.
    - {b Concurrent submitters}: the pool runs one fanned-out batch at a
      time. A batch that would fan out while another submitter's batch
      is in flight (two serve requests on their own threads) finishes
      inline on its caller instead of waiting for the pool: the caller
      may be computing a {!Memo} cell that a chunk of the batch in
      flight is blocked on, so waiting could deadlock.
    - {b Sequential path}: a pool of size [<= 1] spawns no domains and
      runs every batch as a plain sequential loop — bit-for-bit the
      pre-parallelism behaviour. *)

type t

(** Total participating domains, including the submitter; [1] means the
    pool is purely sequential. *)
val num_domains : t -> int

(** [get n] returns the process-wide shared pool of size [n], creating it
    on first use: every subsystem (coverage, learner, experiments) that
    asks for [n] domains shares one set of worker domains. Its
    [max 0 (n - 1)] workers block on a condition variable between
    batches, consume no CPU while idle, and are stopped and joined at
    exit. *)
val get : int -> t

(** [map pool f arr] is [Array.map f arr] computed in parallel with
    deterministic result ordering: the pool's one batch primitive. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** {2 Cost model}

    Process-wide knobs for the adaptive fan-out decision, in
    nanoseconds. Defaults: fan-out threshold 100µs (batches predicted
    cheaper than this finish inline), minimum chunk cost 20µs. The probe
    budget is a fixed 10µs. Exposed primarily so tests can force a path:
    [set_cost_model ~fanout_threshold:0 ~min_chunk:0 ()] makes every
    parallel-eligible batch fan out with small chunks; a huge
    [fanout_threshold] forces everything inline. *)

val set_cost_model : ?fanout_threshold:int -> ?min_chunk:int -> unit -> unit

(** Restore the default cost model. *)
val reset_cost_model : unit -> unit

(** Cumulative counters since pool creation. [busy_seconds.(0)] is the
    submitting side; slots [1..] are the workers. *)
type stats = {
  domains : int;
  tasks : int;  (** batches that fanned out to the workers *)
  chunks : int;  (** chunks claimed and run *)
  items : int;  (** items processed through parallel-eligible batches *)
  inline_batches : int;
      (** batches kept inline, by the cost model or because another
          submitter's batch was in flight *)
  busy_seconds : float array;
}

val stats : t -> stats

(** Log the counters on the [dlearn.pool] source at debug level. *)
val log_stats : t -> unit
