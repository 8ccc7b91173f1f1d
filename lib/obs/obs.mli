(** Unified observability: a process-wide metrics registry and a span API
    with Chrome-trace export.

    The paper's evaluation (§6) is about where learning time goes; this
    module gives every subsystem one way to answer that. Three kinds of
    metric live in a single registry keyed by dotted lowercase names
    (see docs/OBSERVABILITY.md for the naming scheme):

    - {b counters} — monotone integer totals ([subsumption.nodes]);
    - {b gauges} — last-write-wins floats ([pool.4.domains]);
    - {b histograms} — duration aggregates in nanoseconds (count / total /
      min / max), fed by {!observe_ns} and {!span}.

    Metric cells are sharded per domain: each domain writes its own cell
    (reached through domain-local storage, no lock on the hot path) and
    readers merge the shards, so [Pool] workers record without contention.
    Values read while writers are running may be a few updates stale;
    totals are exact once the writers quiesce.

    {b Spans} wrap a stage of work: while spans are {!active} (metrics
    switched on via {!set_metrics}, or a recording in progress),
    [span ~name f] times [f], feeds the duration into the histogram
    registered under [name], and — only while a recording is active —
    appends a trace event carrying the domain id and wall-clock
    timestamps. When spans are inactive the call is a bare [f ()] behind
    one atomic load. Spans nest freely (trace viewers infer nesting from
    containment) and re-raise exceptions after recording.

    Tracing never changes results: the learner's output is byte-identical
    with recording on and off.

    {b Trace export} renders the recorded events as Chrome trace-event
    JSON ({{:https://ui.perfetto.dev}Perfetto} and [chrome://tracing]
    both load it): one complete ("ph":"X") event per span, [ts]/[dur] in
    microseconds, [pid] the OS process, [tid] the OCaml domain. *)

(** {1 Clock} *)

(** Wall-clock nanoseconds since the Unix epoch ([Unix.gettimeofday]
    scaled) — the one clock every subsystem stamps with, so spans from
    different domains line up on a trace. *)
val now_ns : unit -> int

(** {1 Counters} *)

type counter

(** [counter name] returns the counter registered under [name], creating
    it on first use. Callers on hot paths should hoist the handle. *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** Merged total across all domain shards. *)
val value : counter -> int

(** Zero every shard of this counter (concurrent bumps may survive). *)
val reset_counter : counter -> unit

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram

(** Record one duration, in nanoseconds. *)
val observe_ns : histogram -> int -> unit

type histogram_snapshot = {
  count : int;
  total_ns : int;
  min_ns : int;  (** 0 when [count = 0] *)
  max_ns : int;  (** 0 when [count = 0] *)
}

val histogram_snapshot : histogram -> histogram_snapshot

(** {1 Spans} *)

(** [span ~args name f] runs [f ()] and, while spans are {!active},
    feeds its duration into the histogram registered under [name] and —
    while additionally recording — appends a trace event ([args] become
    the event's ["args"] object). Exceptions are recorded (an
    ["exception"] arg is added) and re-raised with their backtrace.

    When spans are {b not} active (no {!set_metrics}, no recording) the
    call short-circuits to a bare [f ()]: one atomic load, no
    timestamps, no histogram lookup, no event allocation. Consumers of
    span histograms ({!report}, benches, tests) must therefore switch
    metrics on first. *)
val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** [set_metrics true] makes spans feed their histograms even when no
    trace recording is active — required before {!report} /
    {!report_json} can show span timings. Off by default. *)
val set_metrics : bool -> unit

val metrics_enabled : unit -> bool

(** [active ()] is [true] iff spans currently do work: metrics are on or
    a recording is in progress. A single atomic load, exposed so other
    producers (e.g. the pool's participate histogram) can share the same
    fast-path gate. *)
val active : unit -> bool

(** [emit_event ~name ~start_ns ~dur_ns ()] appends a trace event for
    work timed by the caller (used where the timing already exists, e.g.
    the subsumption kernel's per-solve clock). No-op unless recording;
    does {b not} touch any histogram. *)
val emit_event :
  ?args:(string * string) list ->
  name:string ->
  start_ns:int ->
  dur_ns:int ->
  unit ->
  unit

(** {1 Recording and export} *)

(** [recording ()] is [true] between {!start_recording} and
    {!stop_recording}. The check is a single atomic load — cheap enough
    to gate per-solve event emission. *)
val recording : unit -> bool

(** Drop previously recorded events and start collecting new ones. *)
val start_recording : unit -> unit

val stop_recording : unit -> unit

(** [write_trace path] writes every event recorded since
    {!start_recording} as Chrome trace-event JSON. Timestamps are
    rebased so the trace starts near 0. Recording stays active. *)
val write_trace : string -> unit

(** If [DLEARN_TRACE] names a file, start recording now and write the
    trace there at process exit. For entry points that do not route
    through [Experiment.evaluate] (which honours [Config.trace] itself). *)
val install_env_trace : unit -> unit

(** {1 Reports} *)

(** Pretty per-stage report: histograms (count/total/mean/max, widest
    total first), then counters and gauges, in name order. *)
val report : unit -> string

(** The same data as a JSON object:
    [{"spans": [...], "counters": [...], "gauges": [...]}] — the answer
    of the serve [metrics] op. *)
val report_json : unit -> string

(** [json_escape s] is [s] escaped for the inside of a JSON string
    literal: quote, backslash and control bytes are escaped, every other
    byte (non-ASCII included) passes through. The one escaper behind every
    JSON the repo writes: traces, reports, diagnostics and the serve
    protocol. *)
val json_escape : string -> string

(** Zero every metric and drop recorded events. Handles stay valid. *)
val reset : unit -> unit

(** {1 Process memory}

    [peak_rss_kb ()] reads the process's lifetime peak resident set
    (VmHWM) from [/proc/self/status], in kilobytes — [None] where that
    interface does not exist (non-Linux). Note the value is a high-water
    mark for the whole process: phases measured later can only see it
    grow, so it cannot compare two phases of one run (the streaming
    ingestion test compares live words after a full major GC instead). *)
val peak_rss_kb : unit -> int option
