(** Shared learning context: the database, its constraints, the
    precomputed per-attribute similarity indexes (§5 precomputes similar
    value pairs), and the cache of ground bottom clauses with their repair
    enumerations — the most expensive objects of a learning run. *)

type ground_entry = {
  ground : Dlearn_logic.Clause.t;
  lock : Mutex.t;
      (** guards all mutable fields below — the coverage engine memoizes
          into them from several domains at once; take it through
          [Coverage]'s accessors rather than reading the fields directly
          in parallel code *)
  mutable cfd_apps : Dlearn_logic.Clause.t list option;
  mutable repairs : Dlearn_logic.Clause.t list option;
  mutable target : Dlearn_logic.Subsumption.target option;
      (** the ground clause prepared for matching, built on first use *)
  mutable repair_targets : Dlearn_logic.Subsumption.target list option;
  mutable prefilter_target : Dlearn_logic.Subsumption.target option;
      (** the ground clause's relational part with equality literals
          linking every potentially-merged term pair — the target of the
          necessary-condition check that gates repair enumeration *)
}

type cover_stats = {
  tested : Dlearn_obs.Obs.counter;
      (** coverage verdicts computed by actually running a predicate *)
  inherited : Dlearn_obs.Obs.counter;
      (** positive verdicts inherited from the ARMG parent without testing *)
  cache_hits : Dlearn_obs.Obs.counter;
      (** verdicts found in the cross-seed cover cache *)
  pruned : Dlearn_obs.Obs.counter;
      (** candidates whose negative sweep was cut short by the score bound *)
}
(** Cumulative incremental-coverage counters, registered process-wide on
    the {!Dlearn_obs.Obs} registry under [coverage.*] (every context
    shares them; diff {!Dlearn_obs.Obs.value} around a run to attribute
    it). Logged by the learner on [dlearn.learner] at the end of every
    run. *)

type t = {
  config : Config.t;
  db : Dlearn_relation.Database.t;
  mds : Dlearn_constraints.Md.t list;
  cfds : Dlearn_constraints.Cfd.t list;
  mutable rng : Random.State.t;
      (** the learner's sampling stream; {!reset_rng} rewinds it so a
          warm-context learn replays a cold run's draws exactly *)
  sim_indexes : (string * int, Dlearn_similarity.Sim_index.t) Hashtbl.t;
  sim_lock : Mutex.t;  (** guards [sim_indexes] *)
  ground_cache : (string, ground_entry) Hashtbl.t;
  ground_lock : Mutex.t;  (** guards [ground_cache] *)
  example_ids : (string, int) Hashtbl.t;
      (** dense example-id registry ([example_key] → id); access through
          {!example_id} *)
  example_lock : Mutex.t;  (** guards [example_ids] *)
  cover_cache : Cover_set.entry Cover_set.Clause_tbl.t;
      (** canonical clause → known coverage verdicts, shared across seeds;
          access through {!cover_entry} *)
  cover_lock : Mutex.t;  (** guards [cover_cache] (not the entries) *)
  cover_stats : cover_stats;
  armg_cache :
    (string, Dlearn_logic.Clause.t option Cover_set.Clause_tbl.t) Hashtbl.t;
      (** example key → parent clause → memoized ARMG result; access
          through {!armg_cached}. Entries live exactly as long as the
          example's ground entry ({!apply_delta} drops both together). *)
  armg_lock : Mutex.t;  (** guards [armg_cache] *)
  norm_cache : Dlearn_logic.Clause.t Cover_set.Clause_tbl.t;
      (** clause as given → its normal form; access through
          {!normalize}. No write drops an entry. *)
  norm_lock : Mutex.t;  (** guards [norm_cache] *)
}

(** [create config db mds cfds] prepares the context: one similarity index
    per (relation, attribute) compared by some MD (skipped in
    exact-matching mode). MDs mentioning the target relation or relations
    absent from [db] are rejected with [Invalid_argument] — the paper's
    workloads key every target on an identifier that appears exactly. *)
val create :
  Config.t ->
  Dlearn_relation.Database.t ->
  Dlearn_constraints.Md.t list ->
  Dlearn_constraints.Cfd.t list ->
  t

(** [pool t] is the shared domain pool of [config.num_domains] domains
    the coverage engine fans out on; size 1 is the sequential path. *)
val pool : t -> Dlearn_parallel.Pool.t

(** [reset_rng t] rewinds the sampling stream to [config.seed]. A
    long-lived context (the serve loop) calls this before every learn
    request so warm learns are byte-identical to cold runs. *)
val reset_rng : t -> unit

(** [apply_delta t changes] invalidates exactly the state a written
    tuple delta can touch, and returns the number of examples
    invalidated. [changes] lists, per changed relation, every touched
    tuple: the new tuple for an insert, the new and the previous tuple
    for an update (the serve loop's [insert] and [update] pass exactly
    these). An example is invalidated iff some changed value is equal
    to some constant of its cached ground bottom clause, or — at an
    attribute position some MD compares — similar to one under that
    MD's effective operator; a sound over-approximation of "the bottom
    clause could change" (docs/SERVE.md): its ground entry and memoized
    ARMG results are dropped and its bits leave every cover-cache
    entry. Similarity indexes over changed relations are dropped and
    rebuild lazily. Normal forms ({!normalize}) read no data and carry
    across. Span [delta.apply]; counters: [delta.commits],
    [delta.invalidated_examples], [delta.sim_indexes_dropped]. Callers
    must order this against concurrent coverage requests (the serve loop
    holds the writer lock). *)
val apply_delta :
  t -> (string * Dlearn_relation.Tuple.t list) list -> int

(** [sim_index t rel pos] is the index over the distinct values of the
    attribute (built lazily on first use; safe to call from any domain). *)
val sim_index : t -> string -> int -> Dlearn_similarity.Sim_index.t

(** [example_key e] is the cache key of a training example. *)
val example_key : Dlearn_relation.Tuple.t -> string

(** [example_id t e] interns [e] into the dense id space shared by all
    coverage bitsets, assigning ids in first-seen order. Duplicate tuples
    share one id. Safe from any domain. *)
val example_id : t -> Dlearn_relation.Tuple.t -> int

(** Number of distinct examples interned so far. *)
val example_count : t -> int

(** [normalize t c] is {!Dlearn_logic.Clause_norm.normalize}[ c],
    memoized per context on [c] as given ({!Dlearn_logic.Clause.equal}).
    Only a miss normalizes, inside the [learn.normalize] span. Every call
    on clauses equal to [c] returns one physical normal form, also when
    domains miss at once (the first insert wins). The memo grows by one
    entry per distinct clause, like the cover cache; {!apply_delta}
    leaves it alone, since normalization reads no data. Safe from any
    domain. *)
val normalize : t -> Dlearn_logic.Clause.t -> Dlearn_logic.Clause.t

(** [cover_entry t clause] is the cover-cache entry of [clause], created
    empty on first use. [clause] {b must} be normalized ({!normalize},
    as [Coverage.prepare] does) — the cache identifies clauses up to
    alpha-renaming, body order and duplicates. *)
val cover_entry : t -> Dlearn_logic.Clause.t -> Cover_set.entry

(** [armg_cached t e' c compute] memoizes one ARMG generalization of
    parent clause [c] against positive example [e']: [compute] is the
    generalization itself. The key is [c] as given
    ({!Dlearn_logic.Clause.equal}, body order included), because ARMG
    walks the body in order. ARMG is deterministic in the parent clause
    and [e']'s ground bottom clause, so a hit returns byte-identical
    output to recomputing; {!apply_delta} drops an affected example's
    entries together with its ground entry. Safe from any domain
    (concurrent misses may duplicate [compute]; the deterministic result
    makes the race benign). Counters: [armg.cache_hits],
    [armg.computed]. *)
val armg_cached :
  t ->
  Dlearn_relation.Tuple.t ->
  Dlearn_logic.Clause.t ->
  (unit -> Dlearn_logic.Clause.t option) ->
  Dlearn_logic.Clause.t option

(** [is_constant_attr t rel pos] holds when clauses represent that
    attribute's values as constants. *)
val is_constant_attr : t -> string -> int -> bool

(** [is_searchable_attr t rel pos] holds when the exact relevant-tuple
    search may look values up in that attribute (always true when no
    searchable attributes are declared). *)
val is_searchable_attr : t -> string -> int -> bool
