(** Shared learning context: the database, its constraints, and the memo
    tables of the objects a learning run builds once and reuses across
    seeds: the per-attribute similarity indexes (§5 precomputes similar
    value pairs), the dense example ids, the ground bottom clauses with
    everything derived from them, the cross-seed cover cache and the
    normal forms. Every table is a {!Dlearn_parallel.Memo.TABLE}: each
    key computes once, and every domain asking for it shares one physical
    value. *)

type ground_entry = {
  ground : Dlearn_logic.Clause.t;  (** the example's ground bottom clause *)
  target : Dlearn_logic.Subsumption.target Dlearn_parallel.Memo.t;
      (** [ground] prepared for matching *)
  repairs : Dlearn_logic.Clause.t list Dlearn_parallel.Memo.t;
      (** the capped enumeration of [ground]'s repaired clauses *)
  repair_targets :
    Dlearn_logic.Subsumption.target list Dlearn_parallel.Memo.t;
      (** [repairs] prepared for matching *)
  prefilter_target : Dlearn_logic.Subsumption.target Dlearn_parallel.Memo.t;
      (** the ground clause's relational part with equality literals
          linking every potentially-merged term pair — the target of the
          necessary-condition check that gates repair enumeration *)
  cfd_apps : Dlearn_logic.Clause.t list Dlearn_parallel.Memo.t;
      (** the CFD applications of [ground] (§4.3's intermediate
          procedure) *)
  armg : Dlearn_logic.Clause.t option Cover_set.Clause_memo.t;
      (** parent clause → ARMG generalization of it against this example
          ({!Generalization.armg}), keyed on the clause as given *)
}
(** Everything coverage and ARMG derive from one example's ground bottom
    clause, each built on first use. {!Coverage.ground} is its one
    constructor; callers force the fields directly. The entry lives until
    {!apply_delta} drops it, and its derived objects with it. *)

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

type tables
(** The context's memo tables, reached through the accessors below. *)

type t = {
  config : Config.t;
  db : Dlearn_relation.Database.t;
  mds : Dlearn_constraints.Md.t list;
  cfds : Dlearn_constraints.Cfd.t list;
  mutable rng : Random.State.t;
      (** the learner's sampling stream; {!reset_rng} rewinds it so a
          warm-context learn replays a cold run's draws exactly *)
  cover_stats : cover_stats;
  tables : tables;
}

(** [create config db mds cfds] prepares the context with empty tables:
    similarity indexes, bottom clauses and verdicts are built on first
    use. MDs mentioning the target relation or relations absent from
    [db] are rejected with [Invalid_argument] — the paper's workloads key
    every target on an identifier that appears exactly. *)
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
    clause could change" (docs/SERVE.md): its one ground entry is
    dropped, with the ARMG results memoized in it, and its bits leave
    every cover-cache entry. Similarity indexes over changed relations are dropped and
    rebuild lazily. Normal forms ({!normalize}) read no data and carry
    across. Span [delta.apply]; counters: [delta.commits],
    [delta.invalidated_examples], [delta.sim_indexes_dropped]. Callers
    must order this against concurrent coverage requests (the serve loop
    holds the writer lock). *)
val apply_delta :
  t -> (string * Dlearn_relation.Tuple.t list) list -> int

(** [sim_index t rel pos] is the index over the distinct values of the
    attribute, built on first use. Safe from any domain. *)
val sim_index : t -> string -> int -> Dlearn_similarity.Sim_index.t

(** [example_key e] is the cache key of a training example. *)
val example_key : Dlearn_relation.Tuple.t -> string

(** [example_id t e] interns [e] into the dense id space shared by all
    coverage bitsets, assigning ids in first-interned order. Duplicate
    tuples share one id. Safe from any domain. *)
val example_id : t -> Dlearn_relation.Tuple.t -> int

(** Number of distinct examples interned so far. *)
val example_count : t -> int

(** [ground t e build] is [e]'s memoized ground entry; [build] makes it
    on first use. {!Coverage.ground} is the one caller, so every entry
    has one builder. Safe from any domain. *)
val ground :
  t -> Dlearn_relation.Tuple.t -> (unit -> ground_entry) -> ground_entry

(** [normalize t c] is {!Dlearn_logic.Clause_norm.normalize}[ c],
    memoized per context on [c] as given ({!Dlearn_logic.Clause.equal}).
    Only the first call on a clause normalizes, inside the
    [learn.normalize] span, also when domains ask at once; every call on
    clauses equal to [c] returns one physical normal form. The memo grows
    by one entry per distinct clause, like the cover cache;
    {!apply_delta} leaves it alone, since normalization reads no data.
    Safe from any domain. *)
val normalize : t -> Dlearn_logic.Clause.t -> Dlearn_logic.Clause.t

(** [cover_entry t clause] is the cover-cache entry of [clause], created
    empty on first use. [clause] {b must} be normalized ({!normalize},
    as [Coverage.prepare] does) — the cache identifies clauses up to
    alpha-renaming, body order and duplicates. *)
val cover_entry : t -> Dlearn_logic.Clause.t -> Cover_set.entry

(** [is_constant_attr t rel pos] holds when clauses represent that
    attribute's values as constants. *)
val is_constant_attr : t -> string -> int -> bool

(** [is_searchable_attr t rel pos] holds when the exact relevant-tuple
    search may look values up in that attribute (always true when no
    searchable attributes are declared). *)
val is_searchable_attr : t -> string -> int -> bool
