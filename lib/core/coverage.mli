(** Coverage testing over heterogeneous data (§3.3, §4.3).

    Positive coverage follows Definition 3.4 through the efficient
    procedure of §4.3: first try θ-subsumption of the clause against the
    example's ground bottom clause directly (repair literals treated as
    atoms — sound by Theorem 4.6 and complete for MD-only clauses by
    Theorem 4.9); when CFD repair literals are present, apply the CFD
    groups on both sides and require every application of the clause to
    subsume some application of the ground clause.

    Negative coverage follows Definition 3.6: the clause covers the
    negative example when {e some} fully repaired clause of it subsumes
    {e some} fully repaired clause of the example's ground bottom clause
    (both sides repair-free, so Definition 4.4's connectivity condition is
    vacuous). Enumerations are capped by the configuration; the caps only
    ever under-approximate negative coverage.

    Per-example coverage is embarrassingly parallel: {!coverage} and the
    batch predicates fan out over the context's domain pool
    ([Config.num_domains]); every shared per-clause and per-example cache
    is a {!Dlearn_parallel.Memo} cell or table, so each object is built
    once and the parallel results are bitwise identical to the
    sequential path (see docs/PARALLELISM.md). *)

module Bitset = Cover_set.Bitset

type prepared = {
  clause : Dlearn_logic.Clause.t;
      (** the normalized clause, also the key of the cross-seed cover
          cache: normalization is idempotent, so the normalized clause is
          its own canonical form and all alpha-variants share one entry *)
  cfd_apps : Dlearn_logic.Clause.t list Dlearn_parallel.Memo.t;
  repairs : Dlearn_logic.Clause.t list Dlearn_parallel.Memo.t;
  skeleton : Dlearn_logic.Clause.t Dlearn_parallel.Memo.t;
      (** the clause's relational skeleton with repairable term occurrences
          wildcarded — matched against the example's relational part modulo
          its potential merges as a necessary condition before any repair
          enumeration runs *)
}

(** [prepare ctx c] rewrites [c] to its normal form through the
    context's memo ({!Context.normalize}: only the first prepare of a
    clause normalizes, under the [learn.normalize] span) and wraps the
    result with memoized repair enumerations so that scoring over many
    examples shares them; the memos are domain-safe. Normalization
    preserves coverage, so every verdict computed from the record is a
    verdict about [c]. *)
val prepare : Context.t -> Dlearn_logic.Clause.t -> prepared

val covers_positive : Context.t -> prepared -> Dlearn_relation.Tuple.t -> bool

(** [ground ctx e] is [e]'s ground entry in [ctx]: the ground bottom
    clause ({!Bottom_clause.build} in [Ground] mode), built on first use,
    with memo cells for what coverage and ARMG derive from it. [target],
    [repair_targets] and [prefilter_target] are stripped of exact
    duplicates ({!Dlearn_logic.Clause_norm.dedup_target}) and prepared
    for subsumption; [repairs] and [cfd_apps] are enumerated under the
    configured caps, inside the [coverage.repair_enum] span. *)
val ground : Context.t -> Dlearn_relation.Tuple.t -> Context.ground_entry

val covers_negative : Context.t -> prepared -> Dlearn_relation.Tuple.t -> bool

(** [covers_positive_cfd_split ctx p e] is the paper's §4.3 intermediate
    procedure: apply only the CFD repair groups on both sides, keep the MD
    repair literals as atoms (Theorem 4.9), and require every application
    of the clause to subsume some application of the ground clause. Kept
    for the ablation benchmark; [covers_positive] decides Definition 3.4
    over full repairs when the fast path fails. [prefilter] (default
    [true]) gates the enumeration behind the skeleton prefilter exactly
    like [covers_positive]; it never changes the verdict. *)
val covers_positive_cfd_split :
  ?prefilter:bool -> Context.t -> prepared -> Dlearn_relation.Tuple.t -> bool

(** [covers_positive_batch ctx p es] is
    [List.map (covers_positive ctx p) es] computed over the domain pool,
    in input order. *)
val covers_positive_batch :
  Context.t -> prepared -> Dlearn_relation.Tuple.t list -> bool list

val covers_negative_batch :
  Context.t -> prepared -> Dlearn_relation.Tuple.t list -> bool list

(** [coverage ctx p ~pos ~neg] counts covered positives and negatives
    (each occurrence of a duplicate tuple counted), fanning out over the
    context's domain pool. Verdicts route through the context's cross-seed
    cover cache: known verdicts are reused, the residue is computed with
    {!Dlearn_parallel.Pool.map} and merged back. The counts equal
    those of running {!covers_positive} and {!covers_negative} on every
    tuple. *)
val coverage :
  Context.t ->
  prepared ->
  pos:Dlearn_relation.Tuple.t list ->
  neg:Dlearn_relation.Tuple.t list ->
  int * int

(** [coverage_sets ctx p ~pos ~neg] is the batch verdict API of the
    incremental engine: the covered subsets of the two universes as
    bitsets over the context's dense example ids ({!Context.example_id}).
    Verdicts resolve through the cross-seed cache; the residue fans out
    over the domain pool chunk-wise. An example absent from a universe is
    absent from the corresponding set; degenerate inputs (empty universes,
    duplicate tuples, a clause whose skeleton prefilter rejects
    everything) yield all-zero bitsets, never an error. *)
val coverage_sets :
  Context.t ->
  prepared ->
  pos:Dlearn_relation.Tuple.t list ->
  neg:Dlearn_relation.Tuple.t list ->
  Bitset.t * Bitset.t

(** [count_covered ctx covered tuples] counts the tuples whose dense id is
    in [covered], each occurrence of a duplicate tuple counted. *)
val count_covered :
  Context.t -> Bitset.t -> Dlearn_relation.Tuple.t list -> int

(** [score_candidate ctx p ~assume ~pos ~neg ~bound] scores one
    hill-climb candidate incrementally and returns
    [(p, n, pos_covered, complete)]:

    - positives resolve through the cover cache with [assume] — the ARMG
      parent's covered set — inherited without testing (generalization
      monotonicity, docs/COVERAGE.md);
    - the negative sweep runs sequentially and stops as soon as
      [p - n_so_far < Atomic.get bound] (Aleph-style pruning); on a
      complete sweep the candidate's score is CAS-maxed into [bound].

    When [complete] is false, [n] is a lower bound on the true negative
    count and [p - n] is strictly below every fully-evaluated score in
    the batch, so pruned candidates can never displace the batch winner.
    [pos_covered] is exact either way. *)
val score_candidate :
  Context.t ->
  prepared ->
  assume:Bitset.t ->
  pos:Dlearn_relation.Tuple.t list ->
  neg:Dlearn_relation.Tuple.t list ->
  bound:int Atomic.t ->
  int * int * Bitset.t * bool
