(** Learner configuration.

    The names follow the paper's parameters: [depth] is the number of
    bottom-clause construction iterations [d] (§4.1, Table 7), [km] the
    number of top similarity matches considered per value (§6.2.1),
    [sample_size] the cap on literals added per relation (§5, Figure 1). *)

type t = {
  target : Dlearn_relation.Schema.t;
      (** schema of the target relation (name and attributes); training
          examples are tuples of this schema *)
  depth : int;  (** d: iterations of relevant-tuple collection *)
  km : int;  (** top similar matches per similarity search *)
  sample_size : int;  (** literals added per relation per bottom clause *)
  sim : Dlearn_constraints.Md.sim_spec;  (** the ≈ operator *)
  exact_matching : bool;
      (** Castor-Exact mode: MD attributes join through exact equality and
          no repair literals are produced *)
  constant_attrs : (string * string) list;
      (** (relation, attribute) pairs whose values appear as constants in
          clauses — the attributes over which definitions may learn
          constant tests, e.g. [("amazon_category", "category")] *)
  searchable_attrs : (string * string) list;
      (** the attributes the exact relevant-tuple search may look up —
          the inclusion-dependency / mode bias Castor requires: joins
          follow declared key columns, not accidental value collisions
          (an empty list means every attribute is searchable) *)
  sample_positives : int;  (** |E+_s|: candidates per generalisation step *)
  min_pos : int;  (** clause acceptance: minimum positives covered *)
  min_precision : float;  (** clause acceptance: pos / (pos + neg) *)
  max_clauses : int;  (** cap on clauses per definition *)
  armg_beam : int;  (** candidate-substitution cap during generalisation *)
  climb_neg_cap : int;
      (** negatives sampled when scoring candidates during hill-climbing;
          the acceptance test always uses the full negative set *)
  subsumption_budget : int;
  repair_state_cap : int;
  repair_result_cap : int;
  cfd_rounds : int;
      (** violation-detection rounds in bottom clauses: round 1 finds the
          violations present in the clause, later rounds the ones induced
          by hypothetical right-hand-side unifications *)
  allow_dirty_constraints : bool;
      (** skip the static constraint preflight the learner runs before
          bottom-clause construction; with malformed constraints the
          paper's guarantees no longer hold and runs may fail mid-epoch *)
  num_domains : int;
      (** domains used by the coverage engine's pool ([1] = the exact
          sequential path, no domains spawned); parallel and sequential
          runs return bitwise-identical results — see docs/PARALLELISM.md *)
  trace : string option;
      (** when set, [Experiment.evaluate] records the run and writes a
          Chrome trace-event JSON (Perfetto-loadable) to this path;
          tracing never changes results — see docs/OBSERVABILITY.md *)
  seed : int;  (** RNG seed: sampling is deterministic given the seed *)
}

(** [default ~target] — the paper's operating point: d = 3, km = 5,
    sample_size = 10, paper similarity at 0.6. [num_domains] defaults to
    [Domain.recommended_domain_count ()], overridable through the
    [DLEARN_NUM_DOMAINS] environment variable (a value outside
    [1..max_domains] keeps the default); [trace] defaults to the
    [DLEARN_TRACE] path when that variable is set and non-empty, [None]
    otherwise. Both variables are read at each call. Whether a parallel
    batch actually fans out is no config knob: the pool's adaptive cost
    model decides per batch (see docs/PARALLELISM.md). Coverage always
    runs the one path docs/COVERAGE.md describes: normalized candidates,
    the incremental cover cache, and the CSP subsumption kernel. *)
val default : target:Dlearn_relation.Schema.t -> t

(** The most domains a run may use, [128]: OCaml 5's default
    [Max_domains] on 64-bit, past which [Domain.spawn] fails. *)
val max_domains : int

val pp : Format.formatter -> t -> unit
