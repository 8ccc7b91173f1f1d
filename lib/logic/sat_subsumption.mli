(** The SAT rescue of θ-subsumption: ground instantiation into a CDCL
    solver ({!Sat_core}). The CSP kernel of
    {!Subsumption} hands it the instances whose first witness fails the
    repair-connectivity condition.

    A candidate clause C is flattened against a prepared bottom clause D
    as a boolean matching problem: one {e selector} variable per
    (C-literal, D-literal candidate) pairing, at-least-one /
    at-most-one selection per literal, {e binding} variables
    [b(v,t)] ("θ maps variable v to D term t") kept consistent by
    selector→binding implications and at-most-one-term-per-variable
    clauses, and similarity / Eq / Neq semantics enforced by conditional
    clauses plus a model-checking (CEGAR) loop that re-runs the exact
    reference finish logic — [resolve_checks], deferred environment
    similarity branches, repair connectivity — and blocks or lemmatizes
    refuted models.

    Each call encodes its candidate into a fresh solver and drops it on
    return, so a rescue leaves the target unchanged and calls against
    one target need no lock. Every clause is added unconditionally;
    clauses learned in one CEGAR round keep pruning the later rounds of
    the same call. See [docs/SUBSUMPTION.md]. *)

(** A target clause D as the encoder needs it — the fields of
    [Subsumption]'s prepared target plus closures over its private
    finish logic, so this module stays independent of that type. *)
type view = {
  d_literals : Literal.t array;
  rel_ids : string -> int list;  (** D literal ids by predicate *)
  repair_ids : string -> int list;  (** D repair ids by origin *)
  sim_ids : int list;
  env : Clause_env.t;
  term_tab : Term.t array;
  key_tids : int array array;
  connectivity_ok : int list -> bool;
      (** Definition 4.4's condition on the mapped D-literal ids *)
  attached_repairs : int -> int list;
      (** the repair ids Definition 4.4 requires mapped whenever the
          given non-repair D literal is in the image (empty for repair
          literals); id 0 gives the head's obligations *)
  resolve_residue : Substitution.t -> Literal.t list -> bool;
      (** the shared union-find / fresh-constant Eq-Neq residue check *)
}

val subsumes :
  ?budget:int ->
  ?repair_connectivity:bool ->
  view ->
  Clause.t ->
  [ `Subsumed of Substitution.t | `Not_subsumed | `Budget_exhausted ]

(** Process-wide counters, aggregated on the [sat.*] Obs registry names
    (see docs/OBSERVABILITY.md). [solves] counts solver invocations
    (CEGAR iterations included). *)
type stats = {
  solves : int;
  propagations : int;
  conflicts : int;
  learned : int;
  restarts : int;
  encode_seconds : float;
  solve_seconds : float;
}

val stats : unit -> stats
