(** Applying repair literals: from a clause with repair literals to its set
    of repaired clauses (§3.2).

    A repair literal [V_c(x, v_x)] is applied by evaluating [c] against the
    clause's restriction literals; if [c] holds, [x] is replaced by [v_x]
    in every literal (conditions of other repair literals included) and the
    literal's recorded induced/similarity literals are deleted; otherwise
    the literal is simply removed. Different application orders produce
    different repaired clauses (Example 3.3).

    Repair literals are organised in {e groups} — one group per similarity
    match (MD) or per constraint violation (CFD):
    - an MD group's literals fire {e simultaneously} (enforcing the MD
      makes both sides of the match identical in one step, Def. 2.2), and
      firing consumes the similarity literals that triggered it, which is
      what makes overlapping matches mutually exclusive;
    - a CFD group's literals are {e alternatives}: applying one falsifies
      the conditions of the others via the group's restriction literals.

    Enumeration is a depth-first search that branches over the order of
    groups whose term sets overlap and over the alternative within each
    CFD group. Each enumeration interns the clause's terms and literals to
    dense ids once; a state is the head id and the body's literal ids, and
    visited states and results are memoised on the head id plus the
    sorted, deduplicated body ids: the identity [Clause.canonical] gives a
    clause, including its merging of repair literals that differ only in
    their condition. Firing a group rewrites only the literals that
    mention a substituted term.

    Caps: a search stops exploring once [state_cap] distinct states have
    been reached and returns once it holds [result_cap] repaired clauses,
    so a capped result lists some repaired clauses, not all. Each
    enumeration bumps the counters [repair.enumerations], [repair.states]
    (distinct states reached) and, when a cap cut it short,
    [repair.truncated]. *)

(** [repaired_clauses ?state_cap ?result_cap c] enumerates the repaired
    clauses of [c] (all repair literals applied or removed), deduplicated
    modulo body order. A clause without repair literals yields just its
    cleaned-up self. The clauses come in the order the depth-first search
    first reaches them, so a cap keeps a deterministic prefix; that order
    decides which products {!Definition.repaired_definitions} keeps and
    how [Explain] numbers repairs. *)
val repaired_clauses :
  ?state_cap:int -> ?result_cap:int -> Clause.t -> Clause.t list

(** [cfd_applications ?state_cap ?result_cap c] applies only the groups
    originating from CFDs, leaving MD repair literals in place (they are
    handled by θ-subsumption directly, Theorem 4.9). Used by the coverage
    test of §4.3. Same search, order and caps as {!repaired_clauses}. *)
val cfd_applications :
  ?state_cap:int -> ?result_cap:int -> Clause.t -> Clause.t list

(** [is_repaired c] holds when [c] has no repair literal. *)
val is_repaired : Clause.t -> bool
