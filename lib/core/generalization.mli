(** Generalisation by blocking-literal removal (§4.2).

    The asymmetric relative minimal generalisation of ProGolem, extended
    to repair literals: walk the clause's body in its construction order,
    maintaining a beam of candidate substitutions into the ground bottom
    clause of another positive example; a literal none of the candidates
    can extend through is {e blocking} and is removed. Restriction
    literals filter the beam instead (and are removed when every candidate
    refutes them). Afterwards, repair literals whose subject no longer
    occurs in any schema atom are pruned, head-connectedness is restored,
    and dangling restriction literals are dropped — so dropping a schema
    literal takes its repairs along, as the paper requires. *)

(** [armg ctx c e'] generalises [c] to cover [e'], or [None] when even the
    head cannot be mapped onto [e']'s ground bottom clause. The result
    θ-subsumes [c] (it is [c] minus literals). It is memoized in [e']'s
    ground entry ({!Context.ground_entry}[.armg]) on [c] as given
    ({!Dlearn_logic.Clause.equal}, body order included): each (parent,
    example) pair computes once, also when domains ask at once, and
    {!Context.apply_delta} drops the memo with the entry. Counters:
    [armg.computed] per computation, [armg.cache_hits] per other call. *)
val armg :
  Context.t ->
  Dlearn_logic.Clause.t ->
  Dlearn_relation.Tuple.t ->
  Dlearn_logic.Clause.t option
