(** θ-subsumption for clauses with repair literals (Definition 4.4).

    [C ⊆θ D] iff some substitution θ (over C's variables, into D's terms)
    maps every literal of C onto a literal of D — repair literals treated
    as ordinary atoms matched by constraint origin — and, additionally,
    every repair literal of D connected to a mapped literal of D is itself
    in the image of θ (soundness condition of Theorem 4.6).

    Equality, inequality and similarity literals of C are checked against
    D's restriction-literal closure rather than matched syntactically:
    [Eq (u, v)] holds when θu and θv are connected by D's equality
    literals, [Sim] when some similarity literal of D links their classes,
    [Neq] when their classes differ. This mirrors the "additional testings"
    for clauses with equality and similarity the paper references (§4.2).

    One search decides the relation (see [docs/SUBSUMPTION.md]): a
    CSP-style matching kernel. Setup compiles C against D once: it
    interns C's variables to dense ints, seeds them by head unification,
    precomputes per generative literal its candidate table and decides
    the checks that are ground already. The search runs over a mutable
    binding array with an undo trail, forward-checks the candidate
    domains of connected literals on each assignment, and selects
    literals by minimum remaining domain within dynamically recomputed
    connected components. When the first witness fails the
    repair-connectivity condition, the kernel hands the compiled problem
    to the SAT rescue, which encodes it into a fresh CDCL solver
    ({!Sat_core}) per call and whose search backtracks through that
    condition.

    The search is bounded by a step budget for pathological inputs and
    is property-tested against the SAT rescue alone and against
    {!subsumes_naive}. *)

type outcome =
  | Subsumed of Substitution.t
  | Not_subsumed
  | Budget_exhausted

(** A target clause D preprocessed for matching: literal indexes by
    predicate and origin, the restriction-literal closure, and the repair
    connectivity sets of Definition 4.4. Preparing once and matching many
    clauses against it is the dominant cost saving of coverage testing. *)
type target

val prepare : Clause.t -> target

(** [subsumes_target ?budget ?repair_connectivity c t] decides
    [c ⊆θ D] against a prepared target. *)
val subsumes_target :
  ?budget:int ->
  ?repair_connectivity:bool ->
  Clause.t ->
  target ->
  outcome

(** [subsumes_target_bool c t] is [subsumes_target c t = Subsumed _];
    like {!subsumes_bool}, it counts budget exhaustion as failure. *)
val subsumes_target_bool :
  ?budget:int ->
  ?repair_connectivity:bool ->
  Clause.t ->
  target ->
  bool

(** [subsumes ?budget ?repair_connectivity c d] decides [c ⊆θ d].
    [budget] (default 200_000) bounds unification attempts.
    [repair_connectivity] (default [true]) enables Definition 4.4's second
    condition; the repair-application machinery disables it when comparing
    fully repaired (repair-free) clauses, where it is vacuous anyway. *)
val subsumes :
  ?budget:int ->
  ?repair_connectivity:bool ->
  Clause.t ->
  Clause.t ->
  outcome

(** [subsumes_bool c d] is [subsumes c d = Subsumed _]; budget exhaustion
    counts as failure, is logged at warning level and bumps the
    [subsumption.exhausted] counter. *)
val subsumes_bool :
  ?budget:int ->
  ?repair_connectivity:bool ->
  Clause.t ->
  Clause.t ->
  bool

(** [equivalent c d] holds when each clause θ-subsumes the other —
    the equivalence used by Proposition 4.8. *)
val equivalent : ?budget:int -> Clause.t -> Clause.t -> bool

(** [subsumes_naive c d] is a reference implementation: plain chronological
    backtracking over the body literals in order, no component
    decomposition, no dynamic literal selection. It decides the same
    relation as {!subsumes} (property-tested) but degrades badly on large
    clauses — kept as the tests' correctness oracle. *)
val subsumes_naive :
  ?budget:int -> ?repair_connectivity:bool -> Clause.t -> Clause.t -> outcome

(** [subsumes_target_sat ?budget ?repair_connectivity c t] decides
    [c ⊆θ D] with the SAT rescue alone: it compiles C against [t] as the
    kernel does (unmetered), then encodes the compiled problem into a
    fresh solver. {!subsumes_target} calls the rescue only when its
    first witness fails the repair-connectivity condition; this entry
    point is exported so the differential tests can run it on every
    instance. *)
val subsumes_target_sat :
  ?budget:int -> ?repair_connectivity:bool -> Clause.t -> target -> outcome

(** Incremental matching primitives for the generalisation step (§4.2):
    ProGolem-style ARMG walks a clause literal by literal, maintaining a
    set of candidate substitutions into the ground bottom clause; a literal
    with no extension is blocking. *)
module Armg : sig
  (** [head_unify t head] unifies a clause head with the target's head. *)
  val head_unify : target -> Literal.t -> Substitution.t option

  (** [extend t theta l] enumerates the extensions of [theta] mapping the
      generative literal [l] (schema, repair or similarity atom) into the
      target.
      @raise Invalid_argument on equality/inequality literals. *)
  val extend : target -> Substitution.t -> Literal.t -> Substitution.t list

  (** [check t theta l] evaluates a restriction literal under [theta]:
      [`Unknown] when a side is still unbound. *)
  val check :
    target -> Substitution.t -> Literal.t -> [ `Sat | `Unsat | `Unknown ]
end
