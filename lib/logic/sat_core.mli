(** A small incremental CDCL SAT core (pure OCaml).

    The solver the SAT θ-subsumption rescue instantiates its ground
    encoding into: two-watched-literal unit propagation, first-UIP
    conflict analysis with backjumping and Luby restarts. It is
    incremental in one direction only: clauses may be added between
    [solve] calls, and clauses learned in one call stay in the database
    and keep propagating in every later call — the rescue's CEGAR loop
    adds blocking clauses and lemmas this way, one rescue call per
    solver (see [docs/SUBSUMPTION.md]).

    Variables are dense non-negative ints handed out by {!new_var}.
    Literals are ints too: [pos v] / [neg v]. There is no clause
    deletion and no activity heuristic: decision order is a caller-set
    static priority ({!set_priority}) with per-variable phase hints
    ({!set_phase}), so the first model found follows the caller's
    preferred enumeration order — the subsumption encoder uses this to
    pin witness determinism. *)

type t

val create : unit -> t

(** Allocate a fresh variable (initial phase hint [false]). *)
val new_var : t -> int

(** {1 Literals} *)

val pos : int -> int
val neg : int -> int

(** [negate l] flips a literal's sign. *)
val negate : int -> int

val var_of : int -> int

(** {1 Clauses} *)

(** [add_clause s lits] adds a clause, simplified against the root-level
    assignment (satisfied clauses dropped, false literals removed,
    tautologies dropped). An empty result marks the solver unsat; a unit
    result is asserted at the root level. Must be called between
    [solve]s (the solver is always at decision level 0 there). *)
val add_clause : t -> int list -> unit

(** {1 Solving} *)

(** [solve ?conflict_limit s] decides satisfiability of the clauses
    added so far. [`Limit] is returned when the solve exceeded
    [conflict_limit] conflicts (the solver stays usable). After [`Sat],
    {!value} reads the model. Learned clauses persist across calls. *)
val solve : ?conflict_limit:int -> t -> [ `Sat | `Unsat | `Limit ]

(** Model value of a variable after [`Sat]. *)
val value : t -> int -> bool

(** {1 Search order} *)

(** [set_priority s vars] sets the decision order: variables are decided
    in the order given, then any remaining variables in index order.
    Replaces the previous priority; persists across solves. *)
val set_priority : t -> int array -> unit

(** Preferred phase when [v] is picked as a decision. *)
val set_phase : t -> int -> bool -> unit

(** {1 Introspection} *)

(** Learned clauses currently in the database, as literal arrays
    (copies). Used by the property test that re-solves each learned
    clause's negation against the original formula. *)
val learned_clauses : t -> int array list

type stats = {
  solves : int;
  propagations : int;
  conflicts : int;
  learned : int;  (** learned clauses added over the solver's lifetime *)
  restarts : int;
}

val stats : t -> stats
