(** Clause normalization and simplification (ROADMAP item 3).

    A multi-pass static-analysis pipeline over hypothesis clauses, run to
    fixpoint (see docs/NORMALIZATION.md for the pass order and the
    fixpoint/idempotence argument):

    + {b canonical variable renumbering} by iterative refinement over the
      variable-occurrence structure — all alpha-variants of a clause map
      to one representative, with individualization-refinement branching
      and a lexicographic tie-break so the result is deterministic across
      runs and domains;
    + {b deterministic literal ordering} (and ordering of the
      set-semantic lists inside repair literals: condition atoms and
      recorded drops);
    + {b duplicate-literal and tautology elimination}, mirroring the
      DL105/DL106 lints as rewrites, restricted to verdicts the
      subsumption search makes static: [x = x] is dropped, [x ≈ x] is
      dropped when the variable is generatively bound, [x ≠ x] rewrites
      the clause to a shared trivially-false form, trivially-true repair
      condition atoms are deleted;
    + {b condensation-lite}: a body literal whose strictly-local
      variables map it onto another body literal is dropped, bounded so
      the scan never dominates solve time.

    Rewrites never touch literals recorded in a repair literal's [drops]
    list: repair application deletes by {!Literal.equal} against those
    records before substituting, so altering either copy would change
    repair semantics.

    {b Cache-key contract}: [normalize] is idempotent and invariant under
    alpha-renaming and body reordering (up to the individualization
    budget, see [normalize.rename_fallbacks]), and preserves coverage —
    [Coverage.prepare] normalizes every clause it scores (once per
    context, through [Context.normalize]) and uses the normalized clause
    directly as the cover-cache key in [Context].

    Counters: [normalize.clauses], [normalize.rounds],
    [normalize.duplicates], [normalize.tautologies],
    [normalize.cond_atoms], [normalize.contradictions],
    [normalize.condensed], [normalize.condense_capped],
    [normalize.rename_fallbacks]. Only {!normalize} bumps them; {!plan}
    is side-effect free. *)

(** One simplification step the pipeline applies (or, through {!plan},
    would apply). The analysis layer renders these as DL4xx diagnostics
    from the very same pass implementations, so lint and rewrite cannot
    disagree. *)
type rewrite =
  | Drop_duplicate of Literal.t  (** duplicate body literal *)
  | Drop_tautology of Literal.t  (** trivially-true literal ([x = x]...) *)
  | Drop_cond_atom of Literal.t * Cond.atom
      (** trivially-true atom inside a repair condition *)
  | Contradiction of Literal.t
      (** unsatisfiable literal ([x ≠ x]) — the clause covers nothing *)
  | Condense of {
      dropped : Literal.t;
      witness : Literal.t;
    }
      (** [dropped] maps onto [witness] under a substitution of its
          strictly-local variables *)

val rewrite_to_string : rewrite -> string

(** [normalize c] is the canonical representative of [c]: simplification
    passes to fixpoint, then canonical renaming and ordering. Idempotent;
    preserves the clause's coverage (checked against a from-scratch
    reference on the raw clause by the normalization tests). *)
val normalize : Clause.t -> Clause.t

(** The rewrites {!normalize}'s simplification passes would apply to [c],
    without applying them and without touching the [normalize.*]
    counters. Renaming/reordering are not reported — they rewrite nothing
    a diagnostic could point at. *)
val plan : Clause.t -> rewrite list

(** [is_trivially_false c] holds when the body contains an unprotected
    [x ≠ x] literal — [normalize] maps such clauses to a shared
    falsum form (head over a single unsatisfiable restriction). *)
val is_trivially_false : Clause.t -> bool

(** Target-side preparation: remove exact duplicate literals from a
    ground (bottom) clause, preserving order. Restriction literals of a
    target are closure data, not checks, so this is the only rewrite that
    is sound on that side; it shrinks the candidate tables
    {!Subsumption.prepare} builds. *)
val dedup_target : Clause.t -> Clause.t
