(** Clause lints (analyzer pass 1).

    Structural checks on one clause, independent of the database catalog:

    - [DL101] (error): unsafe head variable — a head variable that occurs
      in no body schema atom. θ-subsumption and coverage are only
      meaningful for range-restricted clauses (§3.2).
    - [DL102] (warning): body literal not head-connected — the literal
      {!Dlearn_logic.Clause.head_connected} would silently drop; reported
      with the dropped literal as witness.
    - [DL103] (warning): singleton variable — a variable with exactly one
      occurrence in the clause; it constrains nothing and usually spells a
      typo.
    - [DL104] (warning): duplicate body literal.
    - [DL105] (warning): tautological restriction literal ([t = t],
      [t ~ t]) — always satisfied, adds no information.
    - [DL106] (error): contradictory restriction literal ([t != t], or an
      equality of two distinct constants) — the clause can cover nothing.

    Repair literals are ignored by these lints (they are machine-built and
    validated by construction).

    The DL4xx group reports what the clause-normalization pipeline would
    rewrite; the diagnostics are produced from
    {!Dlearn_logic.Clause_norm.plan} — the pipeline's own pass
    implementations — so lint and rewrite cannot disagree:

    - [DL401] (warning): trivially-satisfied literal or repair-condition
      atom the pipeline would drop. Narrower than DL105, which flags every
      syntactic tautology: DL401 only fires where the subsumption search
      make the verdict static (e.g. [x ~ x] over a variable no schema atom
      binds is DL105 but not DL401).
    - [DL402] (error): unsatisfiable literal — normalization rewrites the
      clause to its shared trivially-false form.
    - [DL403] (warning): alpha-redundant (self-subsumed) body literal —
      condensation would drop it; the witness names both literals. *)

val check : Dlearn_logic.Clause.t -> Diagnostic.t list
