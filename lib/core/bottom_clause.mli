(** Bottom-clause construction over dirty data (Algorithm 2, §4.1).

    Starting from a training example, the relevant tuples [I_e] are
    gathered over [depth] iterations: exact index lookups on every seen
    constant, plus MD-driven similarity searches returning the top-[km]
    matches above the similarity threshold. The number of literals per
    relation is capped by [sample_size] (random sampling, deterministic in
    the seed and the example).

    The clause is then assembled:
    - one schema atom per gathered tuple, constants mapped to variables
      (or kept as constants for the configured constant attributes; in
      ground mode every constant stays);
    - per similarity match: similarity literals, one repair-literal group
      replacing both unified values (fresh replacement variables in
      variable mode, the canonical merged value in ground mode), and the
      restriction equality between the replacements (§3.2);
    - per CFD violation among the clause's literals: one repair group
      whose alternatives repair the right-hand side in either direction or
      split the shared left-hand-side occurrences apart (Example 3.1, with
      the paper's minimal-repair reduction); violations induced by
      hypothetical repairs are found in later rounds and their conditions
      reference the inducing repair's terms, so they stay inert until it
      fires.

    Ground mode ([Ground]) produces the ground bottom clause used by
    coverage testing (§4.3): the same construction with constants kept,
    merged values for MD replacements, and tagged constants for split
    occurrences (related by explicit equality literals).
    {!Coverage.ground} builds it once per example and context. *)

type mode =
  | Variable
  | Ground

(** [build ctx mode e] constructs the bottom clause of example [e].
    @raise Invalid_argument if [e]'s arity differs from the target
    schema. *)
val build : Context.t -> mode -> Dlearn_relation.Tuple.t -> Dlearn_logic.Clause.t
