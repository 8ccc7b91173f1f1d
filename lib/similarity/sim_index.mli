(** Similarity index with n-gram blocking.

    DLearn precomputes pairs of similar values (§5). The index stores the
    distinct values of one attribute; a query finds the top-[km] stored
    values whose similarity to the query string reaches a threshold. To
    avoid the quadratic scan, candidates are restricted to values sharing
    at least one character n-gram with the query (blocking) — exactness is
    checked in tests against the brute-force scan for the paper's
    operator.

    The index is built for the 10⁵+-value regime (docs/SCALE.md):

    - grams are packed into [int] keys (no per-window string allocation
      for [n ≤ 7], structural hash beyond — hash collisions only widen
      the candidate set, never narrow it);
    - all postings live in one open-addressing table keyed by the packed
      gram. Gram extraction fans out over the domain {!Pool}, and one
      sequential pass in value order fills the table, so the result is
      bit-identical whatever [jobs] is, pinned by {!postings_digest};
    - candidates are deduplicated before scoring (a value sharing k
      grams with the query is measured once, counted by the
      [sim_index.measured] counter) and a length-band prefilter skips
      candidates whose score ceiling from lengths alone
      ([Paper], [Levenshtein]) already misses the threshold
      ([sim_index.length_pruned]). *)

type t

(** [create ?n ?measure ?jobs values] indexes the distinct strings of
    [values]. [n] (default 3) is the blocking gram size. [jobs] (default
    1 — sequential, bit-identical either way) sizes the domain pool that
    gram extraction and {!match_pairs} fan out over. *)
val create :
  ?n:int -> ?measure:Combined.measure -> ?jobs:int -> string list -> t

(** [of_values ?n ?measure ?jobs vs] indexes the string renderings of
    [vs], skipping nulls. *)
val of_values :
  ?n:int ->
  ?measure:Combined.measure ->
  ?jobs:int ->
  Dlearn_relation.Value.t list ->
  t

val size : t -> int

(** [query t ~km ~threshold s] returns up to [km] stored values with
    similarity ≥ [threshold], best first, ties broken by string order.
    The query string itself is excluded only by similarity, not identity —
    an exact duplicate scores 1.0 and is returned. *)
val query : t -> km:int -> threshold:float -> string -> (string * float) list

(** [query_brute t ~km ~threshold s] is [query] without blocking and
    without the length prefilter — the reference implementation used for
    the ablation bench and the equivalence tests (so those tests validate
    blocking and prefilter soundness at once). *)
val query_brute :
  t -> km:int -> threshold:float -> string -> (string * float) list

(** [match_pairs ?n ?measure ?jobs ~km ~threshold left right] returns,
    for each string of [left] (deduplicated), its top-[km] matches
    within [right], as [(left_value, right_value, score)] triples. With
    [jobs > 1] the per-left-value queries fan out over the pool; the
    result is identical to the sequential run. *)
val match_pairs :
  ?n:int ->
  ?measure:Combined.measure ->
  ?jobs:int ->
  km:int ->
  threshold:float ->
  string list ->
  string list ->
  (string * string * float) list

(** Hex digest of the full index content (parameters, values, and every
    posting list in ascending key order). Builds of the same inputs
    digest identically regardless of [jobs] — the determinism pin. *)
val postings_digest : t -> string
