(** Horn clauses of the extended language: one positive (head) literal and
    a body that may contain schema, similarity, restriction and repair
    literals (§3.2).

    The body keeps its construction order; bottom-clause construction is
    deterministic, which gives the total order on literals that the
    generalisation step (§4.2) relies on. *)

type t = {
  head : Literal.t;
  body : Literal.t list;
}

(** [make ~head body] builds a clause.
    @raise Invalid_argument if [head] is not a schema atom. *)
val make : head:Literal.t -> Literal.t list -> t

val head_pred : t -> string

val body_size : t -> int

(** [vars t] lists the variables of head and body, sorted. *)
val vars : t -> string list

(** [rel_body t] is the body restricted to schema atoms. *)
val rel_body : t -> Literal.t list

val repair_body : t -> Literal.t list

val equal : t -> t -> bool

(** [hash t] folds [Hashtbl.hash] over the head and every body literal, so
    clauses that differ in any literal, the last included, hash apart
    (the polymorphic hash of the whole clause stops after ten words).
    Consistent with {!equal}; order-sensitive, like it. *)
val hash : t -> int

(** [map_terms f t] rewrites every term of head and body. *)
val map_terms : (Term.t -> Term.t) -> t -> t

(** [head_connected t] keeps only the body literals reachable from the head
    through shared variables (closure over kept literals). Literals without
    variables are kept. This implements the paper's rule that dropping a
    schema literal also drops the repair and restriction literals whose
    only connection to the head ran through it. *)
val head_connected : t -> t

(** [remove_dangling_restrictions t] removes [Sim]/[Eq]/[Neq] literals that
    mention a variable not occurring in any schema atom (head included) nor
    in any repair literal — the paper's cleanup after applying repair
    literals (§3.2, end). *)
val remove_dangling_restrictions : t -> t

(** [canonical t] returns [t] with body literals sorted and deduplicated —
    used to compare clauses modulo body order (not modulo renaming). *)
val canonical : t -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string
