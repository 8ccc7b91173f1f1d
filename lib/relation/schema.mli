(** Relation schemas.

    A schema names a relation and its attributes, mirroring the paper's
    [R(A1, ..., Am)]. Attribute positions are the canonical way other
    modules address columns; names are resolved once at construction. *)

type domain =
  | Dint
  | Dfloat
  | Dstring

(** ["int"], ["float"] or ["string"]: the one spelling of a domain, in
    storage manifests and in diagnostics alike. *)
val domain_to_string : domain -> string

(** Inverse of {!domain_to_string}.
    @raise Invalid_argument on any other string. *)
val domain_of_string : string -> domain

type attribute = {
  attr_name : string;
  domain : domain;
}

type t

(** [make name attributes] builds a schema. Raises [Invalid_argument] on an
    empty attribute list or duplicate attribute names. *)
val make : string -> attribute list -> t

(** [string_attrs name attrs] is [make name] with every attribute given the
    string domain — the common case in the paper's datasets. *)
val string_attrs : string -> string list -> t

val name : t -> string

val arity : t -> int

val attributes : t -> attribute array

val attr_name : t -> int -> string

val domain : t -> int -> domain

(** [position t name] is the index of attribute [name].
    @raise Not_found if no attribute has that name. *)
val position : t -> string -> int

(** [comparable t i u j] holds when attribute [i] of [t] and attribute [j]
    of [u] share a domain — the paper's precondition on MD attributes. *)
val comparable : t -> int -> t -> int -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
