(** Database instances: a catalog of named relations.

    This is the paper's database instance [I] of schema [S] — the
    background knowledge over which definitions are learned. *)

type t

val create : unit -> t

(** [add_relation t r] registers [r] under its schema name.
    @raise Invalid_argument if a relation with that name exists. *)
val add_relation : t -> Relation.t -> unit

(** [create_relation t schema] creates, registers and returns an empty
    relation. *)
val create_relation : t -> Schema.t -> Relation.t

(** [find t name] returns the relation named [name].
    @raise Not_found when absent. *)
val find : t -> string -> Relation.t

val find_opt : t -> string -> Relation.t option

val mem : t -> string -> bool

(** [relations t] lists relations in registration order. *)
val relations : t -> Relation.t list

val relation_names : t -> string list

(** Total tuples across all relations. *)
val total_tuples : t -> int

(** [copy t] deep-copies every relation — used when producing
    repairs. *)
val copy : t -> t

val pp_summary : Format.formatter -> t -> unit

(** [replace_relation t r] rebinds the relation named like [r] to [r] —
    how the serve loop's [update] installs a {!Relation.with_tuple}
    copy.
    @raise Invalid_argument when no relation has that name. *)
val replace_relation : t -> Relation.t -> unit
