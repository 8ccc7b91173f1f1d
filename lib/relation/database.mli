(** Database instances: a catalog of named relations.

    This is the paper's database instance [I] of schema [S] — the
    background knowledge over which definitions are learned.

    Relations may be registered {b lazily} ({!add_lazy}, used by
    [Storage.load ~lazy_load:true]): the loader thunk runs on first
    access and the result is cached, so a CLI run that touches two of
    ten relations never pays for the other eight. Lookups in a fully
    materialized database are a single atomic load plus the same hash
    probe as before; while any thunk is outstanding {b every} lookup is
    serialized under an internal lock, so concurrent finds can never
    observe the catalog mid-way through a force's [Hashtbl.replace].
    The summaries ({!total_tuples}, {!pp_summary}, {!copy}) never force:
    pending relations are reported (and copied) as pending. *)

type t

val create : unit -> t

(** [add_relation t r] registers [r] under its schema name.
    @raise Invalid_argument if a relation with that name exists. *)
val add_relation : t -> Relation.t -> unit

(** [add_lazy t name load] registers a pending relation: [load] runs on
    the first {!find} (or {!materialize}) and must produce a relation
    named [name].
    @raise Invalid_argument if a relation with that name exists. *)
val add_lazy : t -> string -> (unit -> Relation.t) -> unit

(** [create_relation t schema] creates, registers and returns an empty
    relation. *)
val create_relation : t -> Schema.t -> Relation.t

(** [find t name] returns the relation named [name], forcing it first if
    it is still pending.
    @raise Not_found when absent. *)
val find : t -> string -> Relation.t

val find_opt : t -> string -> Relation.t option

val mem : t -> string -> bool

(** [is_loaded t name] is [true] iff [name] is registered and
    materialized (never forces). *)
val is_loaded : t -> string -> bool

(** Number of registered relations still pending. *)
val pending_count : t -> int

(** Force every pending relation, in registration order. *)
val materialize : t -> unit

(** [relations t] lists relations in registration order (forcing any
    still pending). *)
val relations : t -> Relation.t list

val relation_names : t -> string list

(** Total tuples across {b loaded} relations; pending relations count
    for zero (never forced). *)
val total_tuples : t -> int

(** [copy t] deep-copies every loaded relation — used when producing
    repairs. Pending relations stay pending in the copy, sharing the
    loader thunk (it re-runs on the copy's first access). *)
val copy : t -> t

(** Never forces: pending relations print as [name: pending]. *)
val pp_summary : Format.formatter -> t -> unit

(** [replace_relation t r] rebinds the loaded relation named like [r] to
    [r] — how the serve loop's [update] installs a
    {!Relation.with_tuple} copy.
    @raise Invalid_argument when no loaded relation has that name. *)
val replace_relation : t -> Relation.t -> unit
