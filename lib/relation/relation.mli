(** Stored relation instances.

    A relation couples a {!Schema.t} with a growable tuple store and one
    hash index per attribute. Tuples are addressed by dense integer ids in
    insertion order. Duplicate tuples are allowed — deduplication is a
    cleaning decision this system deliberately does not make. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val name : t -> string

(** [with_tuple t id tuple] is a fresh relation with tuple [id]
    replaced — copy-on-write at relation granularity, O(cardinality);
    [t] keeps the old tuple.
    @raise Invalid_argument on a bad id or arity. *)
val with_tuple : t -> int -> Tuple.t -> t

(** [insert t tuple] stores [tuple] and returns its id.
    @raise Invalid_argument if the arity differs from the schema. *)
val insert : t -> Tuple.t -> int

val insert_all : t -> Tuple.t list -> unit

val cardinality : t -> int

(** [get t id] returns the stored tuple.
    @raise Invalid_argument on an out-of-range id. *)
val get : t -> int -> Tuple.t

(** [select_eq t pos v] returns ids of tuples whose attribute [pos] equals
    [v], via the index. *)
val select_eq : t -> int -> Value.t -> int list

(** [holds_value t pos v] is [select_eq t pos v <> []] without building the
    list. *)
val holds_value : t -> int -> Value.t -> bool

(** [distinct_values t pos] lists the distinct values of attribute [pos]. *)
val distinct_values : t -> int -> Value.t list

val iter : (int -> Tuple.t -> unit) -> t -> unit

val fold : (int -> Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> Tuple.t list

(** [filter p t] returns a fresh relation (same schema) keeping tuples
    satisfying [p]. *)
val filter : (Tuple.t -> bool) -> t -> t

(** [map_tuples f t] returns a fresh relation with each tuple replaced by
    [f tuple]; arities must be preserved. *)
val map_tuples : (Tuple.t -> Tuple.t) -> t -> t

(** [contains t tuple] tests membership (uses the first attribute index to
    narrow candidates). *)
val contains : t -> Tuple.t -> bool

val copy : t -> t

val pp : Format.formatter -> t -> unit
