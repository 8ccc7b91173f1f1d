(** Directory-based persistence for whole databases.

    A database is stored as one [manifest.txt] plus one CSV per relation.
    The manifest records each relation's name and schema, one line per
    relation: [name|attr1:domain,attr2:domain,...] with domain ∈
    {int, float, string}. Values round-trip through {!Value.to_string} /
    {!Value.of_string}, with the schema's domain used to keep strings that
    happen to look numeric as strings.

    Large datasets need not be materialized: {!scan} streams one
    relation's tuples straight off disk (through {!Csv.fold}'s chunked
    reader). See docs/SCALE.md. *)

(** [save db dir] writes [dir/manifest.txt] and [dir/<relation>.csv] for
    every relation, creating [dir] if needed. *)
val save : Database.t -> string -> unit

(** [csv_path dir name] is the CSV file backing relation [name] — the
    path {!save} writes and {!scan} reads. *)
val csv_path : string -> string -> string

(** [mkdir_p dir] creates [dir] and any missing parents, tolerating
    directories that already exist (or appear concurrently — two racing
    writers both succeed).
    @raise Invalid_argument when [dir] exists and is not a directory. *)
val mkdir_p : string -> unit

(** [write_manifest dir schemas] writes just the manifest (creating
    [dir] recursively if needed) — for producers that stream their CSVs
    themselves, like the scale generator. *)
val write_manifest : string -> Schema.t list -> unit

(** [manifest dir] reads the schemas listed in [dir/manifest.txt], in
    manifest order, without touching any CSV. *)
val manifest : string -> Schema.t list

(** [scan ?delim dir name ~init ~f] folds [f] over every tuple of the
    relation [name], streaming from its CSV without building a
    relation. Tuples are re-typed against the manifest schema exactly
    as {!load} does.
    @raise Invalid_argument if [name] is not in the manifest. *)
val scan :
  ?delim:char ->
  string ->
  string ->
  init:'a ->
  f:('a -> Tuple.t -> 'a) ->
  'a

(** [load dir] reads a database saved by {!save}.
    @raise Sys_error / [Invalid_argument] on missing or malformed files. *)
val load : string -> Database.t
