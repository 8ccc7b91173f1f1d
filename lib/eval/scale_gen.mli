(** Deterministic scaled-workload generator (ROADMAP item 5).

    Emits a two-relation entity-matching dataset — [src_products]
    (clean, supplier side) and [dst_products] (dirty, marketplace side)
    — straight to disk in {!Dlearn_relation.Storage} layout
    (manifest + CSVs), never holding the relations in memory. Row [i]
    of both relations describes the same entity; the marketplace twin's
    title and brand are corrupted at [dirt_rate] with the shared
    {!Corrupt} kit (case/suffix variants and seeded typos), which is
    the paper's Walmart/Amazon setting at 10⁵–10⁶ tuples.

    Determinism: the value universe is a pure function of [vocab], row
    sampling a pure function of [seed] — equal configs produce
    byte-identical datasets. Brand and head-noun frequencies are
    Zipf-skewed with exponent [zipf_s] (skew is what stresses the
    similarity index: hot grams get long posting lists). See
    docs/SCALE.md for how the knobs map to bench scenarios. *)

type config = {
  tuples : int;  (** rows per relation *)
  dirt_rate : float;  (** per-field corruption probability, in [0, 1] *)
  duplicate_rate : float;
      (** probability a row duplicates the previous entity under a fresh
          pid, in [0, 1] *)
  zipf_s : float;  (** Zipf exponent for brand / head-noun skew *)
  vocab : int;  (** distinct nouns (brands scale as vocab/8) *)
  seed : int;
}

(** 10⁵ tuples, 10% dirt, 5% duplicates, s = 1.1, vocab 512. *)
val default : config

type summary = {
  dir : string;
  relations : (string * int) list;  (** rows per relation *)
  bytes : int;  (** CSV bytes written *)
  duplicates : int;  (** rows that duplicated the previous entity *)
  corrupted : int;  (** marketplace rows whose title differs *)
}

val src_name : string
val dst_name : string

(** Position of the [title] attribute in both schemas. *)
val title_pos : int

(** [validate config] is [Error msg] when a field is out of range —
    [tuples] not positive, [vocab] below 16, or a rate outside [0, 1] —
    naming the first such field and its value. *)
val validate : config -> (unit, string) result

(** [generate ?config dir] writes the dataset into [dir] (created if
    needed) and returns what it wrote. Counter: [scale_gen.rows_written].
    @raise Invalid_argument when {!validate} rejects [config]. *)
val generate : ?config:config -> string -> summary

val pp_summary : Format.formatter -> summary -> unit
