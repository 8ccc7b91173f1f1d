(** Dense coverage sets for the incremental coverage engine.

    [Bitset] is an immutable set of dense example ids (see
    {!Context.example_id}) packed into [Bytes]; [entry] is the per-clause
    cache record of known coverage verdicts; [Clause_tbl] and
    [Clause_memo] are the tables keyed on clauses. See docs/COVERAGE.md. *)

module Bitset : sig
  type t
  (** Immutable bitset. Bit [i] lives at byte [i lsr 3], position
      [i land 7]; the representation is trimmed (no trailing zero bytes),
      so equal sets are structurally equal. *)

  val empty : t
  val is_empty : t -> bool
  val equal : t -> t -> bool

  val mem : t -> int -> bool
  (** [mem t i] — [false] for any id outside the backing bytes
      (including negative ids), never an error. *)

  val add : t -> int -> t
  (** Functional add; raises [Invalid_argument] on a negative id. *)

  val add_list : t -> int list -> t
  (** Batch add with a single allocation. *)

  val of_list : int list -> t
  val singleton : int -> t
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t

  val cardinal : t -> int
  (** Population count (256-entry table, one lookup per byte). *)

  val iter : (int -> unit) -> t -> unit
  (** Iterates set bits in increasing id order. *)

  val to_list : t -> int list
  (** Set bits in increasing id order. *)

  val capacity : t -> int
  (** [8 * length in bytes] — ids [>= capacity] are definitely absent. *)
end

type entry
(** Known coverage verdicts for one canonical clause: per polarity, the
    example ids whose verdict is recorded and the subset that came out
    covered. Reads and merges take the entry's own lock; merges are
    monotone (sets only grow). *)

val entry : unit -> entry
(** A fresh all-empty entry with its own lock. *)

val known : entry -> negative:bool -> Bitset.t * Bitset.t
(** [known e ~negative] is the [(tested, covered)] pair of one polarity,
    [covered ⊆ tested]. *)

val record :
  entry -> negative:bool -> tested:int list -> covered:int list -> unit
(** [record e ~negative ~tested ~covered] merges verdicts into one
    polarity: the ids of [tested] are known, those of [covered ⊆ tested]
    came out covered. *)

val invalidate : entry -> Bitset.t -> unit
(** [invalidate e mask] forgets the verdicts of the ids in [mask] (they
    leave the tested and covered sets of both polarities) — the
    per-example invalidation a committed tuple delta triggers; every
    other verdict survives. *)

module Clause_tbl : Hashtbl.S with type key = Dlearn_logic.Clause.t
(** Hashtable keyed on clauses: structural equality,
    {!Dlearn_logic.Clause.hash} over every literal. *)

module Clause_memo :
  Dlearn_parallel.Memo.TABLE with type key = Dlearn_logic.Clause.t
(** Memo table with the same keys: the cover cache (keyed on
    [Clause_norm.normalize] output), the normal-form memo and each ground
    entry's ARMG memo. *)
