(** Dense coverage sets for the incremental coverage engine.

    [Bitset] is an immutable set of dense example ids (see
    {!Context.example_id}) packed into [Bytes]; [entry] is the per-clause
    cache record of known coverage verdicts; [Clause_tbl] is the hashtable
    the cache is keyed on (canonical clause forms). See docs/COVERAGE.md. *)

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

type entry = {
  lock : Mutex.t;
  mutable pos_tested : Bitset.t;
  mutable pos_covered : Bitset.t;
  mutable neg_tested : Bitset.t;
  mutable neg_covered : Bitset.t;
}
(** Known coverage verdicts for one canonical clause: [*_tested] holds the
    example ids whose verdict is recorded, [*_covered ⊆ *_tested] the ones
    that came out covered. All four fields are read and merged under
    [lock]; merges are monotone (sets only grow). *)

val entry : unit -> entry
(** A fresh all-empty entry with its own lock. *)

val invalidate : entry -> Bitset.t -> unit
(** [invalidate e mask] forgets the verdicts of the ids in [mask] (they
    leave the tested and covered sets of both polarities, under the
    entry's lock) — the per-example invalidation a committed tuple delta
    triggers; every other verdict survives. *)

module Clause_tbl : Hashtbl.S with type key = Dlearn_logic.Clause.t
(** Hashtable keyed on canonical clauses (the cover cache keys on
    [Clause_norm.normalize] output): structural equality,
    {!Dlearn_logic.Clause.hash} over every literal. *)
