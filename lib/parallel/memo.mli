(** A mutex-guarded memoized thunk: [Lazy.t] that is safe to force from
    several domains, and the keyed table of such cells that every cache
    of the learning context is.

    [Lazy.force] raises [Lazy.Undefined] when two domains race on one
    suspension, which is exactly the access pattern of the coverage
    engine's shared per-clause caches. [Memo.force] instead blocks the
    losers until the winner has computed, so every domain observes the
    same (physically equal) value and the computation runs once. A
    forced cell answers without taking its mutex.

    The thunk must not force its own cell (self-deadlock, like the
    recursive forcing [Lazy] reports as [Undefined]). It runs holding the
    cell's mutex and may submit a {!Pool} batch: the pool never makes a
    submitter wait for another's batch, whose chunks may be waiting for
    this cell. An exception raised by the thunk is cached and re-raised
    on every force. *)

type 'a t

val make : (unit -> 'a) -> 'a t

(** A cell that is already forced; [force] never blocks. *)
val return : 'a -> 'a t

val force : 'a t -> 'a

(** [is_forced t] is [true] once a [force] has completed (also when the
    thunk raised). Used by tests to pin which coverage branches ran. *)
val is_forced : 'a t -> bool

(** A table of cells keyed on [key]. *)
module type TABLE = sig
  type key
  type 'a t

  val create : int -> 'a t

  (** [find_or_add t k f] is the value of [k]'s cell. The cell is found,
      or created with thunk [f], under the table's lock, and forced after
      the lock is released. So each key computes exactly once, concurrent
      callers of one key share one physical value, and distinct keys
      compute in parallel. The thunk of the caller that created the cell
      runs once, in whichever domain forces the cell first; the [f] of
      every later caller is dropped. A thunk may ask the table for other
      keys, never for its own. *)
  val find_or_add : 'a t -> key -> (unit -> 'a) -> 'a

  (** [remove t k] drops [k]'s cell: the next [find_or_add] of [k]
      computes afresh. A caller already forcing the old cell still gets
      its value. *)
  val remove : 'a t -> key -> unit

  (** [find_opt t k] is [Some v] when [k]'s cell holds the value [v];
      [None] when [k] has no cell, or its cell is still computing or its
      thunk raised. Never blocks on a computation. *)
  val find_opt : 'a t -> key -> 'a option

  (** The keys whose cell holds a value, with that value, in no
      particular order, left out as by [find_opt]. Never blocks on a
      computation. *)
  val computed : 'a t -> (key * 'a) list
end

module Table (K : Hashtbl.HashedType) : TABLE with type key = K.t
