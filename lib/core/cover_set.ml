(* Dense coverage sets for the incremental coverage engine: an immutable
   bitset over [Bytes] indexed by the context's dense example ids, the
   per-clause cache entry holding tested/covered sets for both coverage
   predicates, and the canonical-clause tables the caches are keyed on. *)

module Bitset = struct
  (* Bit [i] lives at byte [i lsr 3], position [i land 7]. Invariant: the
     last byte is non-zero (constructors trim), so structural equality is
     [Bytes.equal] and the representation of a set is unique. *)
  type t = Bytes.t

  let empty = Bytes.empty

  let trim b =
    let n = ref (Bytes.length b) in
    while !n > 0 && Bytes.get b (!n - 1) = '\000' do
      decr n
    done;
    if !n = Bytes.length b then b else Bytes.sub b 0 !n

  let capacity t = 8 * Bytes.length t
  let is_empty t = Bytes.length t = 0
  let equal = Bytes.equal

  let mem t i =
    let byte = i lsr 3 in
    i >= 0
    && byte < Bytes.length t
    && (Char.code (Bytes.get t byte) lsr (i land 7)) land 1 = 1

  (* A copy of [t] with room for bit [bits - 1]. *)
  let ensure t bits =
    let need = (bits + 7) / 8 in
    if need <= Bytes.length t then Bytes.copy t
    else begin
      let out = Bytes.make need '\000' in
      Bytes.blit t 0 out 0 (Bytes.length t);
      out
    end

  let set_packed b i =
    let byte = i lsr 3 in
    Bytes.set b byte
      (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl (i land 7))))

  let add t i =
    if i < 0 then invalid_arg "Bitset.add: negative id";
    if mem t i then t
    else begin
      let out = ensure t (i + 1) in
      set_packed out i;
      out
    end

  (* [add_list t ids] is [t] with every id set — one allocation, not one
     per element. *)
  let add_list t ids =
    match ids with
    | [] -> t
    | _ ->
        let hi = List.fold_left max 0 ids in
        let out = ensure t (hi + 1) in
        List.iter
          (fun i ->
            if i < 0 then invalid_arg "Bitset.add_list: negative id";
            set_packed out i)
          ids;
        trim out

  let of_list ids = add_list empty ids
  let singleton i = add empty i

  let union a b =
    let big, small =
      if Bytes.length a >= Bytes.length b then (a, b) else (b, a)
    in
    if Bytes.length small = 0 then big
    else begin
      let out = Bytes.copy big in
      for i = 0 to Bytes.length small - 1 do
        Bytes.set out i
          (Char.chr (Char.code (Bytes.get big i) lor Char.code (Bytes.get small i)))
      done;
      out
    end

  let inter a b =
    let n = min (Bytes.length a) (Bytes.length b) in
    let out = Bytes.create n in
    for i = 0 to n - 1 do
      Bytes.set out i
        (Char.chr (Char.code (Bytes.get a i) land Char.code (Bytes.get b i)))
    done;
    trim out

  let diff a b =
    let out = Bytes.copy a in
    let n = min (Bytes.length a) (Bytes.length b) in
    for i = 0 to n - 1 do
      Bytes.set out i
        (Char.chr
           (Char.code (Bytes.get a i) land (lnot (Char.code (Bytes.get b i)) land 0xff)))
    done;
    trim out

  let popcount =
    let table = Array.make 256 0 in
    for i = 1 to 255 do
      table.(i) <- table.(i lsr 1) + (i land 1)
    done;
    table

  let cardinal t =
    let acc = ref 0 in
    for i = 0 to Bytes.length t - 1 do
      acc := !acc + popcount.(Char.code (Bytes.get t i))
    done;
    !acc

  let iter f t =
    for byte = 0 to Bytes.length t - 1 do
      let v = Char.code (Bytes.get t byte) in
      if v <> 0 then
        for bit = 0 to 7 do
          if (v lsr bit) land 1 = 1 then f ((byte lsl 3) lor bit)
        done
    done

  let to_list t =
    let acc = ref [] in
    iter (fun i -> acc := i :: !acc) t;
    List.rev !acc
end

(* One cache entry per canonical clause: for each coverage predicate, the
   set of example ids whose verdict is known and the subset that came out
   covered. Mutable under [lock] — the climb's candidate scoring and the
   covering loop hit entries from several domains at once. *)
type entry = {
  lock : Mutex.t;
  mutable pos_tested : Bitset.t;
  mutable pos_covered : Bitset.t;
  mutable neg_tested : Bitset.t;
  mutable neg_covered : Bitset.t;
}

let entry () =
  {
    lock = Mutex.create ();
    pos_tested = Bitset.empty;
    pos_covered = Bitset.empty;
    neg_tested = Bitset.empty;
    neg_covered = Bitset.empty;
  }

let known e ~negative =
  Mutex.protect e.lock (fun () ->
      if negative then (e.neg_tested, e.neg_covered)
      else (e.pos_tested, e.pos_covered))

(* Merges are monotone: sets only grow, so concurrent merges of
   individually correct verdicts commute. *)
let record e ~negative ~tested ~covered =
  if tested <> [] then
    Mutex.protect e.lock (fun () ->
        if negative then begin
          e.neg_tested <- Bitset.add_list e.neg_tested tested;
          e.neg_covered <- Bitset.add_list e.neg_covered covered
        end
        else begin
          e.pos_tested <- Bitset.add_list e.pos_tested tested;
          e.pos_covered <- Bitset.add_list e.pos_covered covered
        end)

(* Forget the verdicts of the masked example ids — the monotone
   invalidation a committed tuple delta triggers: the ids leave both the
   tested and covered sets, so the next query recomputes them against
   the new database while every other verdict survives. *)
let invalidate e mask =
  Mutex.protect e.lock (fun () ->
      e.pos_tested <- Bitset.diff e.pos_tested mask;
      e.pos_covered <- Bitset.diff e.pos_covered mask;
      e.neg_tested <- Bitset.diff e.neg_tested mask;
      e.neg_covered <- Bitset.diff e.neg_covered mask)

(* Canonical-clause keys: structural equality on the (sorted,
   deduplicated) body, hashed over every literal — no string rendering. *)
module Clause_key = struct
  type t = Dlearn_logic.Clause.t

  let equal = Dlearn_logic.Clause.equal
  let hash = Dlearn_logic.Clause.hash
end

module Clause_tbl = Hashtbl.Make (Clause_key)
module Clause_memo = Dlearn_parallel.Memo.Table (Clause_key)
