open Dlearn_relation
module Obs = Dlearn_obs.Obs
module Pool = Dlearn_parallel.Pool

(* Candidate-generation counters. Unconditional (like the coverage
   counters): they are the contract the dedup/prefilter tests pin. *)
let candidates_c = Obs.counter "sim_index.candidates"
let measured_c = Obs.counter "sim_index.measured"
let pruned_c = Obs.counter "sim_index.length_pruned"

(* {2 Gram keys}

   A gram is identified by an [int] key rather than an [n]-byte string:
   for [n <= 7] the padded, lowercased window is packed 8 bits per
   character, a bijection onto the gram strings of [Ngram.gram_set] —
   the blocking behaviour is exactly the seed implementation's, without
   allocating one string per window. For [n > 7] the key is the
   structural hash of the gram string; collisions can only add
   candidates, never lose one, and scoring decides, so blocking stays
   sound. *)

let pad_left = '#'
let pad_right = '$'

let gram_keys ~n s =
  if n <= 0 then invalid_arg "Sim_index: n must be positive";
  let len = String.length s in
  if len = 0 then [||]
  else begin
    let count = len + n - 1 in
    let padded_len = len + (2 * (n - 1)) in
    let padded_char i =
      if i < n - 1 then pad_left
      else if i - (n - 1) >= len then pad_right
      else Char.lowercase_ascii (String.unsafe_get s (i - (n - 1)))
    in
    let keys = Array.make count 0 in
    if n <= 7 then begin
      (* Rolling pack: shift one character in per window. *)
      let mask = (1 lsl (8 * n)) - 1 in
      let acc = ref 0 in
      for i = 0 to padded_len - 1 do
        acc := ((!acc lsl 8) lor Char.code (padded_char i)) land mask;
        if i >= n - 1 then keys.(i - (n - 1)) <- !acc
      done
    end
    else begin
      let window = Bytes.create n in
      for w = 0 to count - 1 do
        for j = 0 to n - 1 do
          Bytes.unsafe_set window j (padded_char (w + j))
        done;
        keys.(w) <- Hashtbl.hash (Bytes.to_string window)
      done
    end;
    (* Dedup in place, preserving first-occurrence order: each distinct
       gram must appear exactly once. Quadratic in the gram count, but
       values are short strings — the scan beats sorting, and posting
       content never depends on per-value key order anyway. *)
    let uniq = ref 0 in
    for i = 0 to count - 1 do
      let k = keys.(i) in
      let j = ref 0 in
      while !j < !uniq && keys.(!j) <> k do incr j done;
      if !j = !uniq then begin
        keys.(!uniq) <- k;
        incr uniq
      end
    done;
    if !uniq = count then keys else Array.sub keys 0 !uniq
  end

(* {2 Posting table}

   An open-addressing table from gram key to posting list, specialized
   to int keys: linear probing over power-of-two arrays, slot hash from
   a Fibonacci multiplicative mix. Compared to a generic [Hashtbl] this
   removes the [caml_hash] call and the [find_opt] option allocation
   from every posting insert and every query probe — the insert loop is
   the index build's hot path. A slot is empty iff its posting list is
   [[]] (present keys always carry at least one id). *)
module Itable = struct
  type t = {
    mutable mask : int;  (** capacity - 1; capacity is a power of two *)
    mutable count : int;
    mutable keys : int array;
    mutable vals : int list array;
  }

  (* Bits 20.. of the product: its low bits depend only on the key's low
     byte, the last character of the gram, which is heavily skewed. *)
  let mix k = (k * 0x9E3779B97F4A7C1) lsr 20

  let create hint =
    let rec cap c = if c >= hint * 2 then c else cap (c * 2) in
    let capacity = cap 64 in
    {
      mask = capacity - 1;
      count = 0;
      keys = Array.make capacity 0;
      vals = Array.make capacity [];
    }

  let slot t k =
    let i = ref (mix k land t.mask) in
    while t.vals.(!i) != [] && t.keys.(!i) <> k do
      i := (!i + 1) land t.mask
    done;
    !i

  let grow t =
    let okeys = t.keys and ovals = t.vals in
    let capacity = (t.mask + 1) * 2 in
    t.mask <- capacity - 1;
    t.keys <- Array.make capacity 0;
    t.vals <- Array.make capacity [];
    Array.iteri
      (fun i ids ->
        if ids != [] then begin
          let j = slot t okeys.(i) in
          t.keys.(j) <- okeys.(i);
          t.vals.(j) <- ids
        end)
      ovals

  let add_posting t k id =
    let i = slot t k in
    if t.vals.(i) != [] then t.vals.(i) <- id :: t.vals.(i)
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- [ id ];
      t.count <- t.count + 1;
      (* load factor 1/2 *)
      if t.count * 2 > t.mask then grow t
    end

  (* [] when absent — present keys always hold a non-empty list. *)
  let find t k = t.vals.(slot t k)

  let iter f t =
    Array.iteri (fun i ids -> if ids != [] then f t.keys.(i) ids) t.vals
end

type t = {
  values : string array;  (** sorted distinct *)
  lengths : int array;
  n : int;
  measure : Combined.measure;
  postings : Itable.t;
      (** gram key -> posting ids, descending (consed in value order) *)
}

let pool_for jobs = Pool.get (match jobs with Some j -> max 1 j | None -> 1)

(* {2 Build}

   Gram extraction fans out over the pool, and [Pool.map] preserves
   input order. One sequential pass in ascending value order then conses
   each id onto the lists of its grams, so every posting list is
   descending and the content is a function of the values alone,
   whatever [jobs] is — pinned by [postings_digest] in the tests. *)
let create ?(n = 3) ?(measure = Combined.default) ?jobs values =
  let values = Array.of_list (List.sort_uniq String.compare values) in
  let pool = pool_for jobs in
  Obs.span "sim_index.build" (fun () ->
      let keys_per_value = Pool.map pool (gram_keys ~n) values in
      let postings = Itable.create (max 64 (Array.length values * 4)) in
      Array.iteri
        (fun i keys ->
          Array.iter (fun k -> Itable.add_posting postings k i) keys)
        keys_per_value;
      let lengths = Array.map String.length values in
      { values; lengths; n; measure; postings })

let of_values ?n ?measure ?jobs vs =
  let strings =
    List.filter_map
      (fun v -> if Value.is_null v then None else Some (Value.as_string v))
      vs
  in
  create ?n ?measure ?jobs strings

let size t = Array.length t.values

(* {2 Length-band prefilter}

   An upper bound on the score from lengths alone; candidates whose
   bound falls strictly below the threshold are never scored. Both
   bounds are exact consequences of the measure definitions (operators
   lowercase but never change length):
   - [Paper] averages SWG (≤ 1) with length similarity min/max, so the
     score is at most [(1 + min/max) / 2];
   - [Levenshtein] distance is at least the length difference, so
     similarity is at most [1 - |la - lb| / max la lb].
   Other measures get the trivial bound 1.0 (no pruning). *)
let score_ceiling measure la lb =
  match measure with
  | Combined.Paper ->
      let mn = float_of_int (min la lb) and mx = float_of_int (max la lb) in
      let ratio = if mx = 0.0 then 1.0 else mn /. mx in
      (1.0 +. ratio) /. 2.0
  | Combined.Levenshtein ->
      let mx = max la lb in
      if mx = 0 then 1.0
      else 1.0 -. (float_of_int (abs (la - lb)) /. float_of_int mx)
  | Combined.Smith_waterman | Combined.Jaro_winkler | Combined.Ngram_jaccard _
    ->
      1.0

let take km xs =
  let rec go i = function
    | [] -> []
    | _ when i >= km -> []
    | x :: rest -> x :: go (i + 1) rest
  in
  go 0 xs

let rank_and_cut ?(prefilter = true) t ~km ~threshold s candidate_ids =
  let lq = String.length s in
  let scored =
    List.filter_map
      (fun i ->
        if prefilter && score_ceiling t.measure lq t.lengths.(i) < threshold
        then begin
          Obs.incr pruned_c;
          None
        end
        else begin
          Obs.incr measured_c;
          let v = t.values.(i) in
          let score = Combined.similarity ~measure:t.measure s v in
          if score >= threshold then Some (v, score) else None
        end)
      candidate_ids
  in
  let sorted =
    List.sort
      (fun (v1, s1) (v2, s2) ->
        match Float.compare s2 s1 with
        | 0 -> String.compare v1 v2
        | c -> c)
      scored
  in
  take km sorted

let candidate_ids t s =
  let seen = Hashtbl.create 64 in
  let candidates = ref [] in
  Array.iter
    (fun k ->
      List.iter
        (fun i ->
          if not (Hashtbl.mem seen i) then begin
            Hashtbl.add seen i ();
            candidates := i :: !candidates
          end)
        (Itable.find t.postings k))
    (gram_keys ~n:t.n s);
  !candidates

let query t ~km ~threshold s =
  let candidates = candidate_ids t s in
  Obs.add candidates_c (List.length candidates);
  rank_and_cut t ~km ~threshold s candidates

(* The brute oracle scores every stored value with no blocking and no
   length prefilter, so equivalence tests validate both at once. *)
let query_brute t ~km ~threshold s =
  rank_and_cut ~prefilter:false t ~km ~threshold s
    (List.init (Array.length t.values) Fun.id)

let match_pairs ?n ?measure ?jobs ~km ~threshold left right =
  let index = create ?n ?measure ?jobs right in
  let left = List.sort_uniq String.compare left in
  let pool = pool_for jobs in
  Obs.span "sim_index.match_pairs" (fun () ->
      let hits =
        Pool.map_list pool
          (fun l ->
            query index ~km ~threshold l
            |> List.map (fun (r, score) -> (l, r, score)))
          left
      in
      List.concat hits)

(* {2 Determinism digest}

   A content digest of the index: values, parameters, and every posting
   list in ascending key order. Two builds of the same inputs must
   digest identically whatever [jobs] was — the determinism pin in the
   tests compares this across pool sizes. *)
let postings_digest t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (string_of_int t.n);
  Buffer.add_char buf '|';
  Array.iter
    (fun v ->
      Buffer.add_string buf v;
      Buffer.add_char buf '\x00')
    t.values;
  let entries = ref [] in
  Itable.iter (fun k ids -> entries := (k, ids) :: !entries) t.postings;
  let entries =
    List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2) !entries
  in
  List.iter
    (fun (k, ids) ->
      Buffer.add_string buf (string_of_int k);
      Buffer.add_char buf ':';
      List.iter
        (fun i ->
          Buffer.add_string buf (string_of_int i);
          Buffer.add_char buf ',')
        ids;
      Buffer.add_char buf ';')
    entries;
  Digest.to_hex (Digest.string (Buffer.contents buf))
