(* MD-driven similarity matching at scale: the paper's operator (Smith-
   Waterman-Gotoh averaged with length similarity) over the titles of a
   generated entity-matching dataset, with no learning on top.

   [topk]: one client issues top-5 queries at threshold 0.9 against a
   prebuilt index, one after the other — the single-query latency the
   bottom clauses pay, which never fans out over the pool.
   [matching]: [match_pairs] of a batch of titles, which builds its
   index and fans the queries out over two domains — the batch path.

   The dataset, the query log and the batches are the same in every
   run, and the run's seed orders them: generated datasets differ in
   query cost (the median query took 74 ms on one seed's data and 129 ms
   on another's), and so do samples of queries. *)

open Dlearn_relation
open Dlearn_eval
module Sim = Dlearn_similarity.Sim_index
module Obs = Dlearn_obs.Obs
module H = Harness

let tuples = 20_000
let km = 5
let threshold = 0.9
let jobs = 2

let titles db name =
  Relation.distinct_values (Database.find db name) Scale_gen.title_pos
  |> List.filter_map (fun v -> if Value.is_null v then None else Some (Value.as_string v))

(* Generate the dataset on disk and load it back: the set-up a user of a
   stored database pays before the first query. Returns the clean-side
   titles (the queries) and the dirty-side titles (the indexed side). *)
let load m (r : H.run) k =
  let dir = Filename.concat r.dir (Printf.sprintf "scale-%d" k) in
  H.phase m "generate" (fun () ->
      ignore (Scale_gen.generate ~config:{ Scale_gen.default with tuples } dir));
  let db = H.phase m "load" (fun () -> Storage.load dir) in
  let src = titles db Scale_gen.src_name and dst = titles db Scale_gen.dst_name in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  (src, dst)

let well_formed hits =
  List.length hits <= km && List.for_all (fun (_, s) -> s >= threshold) hits

(* Set up three times and keep the last: set-up time is a median too. *)
let setups = 3
let log_size = 100

let topk (r : H.run) =
  let m = H.meter () in
  let state = ref None in
  for k = 1 to setups do
    state :=
      Some
        (H.setup m (fun () ->
             let src, dst = load m r k in
             (src, H.phase m "index" (fun () -> Sim.create ~jobs dst))))
  done;
  let src, index = Option.get !state in
  (* A fixed log of [log_size] queries replayed in the seed's order:
     single queries range from 14 ms to 210 ms, so the median of a
     fresh random sample of a hundred moved by about 10% from sample to
     sample. *)
  let titles = H.shuffle (Random.State.make [| 0x517 |]) (Array.of_list src) in
  let log = H.shuffle (Random.State.make [| r.seed; 0x517 |]) (Array.sub titles 0 log_size) in
  H.closed_loop r m ~min_ops:log_size (fun i ~traced ->
      H.op r m ~traced ~input:(i mod log_size) (fun () ->
          well_formed
            (Obs.span "e2e.sim_query" (fun () ->
                 Sim.query index ~km ~threshold log.(i mod log_size)))));
  H.sample_heap m ~input:0;
  (* Blocking and the length prefilter must not lose a match: the exact
     scan agrees on ten seeded queries outside the log. *)
  let rng = Random.State.make [| r.seed; 0xB2 |] in
  for _ = 1 to 10 do
    let q = titles.(log_size + Random.State.int rng (Array.length titles - log_size)) in
    H.check m
      (Sim.query index ~km ~threshold q = Sim.query_brute index ~km ~threshold q)
      "query %S differs from the exact scan" q
  done;
  print_endline (H.result_line r m)

(* A fixed set of batches replayed in the seed's order, for the same
   reason as the query log. *)
let batch = 20
let batches = 8

let matching (r : H.run) =
  let m = H.meter () in
  let state = ref None in
  for k = 1 to setups do
    state := Some (H.setup m (fun () -> load m r k))
  done;
  let src, dst = Option.get !state in
  let src = Array.of_list src in
  let order = H.shuffle (Random.State.make [| r.seed; 0x3A7 |]) (Array.init batches Fun.id) in
  let last = ref ([], []) in
  H.closed_loop r m ~min_ops:batches (fun i ~traced ->
      let k = order.(i mod batches) in
      let rng = Random.State.make [| 0x3A7; k |] in
      let left = List.init batch (fun _ -> src.(Random.State.int rng (Array.length src))) in
      H.op r m ~traced ~input:k (fun () ->
          let pairs = Sim.match_pairs ~jobs ~km ~threshold left dst in
          last := (left, pairs);
          List.for_all (fun (_, _, s) -> s >= threshold) pairs));
  H.sample_heap m ~input:0;
  (* The batch path returns, per left value, what the exact scan finds. *)
  let left, pairs = !last in
  let index = Sim.create dst in
  List.iteri
    (fun i l ->
      if i < 3 then
        H.check m
          (List.filter_map (fun (l', v, s) -> if l' = l then Some (v, s) else None) pairs
          = Sim.query_brute index ~km ~threshold l)
          "match_pairs for %S differs from the exact scan" l)
    (List.sort_uniq String.compare left);
  print_endline (H.result_line r m)
