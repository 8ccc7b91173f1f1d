(* The warm serve loop: [dlearn serve]'s server on a thread of this
   process and one client over its Unix socket, in a closed loop of
   rounds. A round commits one new movie, relearns on the warm caches,
   then reads: five coverage and five query requests with fixed clauses.
   Learned clauses may carry repair literals, which have no concrete
   syntax, so the reads use hand-written clauses instead.

   Three inserts in four bring a title unlike any other and invalidate
   nothing; every fourth is a near-duplicate (a seeded typo) of the first
   OMDB title, which invalidates the examples whose bottom clauses it
   could change, so the next learn recomputes them. The target is fixed
   because the cost of that recomputation depends on which examples
   drop: near-duplicates of a random title made one relearn 0.6 s and
   another 4.6 s, too uneven to compare runs by. The run's seed picks
   the novel titles and the typos. *)

open Dlearn_relation
open Dlearn_eval
open Dlearn_serve
module Obs = Dlearn_obs.Obs
module H = Harness

let movies = 16
let jobs = 2

let workload () = Experiment.with_jobs (Imdb_omdb.generate ~n:movies `One_md) jobs

let coverage_clauses =
  [
    "dramaRestrictedMovies(x) <- imdb_movies(x, t, y), imdb_mov2genres(x, \"drama\")";
    "dramaRestrictedMovies(x) <- imdb_mov2genres(x, \"drama\"), imdb_mov2countries(x, c)";
    "dramaRestrictedMovies(x) <- imdb_movies(x, t, y), omdb_movies(o, u, z), t ~ u, \
     omdb_rating(o, \"R\")";
    "dramaRestrictedMovies(x) <- imdb_mov2genres(x, \"drama\"), imdb_movies(x, t, y), \
     omdb_movies(o, u, z), t ~ u, omdb_rating(o, \"R\")";
    "dramaRestrictedMovies(x) <- imdb_movies(x, t, y), omdb_movies(o, u, z), t ~ u, \
     omdb_mov2genres(o, \"drama\")";
  ]

let query_clauses =
  [
    "q(x, t) <- imdb_movies(x, t, y), imdb_mov2genres(x, \"drama\")";
    "q(o) <- omdb_rating(o, \"R\"), omdb_mov2genres(o, \"drama\")";
    "q(x, o) <- imdb_movies(x, t, y), omdb_movies(o, u, z), t ~ u";
    "q(x, c) <- imdb_mov2countries(x, c), imdb_mov2genres(x, g)";
    "q(x, r) <- imdb_movies(x, t, y), omdb_movies(o, u, z), t ~ u, omdb_rating(o, r)";
  ]

(* The k-th inserted movie: a near-duplicate of [target] or a title
   unlike any other. Its id and year occur nowhere else, so only the
   title can touch a cached bottom clause. *)
let movie ~seed ~near_dup ~target k =
  let rng = Random.State.make [| seed; 0x5E7; k |] in
  let title =
    if near_dup then Corrupt.typo rng target
    else
      String.concat " "
        (List.init 3 (fun _ ->
             String.capitalize_ascii
               (String.init 6 (fun _ -> Char.chr (Char.code 'a' + Random.State.int rng 26)))))
  in
  [ Printf.sprintf "tt9%04d" k; title; string_of_int (2100 + k) ]

type server = { thread : Thread.t; client : Client.t }

let start m (r : H.run) k =
  let w = H.phase m "generate" workload in
  let state = H.phase m "index" (fun () -> Server.create w) in
  let socket_path = Filename.concat r.dir (Printf.sprintf "serve-%d.sock" k) in
  let thread = Thread.create (fun () -> Server.run state ~socket_path) () in
  { thread; client = Client.connect_retry socket_path }

let stop s =
  ignore (Client.request s.client (Protocol.request "shutdown" []));
  Client.close s.client;
  Thread.join s.thread

let clauses resp =
  match Json.list_field "clauses" resp with
  | Some items -> List.map (function Json.String c -> c | _ -> "") items
  | None -> []

let setups = 3

(* Learn over a prefix of the examples: the relearns stay short enough
   for many rounds per run. *)
let learn_fields = [ ("pos", Json.Int 6); ("neg", Json.Int 12) ]
let learn_request = Protocol.request "learn" learn_fields

let run (r : H.run) =
  let m = H.meter () in
  let omdb = Database.find (workload ()).Workload.db "omdb_movies" in
  let target = Value.as_string (Tuple.get (Relation.get omdb 0) 1) in
  let server = ref None in
  for k = 1 to setups do
    Option.iter stop !server;
    server :=
      Some
        (H.setup m (fun () ->
             let s = start m r k in
             H.phase m "prime" (fun () ->
                 ignore (Client.request s.client learn_request));
             s))
  done;
  let s = Option.get !server in
  let inserted = ref [] and last_learn = ref [] in
  let request ok op fields =
    let resp =
      Obs.span ("client." ^ op) (fun () -> Client.request s.client (Protocol.request op fields))
    in
    if not (Protocol.is_ok resp) then begin
      ok := false;
      prerr_endline ("e2e: " ^ op ^ " failed: " ^ Protocol.error_of_response resp)
    end;
    resp
  in
  H.closed_loop r m ~min_ops:4 (fun i ~traced ->
      let values =
        movie ~seed:r.seed ~near_dup:(i mod 4 = 3) ~target (List.length !inserted)
      in
      inserted := values :: !inserted;
      H.op r m ~traced ~input:i (fun () ->
          let ok = ref true in
          ignore
            (request ok "insert"
               [
                 ("relation", Json.String "imdb_movies");
                 ("values", Json.List (List.map (fun v -> Json.String v) values));
               ]);
          last_learn := clauses (request ok "learn" learn_fields);
          List.iter
            (fun c -> ignore (request ok "coverage" [ ("clause", Json.String c) ]))
            coverage_clauses;
          List.iter
            (fun c -> ignore (request ok "query" [ ("clause", Json.String c) ]))
            query_clauses;
          !ok));
  H.sample_heap m ~input:0;
  stop s;
  (* The warm definition must be what a cold server learns over the
     same final database. *)
  let cold = workload () in
  let movies_rel = Database.find cold.Workload.db "imdb_movies" in
  List.iter
    (fun v -> ignore (Relation.insert movies_rel (Tuple.of_strings v)))
    (List.rev !inserted);
  let cold_clauses = clauses (Server.handle (Server.create cold) learn_request) in
  H.check m (cold_clauses = !last_learn && cold_clauses <> [])
    "warm definition differs from a cold learn over the final database";
  print_endline (H.result_line r m)
