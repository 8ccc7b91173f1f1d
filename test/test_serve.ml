(* The serve layer: JSON codec, frame protocol, and the warm server
   state driven in-process (the socket loop itself gets one end-to-end
   case; CI exercises it again through the real binary). The heart of
   the file is the interleaving properties: writes into the warm state
   must leave every later verdict identical to a cold sequential replay,
   at every domain count — the soundness contract of
   [Context.apply_delta] (docs/SERVE.md). *)

open Dlearn_relation
open Dlearn_serve
module Workload = Dlearn_eval.Workload
module Experiment = Dlearn_eval.Experiment

let json_tests =
  let roundtrip v = Json.of_string (Json.to_string v) in
  [
    Alcotest.test_case "values round-trip" `Quick (fun () ->
        let v =
          Json.Obj
            [
              ("a", Json.Int 42);
              ("b", Json.List [ Json.Bool true; Json.Null; Json.Float 1.5 ]);
              ("c", Json.String "x \"quoted\" \\ \n end");
              ("d", Json.Obj [ ("nested", Json.Int (-7)) ]);
            ]
        in
        Alcotest.(check bool) "equal" true (roundtrip v = v));
    Alcotest.test_case "parses whitespace and escapes" `Quick (fun () ->
        let v = Json.of_string "  { \"k\" : [ 1 , \"a\\u0041\\n\" ] }  " in
        Alcotest.(check bool) "shape" true
          (v = Json.Obj [ ("k", Json.List [ Json.Int 1; Json.String "aA\n" ]) ]));
    Alcotest.test_case "decodes surrogate pairs to UTF-8" `Quick (fun () ->
        match Json.of_string "\"\\ud83d\\ude00\"" with
        | Json.String s ->
            Alcotest.(check string) "grinning face" "\xf0\x9f\x98\x80" s
        | _ -> Alcotest.fail "expected a string");
    Alcotest.test_case "rejects malformed input" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true
              (Json.of_string_opt s = None))
          [ "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "" ]);
    Alcotest.test_case "nesting deeper than the bound is a parse error"
      `Quick (fun () ->
        let nested n = String.make n '[' ^ String.make n ']' in
        Alcotest.(check bool) "at the bound" true
          (Json.of_string_opt (nested Json.max_depth) <> None);
        Alcotest.(check bool) "one past it" true
          (match Json.of_string (nested (Json.max_depth + 1)) with
          | _ -> false
          | exception Json.Parse_error _ -> true));
    Alcotest.test_case "accessors tolerate wrong shapes" `Quick (fun () ->
        let v = Json.Obj [ ("s", Json.String "x"); ("i", Json.Int 3) ] in
        Alcotest.(check (option string)) "string" (Some "x")
          (Json.string_field "s" v);
        Alcotest.(check (option int)) "int" (Some 3) (Json.int_field "i" v);
        Alcotest.(check (option int)) "wrong shape" None (Json.int_field "s" v);
        Alcotest.(check (option int)) "missing" None (Json.int_field "zz" v));
    (* Printing goes through the escaper shared with diagnostics and Obs
       reports; any byte string must survive print then parse. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"any byte string round-trips" ~count:1000
         (QCheck.make ~print:(Printf.sprintf "%S")
            QCheck.Gen.(
              string_size (0 -- 40)
                ~gen:
                  (frequency
                     [
                       (2, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b' ]);
                       (2, map Char.chr (0 -- 0x1f));
                       (2, map Char.chr (0x7f -- 0xff));
                       (4, char);
                     ])))
         (fun s -> Json.of_string (Json.to_string (Json.String s)) = Json.String s));
  ]

let protocol_tests =
  [
    Alcotest.test_case "frames round-trip over a socketpair" `Quick (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            Unix.close a;
            Unix.close b)
          (fun () ->
            let msgs = [ ""; "x"; String.make 100_000 'y'; "{\"op\":\"ping\"}" ] in
            List.iter (fun m -> Protocol.write_frame a m) msgs;
            List.iter
              (fun m ->
                Alcotest.(check string) "frame" m (Protocol.read_frame b))
              msgs));
    Alcotest.test_case "oversized length prefix is rejected" `Quick (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            Unix.close a;
            Unix.close b)
          (fun () ->
            let header = Bytes.of_string "\xff\xff\xff\xff" in
            ignore (Unix.write a header 0 4);
            Alcotest.(check bool) "raises" true
              (try
                 ignore (Protocol.read_frame b);
                 false
               with Protocol.Protocol_error _ -> true)));
    Alcotest.test_case "envelopes" `Quick (fun () ->
        Alcotest.(check bool) "ok" true (Protocol.is_ok (Protocol.ok []));
        let e = Protocol.error "boom" in
        Alcotest.(check bool) "not ok" false (Protocol.is_ok e);
        Alcotest.(check string) "message" "boom" (Protocol.error_of_response e));
  ]

(* A small workload with a private database copy — server states adopt
   and mutate their database, so every test takes a fresh one. *)
let base_workload = lazy (Dlearn_eval.Imdb_omdb.generate ~n:20 `One_md)

let fresh_workload ?(jobs = 1) () =
  let w = Lazy.force base_workload in
  let w = Experiment.with_jobs w jobs in
  { w with Workload.db = Database.copy w.Workload.db }

let ok_exn resp =
  if Protocol.is_ok resp then resp
  else Alcotest.failf "request failed: %s" (Protocol.error_of_response resp)

let clauses_of resp =
  match Json.list_field "clauses" resp with
  | Some items ->
      List.map
        (function Json.String s -> s | _ -> Alcotest.fail "bad clause") items
  | None -> Alcotest.fail "no clauses in response"

let test_clause =
  "dramaRestrictedMovies(x) <- imdb_movies(x, t, y), imdb_mov2genres(x, \
   \"drama\")"

let insert_req values =
  Protocol.request "insert"
    [
      ("relation", Json.String "imdb_movies");
      ("values", Json.List (List.map (fun s -> Json.String s) values));
    ]

let update_req rel id values =
  Protocol.request "update"
    [
      ("relation", Json.String rel);
      ("id", Json.Int id);
      ("values", Json.List (List.map (fun s -> Json.String s) values));
    ]

let coverage_req =
  Protocol.request "coverage" [ ("clause", Json.String test_clause) ]

let parsed_test_clause () =
  match Dlearn_logic.Parser.clause test_clause with
  | Ok c -> c
  | Error msg -> Alcotest.failf "clause: %s" msg

(* The coverage of [test_clause] computed from scratch: a fresh context
   over the workload's database as it stands. *)
let cold_counts w =
  let ctx =
    Dlearn_core.Context.create w.Workload.config w.Workload.db w.Workload.mds
      w.Workload.cfds
  in
  let prepared = Dlearn_core.Coverage.prepare ctx (parsed_test_clause ()) in
  Dlearn_core.Coverage.coverage ctx prepared ~pos:w.Workload.pos
    ~neg:w.Workload.neg

let coverage_counts resp =
  match (Json.int_field "pos_covered" resp, Json.int_field "neg_covered" resp) with
  | Some p, Some n -> (p, n)
  | _ -> Alcotest.fail "no coverage counts"

let server_tests =
  [
    Alcotest.test_case "ping, status and unknown ops" `Quick (fun () ->
        let t = Server.create (fresh_workload ()) in
        let pong = ok_exn (Server.handle t (Protocol.request "ping" [])) in
        Alcotest.(check bool) "pong" true
          (Json.member "pong" pong = Some (Json.Bool true));
        let status = ok_exn (Server.handle t (Protocol.request "status" [])) in
        Alcotest.(check (option int)) "version 0" (Some 0)
          (Json.int_field "version" status);
        Alcotest.(check bool) "tuples positive" true
          (match Json.int_field "tuples" status with
          | Some n -> n > 0
          | None -> false);
        let bad = Server.handle t (Protocol.request "frobnicate" []) in
        Alcotest.(check bool) "unknown op rejected" false (Protocol.is_ok bad));
    Alcotest.test_case "bad requests answer, never raise" `Quick (fun () ->
        let t = Server.create (fresh_workload ()) in
        let error req =
          let resp = Server.handle t req in
          Alcotest.(check bool) "ok:false" false (Protocol.is_ok resp);
          Protocol.error_of_response resp
        in
        Alcotest.(check string) "unknown relation" "unknown relation \"nope\""
          (error
             (Protocol.request "insert"
                [
                  ("relation", Json.String "nope");
                  ("values", Json.List [ Json.String "tt1" ]);
                ]));
        Alcotest.(check string) "out-of-range update"
          "Relation.with_tuple: id 1000000 out of range"
          (error (update_req "imdb_movies" 1_000_000 [ "a"; "b"; "c" ]));
        List.iter
          (fun req ->
            let msg = error req in
            List.iter
              (fun prefix ->
                Alcotest.(check bool)
                  (Printf.sprintf "%S is not wrapped in %s" msg prefix)
                  false
                  (String.starts_with ~prefix msg))
              [ "Failure("; "Invalid_argument(" ])
          [
            Protocol.request "insert" [ ("relation", Json.String "nope") ];
            Protocol.request "insert"
              [
                ("relation", Json.String "imdb_movies");
                ("values", Json.List [ Json.String "only-one" ]);
              ];
            Protocol.request "coverage" [ ("clause", Json.String "not a clause") ];
            Protocol.request "query" [];
            update_req "nope" 0 [ "tt1"; "drama" ];
            update_req "imdb_movies" 1_000_000 [ "tt1"; "T (2000)"; "y2000" ];
            update_req "imdb_movies" 0 [ "only-one" ];
            Protocol.request "update"
              [
                ("relation", Json.String "imdb_movies");
                ("values", Json.List [ Json.String "tt1"; Json.String "T"; Json.String "y" ]);
              ];
            Json.Obj [];
            Json.List [];
            Json.Obj [ ("op", Json.Int 3) ];
          ];
        let status = ok_exn (Server.handle t (Protocol.request "status" [])) in
        Alcotest.(check (option int)) "no write counted" (Some 0)
          (Json.int_field "version" status));
    Alcotest.test_case "insert commits a version and invalidates" `Quick
      (fun () ->
        let t = Server.create (fresh_workload ()) in
        let resp =
          ok_exn (Server.handle t (insert_req [ "tt9001"; "Superbad (2007)"; "y2007" ]))
        in
        Alcotest.(check (option int)) "version 1" (Some 1)
          (Json.int_field "version" resp);
        Alcotest.(check bool) "invalidation reported" true
          (Json.int_field "invalidated" resp <> None);
        let rows =
          ok_exn
            (Server.handle t
               (Protocol.request "query"
                  [
                    ("clause", Json.String "q(x) <- imdb_movies(x, t, y)");
                    ("limit", Json.Int 1000);
                  ]))
        in
        match Json.list_field "rows" rows with
        | Some l ->
            Alcotest.(check bool) "query sees the insert" true
              (List.exists
                 (fun row -> row = Json.List [ Json.String "tt9001" ])
                 l)
        | None -> Alcotest.fail "no rows");
    Alcotest.test_case "warm learn equals cold learn after a delta" `Quick
      (fun () ->
        (* The acceptance pin: commit a delta into the warm state, learn,
           and compare against a cold server built over a database that
           already contains the delta — definitions must be identical. *)
        let extra = [ "tt9002"; "Orphanage (2007)"; "y2007" ] in
        let learn_req =
          Protocol.request "learn" [ ("pos", Json.Int 6); ("neg", Json.Int 10) ]
        in
        let warm = Server.create (fresh_workload ()) in
        ignore (ok_exn (Server.handle warm learn_req));
        ignore (ok_exn (Server.handle warm (insert_req extra)));
        let warm_clauses =
          clauses_of (ok_exn (Server.handle warm learn_req))
        in
        let cold_w = fresh_workload () in
        ignore
          (Relation.insert
             (Database.find cold_w.Workload.db "imdb_movies")
             (Tuple.of_strings extra));
        let cold = Server.create cold_w in
        let cold_clauses =
          clauses_of (ok_exn (Server.handle cold learn_req))
        in
        Alcotest.(check (list string)) "identical definitions" cold_clauses
          warm_clauses);
    Alcotest.test_case "warm coverage equals cold after updates" `Quick
      (fun () ->
        (* An update must invalidate through its previous tuple too: the
           new values are novel, so only the row they replace can reach
           a cached bottom clause. *)
        let novel = [ "tt99999"; "zzgenre" ] in
        for id = 0 to 11 do
          let warm = Server.create (fresh_workload ()) in
          ignore (ok_exn (Server.handle warm coverage_req));
          let resp =
            ok_exn (Server.handle warm (update_req "imdb_mov2genres" id novel))
          in
          Alcotest.(check (option int)) "version 1" (Some 1)
            (Json.int_field "version" resp);
          let cold_w = fresh_workload () in
          let db = cold_w.Workload.db in
          Database.replace_relation db
            (Relation.with_tuple
               (Database.find db "imdb_mov2genres")
               id (Tuple.of_strings novel));
          Alcotest.(check (pair int int))
            (Printf.sprintf "row %d" id)
            (cold_counts cold_w)
            (coverage_counts (ok_exn (Server.handle warm coverage_req)))
        done);
    Alcotest.test_case "update commits a version and invalidates" `Quick
      (fun () ->
        let w = fresh_workload () in
        let t = Server.create w in
        ignore (ok_exn (Server.handle t coverage_req));
        let movies () = Database.find w.Workload.db "imdb_movies" in
        let size = Relation.cardinality (movies ()) in
        let old_id = Tuple.get (Relation.get (movies ()) 0) 0 in
        let indexed v = List.length (Relation.select_eq (movies ()) 0 v) in
        let old_count = indexed old_id in
        let updated = [ "tt99991"; "Renamed (2001)"; "y2001" ] in
        let resp =
          ok_exn (Server.handle t (update_req "imdb_movies" 0 updated))
        in
        Alcotest.(check (option int)) "version 1" (Some 1)
          (Json.int_field "version" resp);
        Alcotest.(check bool) "invalidation reported" true
          (Json.int_field "invalidated" resp <> None);
        Alcotest.(check bool) "row replaced" true
          (Tuple.equal (Relation.get (movies ()) 0) (Tuple.of_strings updated));
        Alcotest.(check int) "cardinality kept" size
          (Relation.cardinality (movies ()));
        Alcotest.(check int) "old id indexed once less" (old_count - 1)
          (indexed old_id);
        let rows =
          ok_exn
            (Server.handle t
               (Protocol.request "query"
                  [
                    ("clause", Json.String "q(x) <- imdb_movies(x, t, y)");
                    ("limit", Json.Int 1000);
                  ]))
        in
        match Json.list_field "rows" rows with
        | Some l ->
            Alcotest.(check bool) "query sees the update" true
              (List.mem (Json.List [ Json.String "tt99991" ]) l)
        | None -> Alcotest.fail "no rows");
    Alcotest.test_case "version counts writes, not requests" `Quick (fun () ->
        let t = Server.create (fresh_workload ()) in
        let version req =
          Json.int_field "version" (ok_exn (Server.handle t req))
        in
        let status = Protocol.request "status" [] in
        Alcotest.(check (option int)) "insert" (Some 1)
          (version (insert_req [ "tt9003"; "Zoolander (2001)"; "y2001" ]));
        ignore
          (Server.handle t
             (update_req "imdb_movies" 1_000_000 [ "tt1"; "T (2000)"; "y2000" ]));
        ignore (ok_exn (Server.handle t coverage_req));
        Alcotest.(check (option int)) "reads and rejected writes" (Some 1)
          (version status);
        Alcotest.(check (option int)) "update" (Some 2)
          (version (update_req "imdb_mov2genres" 0 [ "tt99999"; "zzgenre" ]));
        Alcotest.(check (option int)) "insert after update" (Some 3)
          (version (insert_req [ "tt9004"; "Superbad (2007)"; "y2007" ]));
        Alcotest.(check (option int)) "status" (Some 3) (version status));
    Alcotest.test_case "rejected writes leave the data as it was" `Quick
      (fun () ->
        let w = fresh_workload () in
        let t = Server.create w in
        let dump () =
          List.map
            (fun r -> (Relation.name r, Relation.to_list r))
            (Database.relations w.Workload.db)
        in
        let before = dump () in
        List.iter
          (fun req ->
            Alcotest.(check bool) "rejected" false
              (Protocol.is_ok (Server.handle t req)))
          [
            Protocol.request "insert" [ ("relation", Json.String "imdb_movies") ];
            Protocol.request "insert"
              [
                ("relation", Json.String "imdb_movies");
                ("values", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
              ];
            update_req "imdb_movies" (-1) [ "tt1"; "T (2000)"; "y2000" ];
            update_req "imdb_mov2genres" 0 [ "tt1"; "drama"; "extra" ];
            update_req "imdb_mov2genres" 1_000_000 [ "tt1"; "drama" ];
          ];
        let after = dump () in
        Alcotest.(check (list string)) "relations" (List.map fst before)
          (List.map fst after);
        List.iter2
          (fun (name, b) (_, a) ->
            Alcotest.(check bool) name true (List.equal Tuple.equal b a))
          before after);
    Alcotest.test_case "concurrent writes serialize, reads see whole writes"
      `Quick (fun () ->
        (* Every write inserts one tuple, so a status that saw a write
           half applied would report a tuple count off its version. *)
        let t = Server.create (fresh_workload ()) in
        let status () = ok_exn (Server.handle t (Protocol.request "status" [])) in
        let base =
          match Json.int_field "tuples" (status ()) with
          | Some n -> n
          | None -> Alcotest.fail "no tuple count"
        in
        let writers = 3 and per_writer = 10 in
        let versions = Array.make (writers * per_writer) None in
        let writer w () =
          for i = 0 to per_writer - 1 do
            let resp =
              Server.handle t
                (insert_req
                   [ Printf.sprintf "tt8%d%02d" w i; "Superbad (2007)"; "y2007" ])
            in
            versions.((w * per_writer) + i) <- Json.int_field "version" resp;
            Thread.yield ()
          done
        in
        let reads = ref [] in
        let reader () =
          for _ = 1 to writers * per_writer do
            let s = Server.handle t (Protocol.request "status" []) in
            reads :=
              (Json.int_field "version" s, Json.int_field "tuples" s) :: !reads;
            Thread.yield ()
          done
        in
        List.iter Thread.join
          (Thread.create reader ()
          :: List.init writers (fun w -> Thread.create (writer w) ()));
        Alcotest.(check (list (option int))) "one version per write"
          (List.init (writers * per_writer) (fun i -> Some (i + 1)))
          (List.sort compare (Array.to_list versions));
        List.iter
          (function
            | Some v, Some n ->
                Alcotest.(check int) "tuples match version" (base + v) n
            | _ -> Alcotest.fail "status failed")
          !reads;
        Alcotest.(check (option int)) "final version"
          (Some (writers * per_writer))
          (Json.int_field "version" (status ())));
    Alcotest.test_case "socket loop serves and shuts down cleanly" `Quick
      (fun () ->
        let t = Server.create (fresh_workload ()) in
        let dir = Filename.temp_file "dlearn_serve" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let path = Filename.concat dir "s.sock" in
        let server = Thread.create (fun () -> Server.run t ~socket_path:path) () in
        Fun.protect
          ~finally:(fun () ->
            Thread.join server;
            if Sys.file_exists path then Sys.remove path;
            Sys.rmdir dir)
          (fun () ->
            let c = Client.connect_retry path in
            let pong = Client.request c (Protocol.request "ping" []) in
            Alcotest.(check bool) "pong over socket" true (Protocol.is_ok pong);
            let bye = Client.request c (Protocol.request "shutdown" []) in
            Alcotest.(check bool) "shutdown acknowledged" true
              (Protocol.is_ok bye);
            Client.close c));
    Alcotest.test_case "a client hanging up costs only its connection"
      `Quick (fun () ->
        let t = Server.create (fresh_workload ()) in
        let dir = Filename.temp_file "dlearn_serve" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let path = Filename.concat dir "s.sock" in
        let errors = Dlearn_obs.Obs.counter "serve.errors" in
        let before = Dlearn_obs.Obs.value errors in
        let server = Thread.create (fun () -> Server.run t ~socket_path:path) () in
        Fun.protect
          ~finally:(fun () ->
            Server.stop t;
            Thread.join server;
            if Sys.file_exists path then Sys.remove path;
            Sys.rmdir dir)
          (fun () ->
            Client.close (Client.connect_retry path);
            (* Send a learn and close before the reply: the server's write
               of that reply fails. *)
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            Protocol.write_json fd
              (Protocol.request "learn" [ ("pos", Json.Int 4); ("neg", Json.Int 4) ]);
            Unix.close fd;
            let rec await n =
              if Dlearn_obs.Obs.value errors = before && n > 0 then begin
                Thread.delay 0.05;
                await (n - 1)
              end
            in
            await 1200;
            Alcotest.(check int) "the hang-up is one error" 1
              (Dlearn_obs.Obs.value errors - before);
            let c = Client.connect path in
            let status = Client.request c (Protocol.request "status" []) in
            Client.close c;
            Alcotest.(check bool) "a fresh client is served" true
              (Protocol.is_ok status)));
    Alcotest.test_case "a warm relearn with no write normalizes nothing"
      `Quick (fun () ->
        (* Nor does it compute an ARMG: the replayed climb's candidates
           all come from the ground entries' ARMG memos. *)
        let normalized = Dlearn_obs.Obs.counter "normalize.clauses" in
        let computed = Dlearn_obs.Obs.counter "armg.computed" in
        let learn_req =
          Protocol.request "learn" [ ("pos", Json.Int 6); ("neg", Json.Int 10) ]
        in
        let t = Server.create (fresh_workload ()) in
        let first = clauses_of (ok_exn (Server.handle t learn_req)) in
        let before = Dlearn_obs.Obs.value normalized in
        let armg_before = Dlearn_obs.Obs.value computed in
        let again = clauses_of (ok_exn (Server.handle t learn_req)) in
        Alcotest.(check int) "no normalization" 0
          (Dlearn_obs.Obs.value normalized - before);
        Alcotest.(check int) "no ARMG computed" 0
          (Dlearn_obs.Obs.value computed - armg_before);
        Alcotest.(check (list string)) "same definition" first again);
    Alcotest.test_case "concurrent cold reads finish" `Quick (fun () ->
        (* Reads on a cold server ground the same examples at once, and
           every batch fans out: a request computing an example's ground
           entry submits a nested batch while another request's batch is
           in flight, with one of its chunks waiting for that entry. Had
           the pool made that request wait, neither would finish. *)
        let module Pool = Dlearn_parallel.Pool in
        let learn_req =
          Protocol.request "learn" [ ("pos", Json.Int 4); ("neg", Json.Int 4) ]
        in
        let reqs = [ coverage_req; learn_req; coverage_req; learn_req ] in
        Pool.set_cost_model ~fanout_threshold:0 ~min_chunk:0 ();
        Fun.protect ~finally:Pool.reset_cost_model (fun () ->
            for _ = 1 to 4 do
              let t = Server.create (fresh_workload ~jobs:4 ()) in
              let resps = Array.make (List.length reqs) None in
              List.mapi
                (fun i req ->
                  Thread.create
                    (fun () -> resps.(i) <- Some (Server.handle t req))
                    ())
                reqs
              |> List.iter Thread.join;
              Array.iter
                (function
                  | Some resp -> ignore (ok_exn resp)
                  | None -> Alcotest.fail "no response")
                resps
            done));
  ]

(* {2 The interleaving property}

   For a generated sequence of inserts: drive them through one warm
   server state, reading coverage after every commit, at 2, 4 and 8
   domains — and compare every verdict pair against a cold sequential
   replay that rebuilds a fresh context per step. Any stale verdict the
   monotone invalidation failed to drop shows up as a mismatch. *)

let movie_gen =
  QCheck.Gen.(
    let* id = map (Printf.sprintf "tt90%02d") (0 -- 99) in
    let* title =
      oneofl
        [
          "Superbad (2007)";
          "Superbad (2008)";
          "Zoolander (2001)";
          "Zoolandr (2001)";
          "Orphanage (2007)";
          "Unrelated Film (1999)";
        ]
    in
    let* year = map (Printf.sprintf "y%d") (1999 -- 2010) in
    return [ id; title; year ])

let inserts_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map (String.concat ",") l))
    QCheck.Gen.(list_size (1 -- 2) movie_gen)

(* The property's workload: a reduced example universe keeps the cold
   replays (one fresh context per step per domain count) affordable. *)
let prop_workload ?(jobs = 1) () =
  Workload.with_examples (fresh_workload ~jobs ()) ~pos:4 ~neg:4 ~seed:0

let cold_coverage inserts =
  (* Sequential replay: after each insert, a fresh context over a fresh
     database copy answers the same coverage question from scratch. *)
  List.mapi
    (fun i _ ->
      let w = prop_workload () in
      let r = Database.find w.Workload.db "imdb_movies" in
      List.iteri
        (fun j values ->
          if j <= i then ignore (Relation.insert r (Tuple.of_strings values)))
        inserts;
      cold_counts w)
    inserts

let warm_coverage ~jobs inserts =
  let t = Server.create (prop_workload ~jobs ()) in
  (* Prime the caches so the interleaving actually exercises
     invalidation, not first-touch computation. *)
  ignore (ok_exn (Server.handle t coverage_req));
  List.map
    (fun values ->
      ignore (ok_exn (Server.handle t (insert_req values)));
      coverage_counts (ok_exn (Server.handle t coverage_req)))
    inserts

let interleaving_prop inserts =
  let expected = cold_coverage inserts in
  List.for_all
    (fun jobs -> warm_coverage ~jobs inserts = expected)
    [ 2; 4; 8 ]

(* The same contract with updates in the mix. An update rewrites an
   [imdb_mov2genres] row of one of the property's examples, keeping its
   movie or moving it to a novel one — the case where only the previous
   tuple reaches the cached bottom clauses. *)
type write = Insert of string list | Update of int * string option * string

let example_rows =
  lazy
    (let w = prop_workload () in
     let ids =
       List.map (fun e -> Tuple.get e 0) (w.Workload.pos @ w.Workload.neg)
     in
     let r = Database.find w.Workload.db "imdb_mov2genres" in
     List.rev
       (Relation.fold
          (fun id tu acc ->
            if List.exists (Value.equal (Tuple.get tu 0)) ids then id :: acc
            else acc)
          r []))

let write_gen =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun m -> Insert m) movie_gen);
        ( 2,
          let* row = delay (fun () -> oneofl (Lazy.force example_rows)) in
          let* movie = opt (return "tt99999") in
          let* genre = oneofl [ "drama"; "zzgenre" ] in
          return (Update (row, movie, genre)) );
      ])

let writes_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat "; "
        (List.map
           (function
             | Insert m -> "insert " ^ String.concat "," m
             | Update (row, movie, genre) ->
                 Printf.sprintf "update %d %s,%s" row
                   (Option.value movie ~default:"(kept)")
                   genre)
           l))
    QCheck.Gen.(list_size (1 -- 3) write_gen)

(* The values an update writes, read from [db] as the write finds it. *)
let update_values db row movie genre =
  let current = Relation.get (Database.find db "imdb_mov2genres") row in
  [
    (match movie with
    | Some m -> m
    | None -> Value.to_string (Tuple.get current 0));
    genre;
  ]

let apply_cold db = function
  | Insert m ->
      ignore
        (Relation.insert (Database.find db "imdb_movies") (Tuple.of_strings m))
  | Update (row, movie, genre) ->
      let values = update_values db row movie genre in
      Database.replace_relation db
        (Relation.with_tuple
           (Database.find db "imdb_mov2genres")
           row (Tuple.of_strings values))

let cold_writes writes =
  List.mapi
    (fun i _ ->
      let w = prop_workload () in
      List.iteri (fun j op -> if j <= i then apply_cold w.Workload.db op) writes;
      cold_counts w)
    writes

let warm_writes ~jobs writes =
  let w = prop_workload ~jobs () in
  let t = Server.create w in
  ignore (ok_exn (Server.handle t coverage_req));
  List.map
    (fun op ->
      let req =
        match op with
        | Insert m -> insert_req m
        | Update (row, movie, genre) ->
            update_req "imdb_mov2genres" row
              (update_values w.Workload.db row movie genre)
      in
      ignore (ok_exn (Server.handle t req));
      coverage_counts (ok_exn (Server.handle t coverage_req)))
    writes

let writes_prop writes =
  let expected = cold_writes writes in
  List.for_all (fun jobs -> warm_writes ~jobs writes = expected) [ 2; 4; 8 ]

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"interleaved commits + coverage match sequential replay"
         ~count:3 inserts_arb interleaving_prop);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"interleaved updates + coverage match sequential replay"
         ~count:3 writes_arb writes_prop);
  ]

let () =
  Alcotest.run "serve"
    [
      ("json", json_tests);
      ("protocol", protocol_tests);
      ("server", server_tests);
      ("interleaving", qcheck_tests);
    ]
