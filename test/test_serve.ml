(* The serve layer: JSON codec, frame protocol, and the warm server
   state driven in-process (the socket loop itself gets one end-to-end
   case; CI exercises it again through the real binary). The heart of
   the file is the interleaving property: commits into the warm state
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
        List.iter
          (fun req ->
            Alcotest.(check bool) "ok:false" false
              (Protocol.is_ok (Server.handle t req)))
          [
            Protocol.request "insert" [ ("relation", Json.String "nope") ];
            Protocol.request "insert"
              [
                ("relation", Json.String "imdb_movies");
                ("values", Json.List [ Json.String "only-one" ]);
              ];
            Protocol.request "coverage" [ ("clause", Json.String "not a clause") ];
            Protocol.request "query" [];
          ]);
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
  let clause =
    match Dlearn_logic.Parser.clause test_clause with
    | Ok c -> c
    | Error msg -> Alcotest.failf "clause: %s" msg
  in
  List.mapi
    (fun i _ ->
      let w = prop_workload () in
      let r = Database.find w.Workload.db "imdb_movies" in
      List.iteri
        (fun j values ->
          if j <= i then ignore (Relation.insert r (Tuple.of_strings values)))
        inserts;
      let ctx =
        Dlearn_core.Context.create w.Workload.config w.Workload.db
          w.Workload.mds w.Workload.cfds
      in
      let prepared = Dlearn_core.Coverage.prepare ctx clause in
      Dlearn_core.Coverage.coverage ctx prepared ~pos:w.Workload.pos
        ~neg:w.Workload.neg)
    inserts

let warm_coverage ~jobs inserts =
  let t = Server.create (prop_workload ~jobs ()) in
  (* Prime the caches so the interleaving actually exercises
     invalidation, not first-touch computation. *)
  ignore
    (ok_exn
       (Server.handle t
          (Protocol.request "coverage" [ ("clause", Json.String test_clause) ])));
  List.map
    (fun values ->
      ignore (ok_exn (Server.handle t (insert_req values)));
      coverage_counts
        (ok_exn
           (Server.handle t
              (Protocol.request "coverage"
                 [ ("clause", Json.String test_clause) ]))))
    inserts

let interleaving_prop inserts =
  let expected = cold_coverage inserts in
  List.for_all
    (fun jobs -> warm_coverage ~jobs inserts = expected)
    [ 2; 4; 8 ]

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"interleaved commits + coverage match sequential replay"
         ~count:3 inserts_arb interleaving_prop);
  ]

let () =
  Alcotest.run "serve"
    [
      ("json", json_tests);
      ("protocol", protocol_tests);
      ("server", server_tests);
      ("interleaving", qcheck_tests);
    ]
