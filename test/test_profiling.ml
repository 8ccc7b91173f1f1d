open Dlearn_relation
open Dlearn_profiling

let locale_relation () =
  let r =
    Relation.create
      (Schema.string_attrs "locale" [ "title"; "language"; "country" ])
  in
  Relation.insert_all r
    [
      Tuple.of_strings [ "Bait"; "English"; "USA" ];
      Tuple.of_strings [ "Bait"; "English"; "USA" ];
      Tuple.of_strings [ "Roma"; "Spanish"; "Mexico" ];
      Tuple.of_strings [ "Lore"; "German"; "Germany" ];
      Tuple.of_strings [ "Nola"; "English"; "USA" ];
    ];
  r

let fd_tests =
  [
    Alcotest.test_case "holds on a key" `Quick (fun () ->
        let r = locale_relation () in
        Alcotest.(check bool) "title -> country" true
          (Fd_discovery.holds r [ "title" ] "country");
        Alcotest.(check bool) "language -> country" true
          (Fd_discovery.holds r [ "language" ] "country"));
    Alcotest.test_case "detects a violated FD" `Quick (fun () ->
        let r = locale_relation () in
        ignore (Relation.insert r (Tuple.of_strings [ "Bait"; "English"; "Ireland" ]));
        Alcotest.(check bool) "title -> country now fails" false
          (Fd_discovery.holds r [ "title" ] "country"));
    Alcotest.test_case "discover finds minimal FDs only" `Quick (fun () ->
        let r = locale_relation () in
        let fds = Fd_discovery.discover ~max_lhs:2 r in
        Alcotest.(check bool) "title -> language found" true
          (List.exists
             (fun f ->
               f.Fd_discovery.lhs = [ "title" ] && f.Fd_discovery.rhs = "language")
             fds);
        (* (title, language) -> country must be subsumed by title -> country. *)
        Alcotest.(check bool) "no non-minimal lhs over title" false
          (List.exists
             (fun f ->
               List.mem "title" f.Fd_discovery.lhs
               && List.length f.Fd_discovery.lhs = 2
               && f.Fd_discovery.rhs = "country")
             fds));
    Alcotest.test_case "discovered FDs hold" `Quick (fun () ->
        let r = locale_relation () in
        List.iter
          (fun f ->
            Alcotest.(check bool) "holds" true
              (Fd_discovery.holds r f.Fd_discovery.lhs f.Fd_discovery.rhs))
          (Fd_discovery.discover r));
    Alcotest.test_case "to_cfd round-trips through violation checking" `Quick
      (fun () ->
        let r = locale_relation () in
        let fds = Fd_discovery.discover ~max_lhs:1 r in
        List.iter
          (fun f ->
            let cfd = Fd_discovery.to_cfd ~id:"t" "locale" f in
            Alcotest.(check (list (pair int int))) "no violations" []
              (Dlearn_constraints.Violation.find cfd r))
          fds);
  ]

let md_tests =
  [
    Alcotest.test_case "stats on matching columns" `Quick (fun () ->
        let left = Relation.create (Schema.string_attrs "l" [ "title" ]) in
        Relation.insert_all left
          [
            Tuple.of_strings [ "Superbad (2007)" ];
            Tuple.of_strings [ "Zoolander (2001)" ];
          ];
        let right = Relation.create (Schema.string_attrs "r" [ "title" ]) in
        Relation.insert_all right
          [
            Tuple.of_strings [ "Superbad [2007]" ];
            Tuple.of_strings [ "Zoolander [2001]" ];
          ];
        let stats = Md_discovery.attribute_stats ~threshold:0.7 left 0 right 0 in
        Alcotest.(check int) "both matched" 2 stats.Md_discovery.matched;
        Alcotest.(check int) "none ambiguous" 0 stats.Md_discovery.ambiguous);
    Alcotest.test_case "discover proposes the title MD" `Quick (fun () ->
        let w = Dlearn_eval.Imdb_omdb.generate ~n:40 `One_md in
        let proposals =
          Md_discovery.discover w.Dlearn_eval.Workload.db "imdb_movies"
            "omdb_movies"
        in
        Alcotest.(check bool) "title~title proposed" true
          (List.exists
             (fun ((md : Dlearn_constraints.Md.t), _) ->
               md.Dlearn_constraints.Md.compared = [ ("title", "title") ])
             proposals);
        (* Identifier columns do not match across sources. *)
        Alcotest.(check bool) "id~oid not proposed" false
          (List.exists
             (fun ((md : Dlearn_constraints.Md.t), _) ->
               md.Dlearn_constraints.Md.compared = [ ("id", "oid") ])
             proposals));
    Alcotest.test_case "ambiguity counts multi-matches" `Quick (fun () ->
        let left = Relation.create (Schema.string_attrs "l" [ "t" ]) in
        Relation.insert_all left [ Tuple.of_strings [ "Star Wars Episode" ] ];
        let right = Relation.create (Schema.string_attrs "r" [ "t" ]) in
        Relation.insert_all right
          [
            Tuple.of_strings [ "Star Wars Episode IV" ];
            Tuple.of_strings [ "Star Wars Episode III" ];
          ];
        let stats = Md_discovery.attribute_stats ~threshold:0.6 left 0 right 0 in
        Alcotest.(check int) "ambiguous" 1 stats.Md_discovery.ambiguous);
  ]


(* End-to-end: constraints discovered by profiling are good enough to
   drive the learner — the paper's "provided by users or discovered from
   the data" (§2.2). The full learn over the discovered constraints is
   repair-heavy exhaustive search (~25 s), so it only runs when
   DLEARN_LONG_TESTS=1 — CI keeps the long variant, the default local
   `dune runtest` stays fast. *)
let long_tests_enabled =
  match Sys.getenv_opt "DLEARN_LONG_TESTS" with
  | None -> false
  | Some s ->
      not
        (List.mem
           (String.lowercase_ascii (String.trim s))
           [ ""; "0"; "false"; "off"; "no" ])

let integration_tests =
  if not long_tests_enabled then []
  else
  [
    Alcotest.test_case "discovered constraints support learning" `Slow
      (fun () ->
        let w = Dlearn_eval.Imdb_omdb.generate ~n:40 `One_md in
        let db = w.Dlearn_eval.Workload.db in
        (* Discover the cross-source MD... *)
        let mds =
          Md_discovery.discover ~threshold:0.7 db "imdb_movies" "omdb_movies"
          |> List.map fst
          |> List.filter (fun (md : Dlearn_constraints.Md.t) ->
                 md.Dlearn_constraints.Md.compared = [ ("title", "title") ])
        in
        Alcotest.(check int) "title MD discovered" 1 (List.length mds);
        (* ... and the key FDs of the rating relation. *)
        let rating_fds =
          Fd_discovery.discover ~max_lhs:1
            (Dlearn_relation.Database.find db "omdb_rating")
        in
        Alcotest.(check bool) "oid -> rating found" true
          (List.exists
             (fun f ->
               f.Fd_discovery.lhs = [ "oid" ] && f.Fd_discovery.rhs = "rating")
             rating_fds);
        (* Learn with the discovered MD instead of the curated one. *)
        let open Dlearn_core in
        let ctx =
          Context.create w.Dlearn_eval.Workload.config db mds
            w.Dlearn_eval.Workload.cfds
        in
        let pos = w.Dlearn_eval.Workload.pos in
        let neg = w.Dlearn_eval.Workload.neg in
        let result = Learner.learn ctx ~pos ~neg in
        Alcotest.(check bool) "nonempty definition" false
          (Dlearn_logic.Definition.is_empty result.Learner.definition);
        let covered =
          List.filter (Learner.predictor ctx result.Learner.definition) pos
        in
        Alcotest.(check bool) "covers most positives" true
          (2 * List.length covered >= List.length pos));
  ]

(* Alcotest pads group labels to the longest one in the suite and cuts
   case names to fit the terminal, so the longest label fixes the printed
   name of every long case; [drive_learner] keeps that width at 13
   characters, the width the case names have always been printed at. *)
let () =
  Alcotest.run "profiling"
    [
      ("fd_discovery", fd_tests);
      ("md_discovery", md_tests);
      ("drive_learner", integration_tests);
    ]
