open Dlearn_relation
open Dlearn_logic
open Dlearn_query

let v = Term.var
let s = Term.str
let rel = Literal.rel

let movie_db () =
  let db = Database.create () in
  let movies =
    Database.create_relation db
      (Schema.string_attrs "movies" [ "id"; "title"; "year" ])
  in
  Relation.insert_all movies
    [
      Tuple.of_strings [ "m1"; "Superbad (2007)"; "2007" ];
      Tuple.of_strings [ "m2"; "Zoolander (2001)"; "2001" ];
      Tuple.of_strings [ "m3"; "The Orphanage (2007)"; "2007" ];
    ];
  let genres =
    Database.create_relation db (Schema.string_attrs "genres" [ "id"; "genre" ])
  in
  Relation.insert_all genres
    [
      Tuple.of_strings [ "m1"; "comedy" ];
      Tuple.of_strings [ "m2"; "comedy" ];
      Tuple.of_strings [ "m3"; "drama" ];
    ];
  let ratings =
    Database.create_relation db
      (Schema.string_attrs "ratings" [ "title"; "rating" ])
  in
  Relation.insert_all ratings
    [
      Tuple.of_strings [ "Superbad [2007]"; "R" ];
      Tuple.of_strings [ "Zoolander [2001]"; "PG-13" ];
      Tuple.of_strings [ "The Orphanage [2007]"; "R" ];
    ];
  db

let oracle =
  Conjunctive.oracle_of_spec
    { Dlearn_constraints.Md.default_sim with Dlearn_constraints.Md.threshold = 0.7 }

let answers_of q = Conjunctive.answers (movie_db ()) oracle (Parser.clause_exn q)

let eval_tests =
  [
    Alcotest.test_case "single-atom projection" `Quick (fun () ->
        let rows = answers_of "q(x) <- movies(x, t, y)" in
        Alcotest.(check int) "3 ids" 3 (List.length rows));
    Alcotest.test_case "join on shared variable" `Quick (fun () ->
        let rows = answers_of "q(x) <- movies(x, t, y), genres(x, \"comedy\")" in
        Alcotest.(check int) "2 comedies" 2 (List.length rows));
    Alcotest.test_case "constants select" `Quick (fun () ->
        let rows = answers_of "q(t) <- movies(\"m3\", t, y)" in
        (match rows with
        | [ row ] ->
            Alcotest.(check string) "title" "(The Orphanage (2007))"
              (Tuple.to_string row)
        | _ -> Alcotest.fail "expected exactly one answer"));
    Alcotest.test_case "similarity join crosses formats" `Quick (fun () ->
        let rows =
          answers_of
            "q(x) <- movies(x, t, y), ratings(t2, \"R\"), t ~ t2"
        in
        Alcotest.(check int) "2 R-rated" 2 (List.length rows));
    Alcotest.test_case "equality literal filters" `Quick (fun () ->
        let rows = answers_of "q(x) <- movies(x, t, y), y = 2007" in
        Alcotest.(check int) "2 from 2007" 2 (List.length rows));
    Alcotest.test_case "inequality literal filters" `Quick (fun () ->
        let rows = answers_of "q(x) <- movies(x, t, y), y != 2007" in
        Alcotest.(check int) "1 not from 2007" 1 (List.length rows));
    Alcotest.test_case "one-sided equality propagates" `Quick (fun () ->
        let rows = answers_of "q(g) <- g = \"drama\", genres(x, g)" in
        Alcotest.(check int) "1 binding" 1 (List.length rows));
    Alcotest.test_case "entails binds the head to the example" `Quick (fun () ->
        let c =
          Parser.clause_exn
            "restricted(x) <- movies(x, t, y), ratings(t2, \"R\"), t ~ t2"
        in
        let db = movie_db () in
        Alcotest.(check bool) "m1 entailed" true
          (Conjunctive.entails db oracle c (Tuple.of_strings [ "m1" ]));
        Alcotest.(check bool) "m2 not entailed" false
          (Conjunctive.entails db oracle c (Tuple.of_strings [ "m2" ])));
    Alcotest.test_case "limit caps the answers" `Quick (fun () ->
        let rows =
          Conjunctive.answers ~limit:2 (movie_db ()) oracle
            (Parser.clause_exn "q(x) <- movies(x, t, y)")
        in
        Alcotest.(check int) "2 answers" 2 (List.length rows));
    Alcotest.test_case "unknown relation rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (answers_of "q(x) <- nothere(x)");
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "repair literals rejected" `Quick (fun () ->
        let c =
          Clause.make
            ~head:(rel "q" [ v "x" ])
            [
              rel "movies" [ v "x"; v "t"; v "y" ];
              Literal.Repair
                {
                  origin = Literal.From_md "m";
                  group = 0;
                  cond = [];
                  subject = v "t";
                  replacement = v "r";
                  drops = [];
                };
            ]
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Conjunctive.answers (movie_db ()) oracle c);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "non-range-restricted sim yields nothing" `Quick
      (fun () ->
        let rows = answers_of "q(x) <- movies(x, t, y), t ~ z" in
        Alcotest.(check int) "no answers" 0 (List.length rows));
  ]

let parser_tests =
  [
    Alcotest.test_case "parses the full literal zoo" `Quick (fun () ->
        let c =
          Parser.clause_exn
            "h(x, \"k\") <- p(x, y), q(y, 3), x ~ y, y = \"a\", x != y"
        in
        Alcotest.(check int) "5 body literals" 5 (Clause.body_size c));
    Alcotest.test_case "fact with no body" `Quick (fun () ->
        let c = Parser.clause_exn "h(x)" in
        Alcotest.(check int) "empty body" 0 (Clause.body_size c));
    Alcotest.test_case "empty body marker" `Quick (fun () ->
        let c = Parser.clause_exn "h(x) <- true" in
        Alcotest.(check int) "empty body" 0 (Clause.body_size c));
    Alcotest.test_case ":- works like <-" `Quick (fun () ->
        Alcotest.(check bool) "equal" true
          (Clause.equal
             (Parser.clause_exn "h(x) :- p(x)")
             (Parser.clause_exn "h(x) <- p(x)")));
    Alcotest.test_case "numbers parse as numeric constants" `Quick (fun () ->
        let c = Parser.clause_exn "h(x) <- p(x, 42)" in
        match c.Clause.body with
        | [ Literal.Rel { args; _ } ] ->
            Alcotest.(check bool) "Int 42" true
              (Term.equal args.(1) (Term.Const (Value.Int 42)))
        | _ -> Alcotest.fail "unexpected body");
    Alcotest.test_case "string escapes" `Quick (fun () ->
        let c = Parser.clause_exn {|h(x) <- p(x, "say \"hi\"")|} in
        match c.Clause.body with
        | [ Literal.Rel { args; _ } ] ->
            Alcotest.(check bool) "escaped" true
              (Term.equal args.(1) (Term.Const (Value.String {|say "hi"|})))
        | _ -> Alcotest.fail "unexpected body");
    Alcotest.test_case "errors are reported, not raised" `Quick (fun () ->
        List.iter
          (fun input ->
            match Parser.clause input with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "expected a parse error for %S" input)
          [ ""; "h("; "h(x) <- "; "h(x) p(y)"; "h(x) <- p(x,)"; "h(x) <- x" ]);
    Alcotest.test_case "round-trips the printer" `Quick (fun () ->
        List.iter
          (fun input ->
            let c = Parser.clause_exn input in
            let reparsed = Parser.clause_exn (Clause.to_string c) in
            Alcotest.(check bool) ("round trip " ^ input) true
              (Clause.equal c reparsed))
          [
            "h(x) <- p(x, y), q(y, \"k\")";
            "h(x, y) <- p(x, z), z ~ y, x != z";
            "h(x) <- p(x, 7), q(x, -3)";
          ]);
  ]

(* Parse ∘ print round-trip on random repair-free clauses. *)
let qcheck_tests =
  let clause_gen =
    let open QCheck.Gen in
    let var = map (fun c -> Term.var (String.make 1 c)) (char_range 'x' 'z') in
    let const = map (fun c -> s (String.make 1 c)) (char_range 'a' 'e') in
    let term = oneof [ var; const ] in
    let lit =
      oneof
        [
          map2 (fun a b -> rel "p" [ a; b ]) term term;
          map (fun a -> rel "q" [ a ]) term;
          map2 (fun a b -> Literal.Sim (a, b)) term term;
          map2 (fun a b -> Literal.Eq (a, b)) term term;
          map2 (fun a b -> Literal.Neq (a, b)) term term;
        ]
    in
    let* body = list_size (0 -- 6) lit in
    let* harg = term in
    return (Clause.make ~head:(rel "h" [ harg ]) body)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"parser round-trips the printer" ~count:300
         (QCheck.make ~print:Clause.to_string clause_gen) (fun c ->
           match Parser.clause (Clause.to_string c) with
           | Ok c' -> Clause.equal c c'
           | Error _ -> false));
  ]

(* Cross-check: on repair-free clauses, direct query evaluation agrees
   with the subsumption-based coverage of the learning engine. *)
let cross_check_tests =
  [
    Alcotest.test_case "query evaluation agrees with subsumption coverage"
      `Quick (fun () ->
        let open Dlearn_core in
        let db = movie_db () in
        let md =
          Dlearn_constraints.Md.make ~id:"t" ~left:"movies" ~right:"ratings"
            ~compared:[ ("title", "title") ] ~unified:("title", "title") ()
        in
        let target = Schema.string_attrs "restricted" [ "id" ] in
        let config =
          {
            (Config.default ~target) with
            Config.constant_attrs = [ ("ratings", "rating"); ("genres", "genre") ];
            sim =
              {
                Dlearn_constraints.Md.default_sim with
                Dlearn_constraints.Md.threshold = 0.7;
              };
          }
        in
        let ctx = Context.create config db [ md ] [] in
        let clause =
          Parser.clause_exn
            "restricted(x) <- movies(x, t, y), ratings(t2, \"R\"), t ~ t2"
        in
        let prep = Coverage.prepare ctx clause in
        List.iter
          (fun id ->
            let e = Tuple.of_strings [ id ] in
            Alcotest.(check bool) ("agree on " ^ id)
              (Conjunctive.entails db oracle clause e)
              (Coverage.covers_positive ctx prep e))
          [ "m1"; "m2"; "m3" ]);
  ]


(* The ultimate semantic cross-check: Definition 3.4 coverage decided by
   the subsumption machinery must agree with literally materialising the
   stable instances and evaluating each repaired clause over each (the
   approach the paper argues is infeasible at scale — at toy scale it is
   the ground truth). *)
let materialized_tests =
  [
    Alcotest.test_case "subsumption coverage = materialise-and-query" `Quick
      (fun () ->
        let open Dlearn_core in
        let open Dlearn_constraints in
        let db = movie_db () in
        let md =
          Md.make ~id:"t" ~left:"movies" ~right:"ratings"
            ~compared:[ ("title", "title") ] ~unified:("title", "title") ()
        in
        let sim_spec = { Md.default_sim with Md.threshold = 0.7 } in
        let target = Schema.string_attrs "restricted" [ "id" ] in
        let config =
          {
            (Config.default ~target) with
            Config.constant_attrs = [ ("ratings", "rating"); ("genres", "genre") ];
            sim = sim_spec;
          }
        in
        let ctx = Context.create config db [ md ] [] in
        let clause =
          Parser.clause_exn
            "restricted(x) <- movies(x, t, y), ratings(t2, \"R\"), t ~ t2"
        in
        let prep = Coverage.prepare ctx clause in
        let instances = Stable_instance.stable_instances ~sim:sim_spec db [ md ] in
        Alcotest.(check bool) "at least one stable instance" true
          (instances <> []);
        (* Repaired clauses of a repair-free clause: itself; evaluate over
           every stable instance. Merged values are equal on both sides of
           the similarity literal, so the equality oracle suffices. *)
        let crs = Dlearn_parallel.Memo.force prep.Coverage.repairs in
        List.iter
          (fun id ->
            let e = Tuple.of_strings [ id ] in
            let materialized =
              List.for_all
                (fun cr ->
                  List.exists
                    (fun inst -> Conjunctive.entails inst oracle cr e)
                    instances)
                crs
            in
            Alcotest.(check bool)
              ("agree on " ^ id)
              materialized
              (Coverage.covers_positive ctx prep e))
          [ "m1"; "m2"; "m3" ]);
  ]

let () =
  Alcotest.run "query"
    [
      ("conjunctive", eval_tests);
      ("parser", parser_tests);
      ("cross_check", cross_check_tests);
      ("materialized", materialized_tests);
      ("properties", qcheck_tests);
    ]
