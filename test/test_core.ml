open Dlearn_relation
open Dlearn_constraints
open Dlearn_logic
open Dlearn_core

let sv s = Value.String s

(* A miniature two-source movie task: ratings live in BOM under
   heterogeneous titles; the target marks R-rated movies by IMDB id. *)
let toy_db () =
  let db = Database.create () in
  let movies =
    Database.create_relation db
      (Schema.string_attrs "imdb_movies" [ "id"; "title"; "year" ])
  in
  Relation.insert_all movies
    [
      Tuple.of_strings [ "m1"; "Superbad (2007)"; "y2007" ];
      Tuple.of_strings [ "m2"; "Zoolander (2001)"; "y2001" ];
      Tuple.of_strings [ "m3"; "The Orphanage (2007)"; "y2007" ];
      Tuple.of_strings [ "m4"; "Alien (1979)"; "y1979" ];
    ];
  let genres =
    Database.create_relation db (Schema.string_attrs "imdb_genres" [ "id"; "genre" ])
  in
  Relation.insert_all genres
    [
      Tuple.of_strings [ "m1"; "comedy" ];
      Tuple.of_strings [ "m2"; "comedy" ];
      Tuple.of_strings [ "m3"; "drama" ];
      Tuple.of_strings [ "m4"; "scifi" ];
    ];
  let ratings =
    Database.create_relation db
      (Schema.string_attrs "bom_ratings" [ "title"; "rating" ])
  in
  Relation.insert_all ratings
    [
      Tuple.of_strings [ "Superbad [2007]"; "R" ];
      Tuple.of_strings [ "Zoolander [2001]"; "PG-13" ];
      Tuple.of_strings [ "The Orphanage [2007]"; "R" ];
      Tuple.of_strings [ "Alien [1979]"; "R" ];
    ];
  db

let md_title =
  Md.make ~id:"title_md" ~left:"imdb_movies" ~right:"bom_ratings"
    ~compared:[ ("title", "title") ] ~unified:("title", "title") ()

let target = Schema.string_attrs "restricted" [ "id" ]

let toy_config () =
  {
    (Config.default ~target) with
    Config.constant_attrs =
      [ ("bom_ratings", "rating"); ("imdb_genres", "genre") ];
    (* 0.7 keeps the bracket-format variants similar while excluding the
       spurious same-length pairs the averaged operator lets through at
       0.6 (e.g. "Superbad (2007)" vs "Zoolander [2001]" scores 0.605). *)
    sim = { Md.default_sim with Md.threshold = 0.7 };
    min_pos = 2;
    sample_positives = 4;
  }

let toy_ctx ?(config = toy_config ()) ?(mds = [ md_title ]) ?(cfds = []) () =
  Context.create config (toy_db ()) mds cfds

let ex id = Tuple.of_strings [ id ]
let positives = [ ex "m1"; ex "m3"; ex "m4" ]
let negatives = [ ex "m2" ]

let body_preds (c : Clause.t) =
  List.filter_map
    (function Literal.Rel { pred; _ } -> Some pred | _ -> None)
    c.Clause.body

let count_kind p (c : Clause.t) = List.length (List.filter p c.Clause.body)

let bottom_tests =
  [
    Alcotest.test_case "bottom clause reaches both databases" `Quick (fun () ->
        let ctx = toy_ctx () in
        let c = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let preds = body_preds c in
        Alcotest.(check bool) "imdb_movies" true (List.mem "imdb_movies" preds);
        Alcotest.(check bool) "imdb_genres" true (List.mem "imdb_genres" preds);
        Alcotest.(check bool) "bom_ratings via similarity" true
          (List.mem "bom_ratings" preds));
    Alcotest.test_case "similarity match produces sim + repair group" `Quick
      (fun () ->
        let ctx = toy_ctx () in
        let c = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        Alcotest.(check bool) "has sim literal" true
          (count_kind (function Literal.Sim _ -> true | _ -> false) c > 0);
        let repairs = Clause.repair_body c in
        Alcotest.(check bool) "at least one repair pair" true
          (List.length repairs >= 2);
        List.iter
          (fun l ->
            match l with
            | Literal.Repair { origin = Literal.From_md id; _ } ->
                Alcotest.(check string) "origin" "title_md" id
            | _ -> Alcotest.fail "non-MD repair in MD-only setting")
          repairs);
    Alcotest.test_case "no MDs means no cross-database reach" `Quick (fun () ->
        let ctx = toy_ctx ~mds:[] () in
        let c = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        Alcotest.(check bool) "bom_ratings absent" false
          (List.mem "bom_ratings" (body_preds c)));
    Alcotest.test_case "exact matching finds no heterogeneous match" `Quick
      (fun () ->
        let config = { (toy_config ()) with Config.exact_matching = true } in
        let ctx = toy_ctx ~config () in
        let c = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        Alcotest.(check bool) "bom_ratings absent" false
          (List.mem "bom_ratings" (body_preds c));
        Alcotest.(check int) "no repairs" 0 (List.length (Clause.repair_body c)));
    Alcotest.test_case "constant attributes stay constant" `Quick (fun () ->
        let ctx = toy_ctx () in
        let c = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let rating_arg =
          List.find_map
            (function
              | Literal.Rel { pred = "bom_ratings"; args } -> Some args.(1)
              | _ -> None)
            c.Clause.body
        in
        match rating_arg with
        | Some (Term.Const v) ->
            Alcotest.(check bool) "is R" true (Value.equal v (sv "R"))
        | other ->
            Alcotest.failf "expected constant rating, got %s"
              (match other with
              | Some t -> Term.to_string t
              | None -> "no bom_ratings literal"));
    Alcotest.test_case "ground bottom clause is ground with merged repairs"
      `Quick (fun () ->
        let ctx = toy_ctx () in
        let entry = Coverage.ground ctx (ex "m1") in
        let g = entry.Context.ground in
        Alcotest.(check (list string)) "no variables" [] (Clause.vars g);
        let merged_replacement =
          List.exists
            (function
              | Literal.Repair { replacement = Term.Const v; _ } ->
                  Md.Merge.is_merged v
              | _ -> false)
            g.Clause.body
        in
        Alcotest.(check bool) "merged replacement" true merged_replacement);
    Alcotest.test_case "ground clause is cached" `Quick (fun () ->
        let ctx = toy_ctx () in
        let e1 = Coverage.ground ctx (ex "m1") in
        let e2 = Coverage.ground ctx (ex "m1") in
        Alcotest.(check bool) "same entry" true (e1 == e2));
    Alcotest.test_case "depth 1 reaches less than depth 3" `Quick (fun () ->
        let shallow =
          toy_ctx ~config:{ (toy_config ()) with Config.depth = 1 } ()
        in
        let deep = toy_ctx () in
        let cs = Bottom_clause.build shallow Bottom_clause.Variable (ex "m1") in
        let cd = Bottom_clause.build deep Bottom_clause.Variable (ex "m1") in
        Alcotest.(check bool) "deep has at least as many literals" true
          (Clause.body_size cd >= Clause.body_size cs));
    Alcotest.test_case "sample size caps literals per relation" `Quick
      (fun () ->
        let config = { (toy_config ()) with Config.sample_size = 1 } in
        let ctx = toy_ctx ~config () in
        let c = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let per_rel = Hashtbl.create 4 in
        List.iter
          (fun p ->
            Hashtbl.replace per_rel p
              (1 + Option.value ~default:0 (Hashtbl.find_opt per_rel p)))
          (body_preds c);
        Hashtbl.iter
          (fun p n ->
            Alcotest.(check bool) (p ^ " within cap") true (n <= 1))
          per_rel);
    Alcotest.test_case "MD on target relation is rejected" `Quick (fun () ->
        let bad = Md.symmetric ~id:"bad" "restricted" "imdb_movies" "id" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (toy_ctx ~mds:[ bad ] ());
             false
           with Invalid_argument _ -> true));
  ]

(* The hand-written target clause: R-rated movies via the title match. *)
let hand_clause () =
  let v0 = Term.var "x0" and vt = Term.var "xt" and vy = Term.var "xy" in
  let vt2 = Term.var "xt2" in
  let r0 = Term.var "rr0" and r1 = Term.var "rr1" in
  let sim = Literal.Sim (vt, vt2) in
  let mk_repair subject replacement =
    Literal.Repair
      {
        origin = Literal.From_md "title_md";
        group = 0;
        cond = [ Cond.Csim (vt, vt2) ];
        subject;
        replacement;
        drops = [ sim ];
      }
  in
  Clause.make
    ~head:(Literal.rel "restricted" [ v0 ])
    [
      Literal.rel "imdb_movies" [ v0; vt; vy ];
      Literal.rel "bom_ratings" [ vt2; Term.str "R" ];
      sim;
      mk_repair vt r0;
      mk_repair vt2 r1;
      Literal.Eq (r0, r1);
    ]

let coverage_tests =
  [
    Alcotest.test_case "hand clause covers all positives" `Quick (fun () ->
        let ctx = toy_ctx () in
        let prep = Coverage.prepare ctx (hand_clause ()) in
        List.iter
          (fun e ->
            Alcotest.(check bool)
              ("covers " ^ Tuple.to_string e)
              true
              (Coverage.covers_positive ctx prep e))
          positives);
    Alcotest.test_case "hand clause covers no negative" `Quick (fun () ->
        let ctx = toy_ctx () in
        let prep = Coverage.prepare ctx (hand_clause ()) in
        Alcotest.(check bool) "m2 not covered (positive semantics)" false
          (Coverage.covers_positive ctx prep (ex "m2"));
        Alcotest.(check bool) "m2 not covered (negative semantics)" false
          (Coverage.covers_negative ctx prep (ex "m2")));
    Alcotest.test_case "negative semantics agrees on true positives" `Quick
      (fun () ->
        (* On this toy data the repaired clause also subsumes the repaired
           ground clauses of true positives. *)
        let ctx = toy_ctx () in
        let prep = Coverage.prepare ctx (hand_clause ()) in
        Alcotest.(check bool) "m1 covered as negative-semantics too" true
          (Coverage.covers_negative ctx prep (ex "m1")));
    Alcotest.test_case "too-specific clause covers only its example" `Quick
      (fun () ->
        let ctx = toy_ctx () in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let prep = Coverage.prepare ctx bottom in
        Alcotest.(check bool) "covers own example" true
          (Coverage.covers_positive ctx prep (ex "m1"));
        Alcotest.(check bool) "does not cover m2" false
          (Coverage.covers_positive ctx prep (ex "m2")));
    Alcotest.test_case "coverage counts" `Quick (fun () ->
        let ctx = toy_ctx () in
        let prep = Coverage.prepare ctx (hand_clause ()) in
        let p, n = Coverage.coverage ctx prep ~pos:positives ~neg:negatives in
        Alcotest.(check int) "3 positives" 3 p;
        Alcotest.(check int) "0 negatives" 0 n);
  ]

let generalization_tests =
  [
    Alcotest.test_case "armg drops blocking literals" `Quick (fun () ->
        let ctx = toy_ctx () in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        (* m1 is a comedy; m3 is a drama: the genre literal must go when
           generalising towards m3. *)
        match Generalization.armg ctx bottom (ex "m3") with
        | None -> Alcotest.fail "armg found no head mapping"
        | Some g ->
            Alcotest.(check bool) "smaller" true
              (Clause.body_size g < Clause.body_size bottom);
            let prep = Coverage.prepare ctx g in
            Alcotest.(check bool) "covers m1" true
              (Coverage.covers_positive ctx prep (ex "m1"));
            Alcotest.(check bool) "covers m3" true
              (Coverage.covers_positive ctx prep (ex "m3")));
    Alcotest.test_case "armg result subsumes nothing new: still specific"
      `Quick (fun () ->
        let ctx = toy_ctx () in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        match Generalization.armg ctx bottom (ex "m1") with
        | None -> Alcotest.fail "no mapping onto own example"
        | Some g ->
            (* Generalising towards its own example keeps the clause. *)
            Alcotest.(check bool) "body not empty" true (Clause.body_size g > 0));
    Alcotest.test_case "armg output is head-connected" `Quick (fun () ->
        let ctx = toy_ctx () in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m4") in
        match Generalization.armg ctx bottom (ex "m3") with
        | None -> Alcotest.fail "no mapping"
        | Some g ->
            Alcotest.(check bool) "fixpoint of head_connected" true
              (Clause.equal g (Clause.head_connected g)));
    Alcotest.test_case "armg memo tells body orders apart" `Quick (fun () ->
        (* ARMG walks the body in order, so a parent with its body
           reversed generalizes differently; a warm context must answer
           each order as a fresh one does. *)
        let ctx = toy_ctx () in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let rev = { bottom with Clause.body = List.rev bottom.Clause.body } in
        let forward = Generalization.armg ctx bottom (ex "m3") in
        let warm = Generalization.armg ctx rev (ex "m3") in
        let cold = Generalization.armg (toy_ctx ()) rev (ex "m3") in
        let size = Option.map Clause.body_size in
        Alcotest.(check bool) "the orders generalize differently" false
          (size forward = size cold);
        Alcotest.(check (option int)) "warm size = cold size" (size cold)
          (size warm);
        Alcotest.(check bool) "warm = cold" true
          (Option.equal Clause.equal warm cold));
    Alcotest.test_case "a write recomputes only the touched example's ARMG"
      `Quick (fun () ->
        (* Depth 1 keeps each ground clause to its own example's tuples,
           so a new genre row of m3 touches m3 alone. *)
        let ctx = toy_ctx ~config:{ (toy_config ()) with Config.depth = 1 } () in
        let computed = Dlearn_obs.Obs.counter "armg.computed" in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let armg e = Generalization.armg ctx bottom e in
        let touched = ex "m3" and untouched = ex "m4" in
        ignore (armg touched);
        let kept = armg untouched in
        let entry_t = Coverage.ground ctx touched
        and entry_u = Coverage.ground ctx untouched in
        let row = Tuple.of_strings [ "m3"; "horror" ] in
        ignore (Relation.insert (Database.find ctx.Context.db "imdb_genres") row);
        Alcotest.(check int) "one example invalidated" 1
          (Context.apply_delta ctx [ ("imdb_genres", [ row ]) ]);
        let since f =
          let before = Dlearn_obs.Obs.value computed in
          let r = f () in
          (r, Dlearn_obs.Obs.value computed - before)
        in
        let again, n = since (fun () -> armg untouched) in
        Alcotest.(check int) "untouched answers from the memo" 0 n;
        Alcotest.(check bool) "the same result" true (again == kept);
        Alcotest.(check bool) "untouched entry kept" true
          (Coverage.ground ctx untouched == entry_u);
        let _, n = since (fun () -> armg touched) in
        Alcotest.(check int) "touched recomputes" 1 n;
        Alcotest.(check bool) "touched entry is fresh" false
          (Coverage.ground ctx touched == entry_t));
  ]

let learner_tests =
  [
    Alcotest.test_case "learns a perfect definition on the toy task" `Quick
      (fun () ->
        let ctx = toy_ctx () in
        let result = Learner.learn ctx ~pos:positives ~neg:negatives in
        Alcotest.(check bool) "definition nonempty" false
          (Definition.is_empty result.Learner.definition);
        List.iter
          (fun e ->
            Alcotest.(check bool)
              ("predicts " ^ Tuple.to_string e)
              true
              (Learner.predict ctx result.Learner.definition e))
          positives;
        Alcotest.(check bool) "rejects m2" false
          (Learner.predict ctx result.Learner.definition (ex "m2")));
    Alcotest.test_case "castor-nomd cannot see ratings" `Quick (fun () ->
        let config = toy_config () in
        let ctx =
          Baselines.make_context Baselines.Castor_nomd config (toy_db ())
            [ md_title ] []
        in
        let result = Learner.learn ctx ~pos:positives ~neg:negatives in
        (* Without MDs the only signal is genre, which cannot separate the
           comedies m1 (R) and m2 (PG-13). *)
        let covers_m2 =
          Learner.predict ctx result.Learner.definition (ex "m2")
        in
        let covers_all_pos =
          List.for_all
            (Learner.predict ctx result.Learner.definition)
            positives
        in
        Alcotest.(check bool) "imperfect: misses a positive or hits m2" true
          ((not covers_all_pos) || covers_m2));
    Alcotest.test_case "castor-clean resolves titles and learns" `Quick
      (fun () ->
        let config = toy_config () in
        let ctx =
          Baselines.make_context Baselines.Castor_clean config (toy_db ())
            [ md_title ] []
        in
        let result = Learner.learn ctx ~pos:positives ~neg:negatives in
        List.iter
          (fun e ->
            Alcotest.(check bool)
              ("predicts " ^ Tuple.to_string e)
              true
              (Learner.predict ctx result.Learner.definition e))
          positives);
    Alcotest.test_case "stats count coverage over the training set" `Quick
      (fun () ->
        let ctx = toy_ctx () in
        let result = Learner.learn ctx ~pos:positives ~neg:negatives in
        List.iter
          (fun s ->
            Alcotest.(check bool) "pos covered >= min_pos" true
              (s.Learner.pos_covered >= 2))
          result.Learner.stats);
  ]

let resolve_tests =
  [
    Alcotest.test_case "resolve_entities rewrites the left attribute" `Quick
      (fun () ->
        let db = toy_db () in
        let db' =
          Baselines.resolve_entities ~sim:Md.default_sim db [ md_title ]
        in
        let movies = Database.find db' "imdb_movies" in
        Alcotest.(check bool) "title now from BOM" true
          (Relation.holds_value movies 1 (sv "Superbad [2007]"));
        (* Original database untouched. *)
        let movies0 = Database.find db "imdb_movies" in
        Alcotest.(check bool) "original intact" true
          (Relation.holds_value movies0 1 (sv "Superbad (2007)")));
  ]

(* A locale relation violating a CFD, so CFD repair literals appear in
   bottom clauses. *)
let violating_db () =
  let db = toy_db () in
  let locale =
    Database.create_relation db
      (Schema.string_attrs "locale" [ "id"; "language"; "country" ])
  in
  Relation.insert_all locale
    [
      Tuple.of_strings [ "m1"; "English"; "USA" ];
      Tuple.of_strings [ "m1"; "English"; "Ireland" ];
      Tuple.of_strings [ "m2"; "English"; "USA" ];
    ];
  db

let phi =
  Cfd.make ~id:"phi" ~relation:"locale"
    ~lhs:[ ("id", Cfd.Wildcard); ("language", Cfd.Const (sv "English")) ]
    ~rhs:("country", Cfd.Wildcard)

(* CFD repair literals inside bottom clauses. *)
let cfd_tests =
  [
    Alcotest.test_case "violating pair yields a CFD repair group" `Quick
      (fun () ->
        let config = toy_config () in
        let ctx = Context.create config (violating_db ()) [ md_title ] [ phi ] in
        let c = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let cfd_repairs =
          List.filter
            (function
              | Literal.Repair { origin = Literal.From_cfd "phi"; _ } -> true
              | _ -> false)
            c.Clause.body
        in
        (* Two RHS alternatives plus two LHS splits for the shared id. *)
        Alcotest.(check bool) "at least 2 repairs" true
          (List.length cfd_repairs >= 2));
    Alcotest.test_case "no CFDs configured means no CFD repairs" `Quick
      (fun () ->
        let config = toy_config () in
        let ctx = Context.create config (violating_db ()) [ md_title ] [] in
        let c = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let cfd_repairs =
          List.filter
            (function
              | Literal.Repair { origin = Literal.From_cfd _; _ } -> true
              | _ -> false)
            c.Clause.body
        in
        Alcotest.(check int) "none" 0 (List.length cfd_repairs));
    Alcotest.test_case "cfd_applications of the bottom clause branch" `Quick
      (fun () ->
        let config = toy_config () in
        let ctx = Context.create config (violating_db ()) [ md_title ] [ phi ] in
        let c = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let apps = Clause_repair.cfd_applications c in
        Alcotest.(check bool) "more than one application" true
          (List.length apps > 1));
    Alcotest.test_case "learning still works with CFD repairs around" `Quick
      (fun () ->
        let config = toy_config () in
        let ctx = Context.create config (violating_db ()) [ md_title ] [ phi ] in
        let result = Learner.learn ctx ~pos:positives ~neg:negatives in
        Alcotest.(check bool) "definition nonempty" false
          (Definition.is_empty result.Learner.definition));
  ]

(* Which internal branch a coverage check takes is observable through the
   memo cells of the prepared clause: the fast path and the prefilter
   both decide before the repair enumeration is forced. Each test pins
   one branch of Coverage.covers_positive / covers_positive_cfd_split. *)
let coverage_branch_tests =
  let module Memo = Dlearn_parallel.Memo in
  let cfd_ctx () =
    Context.create (toy_config ()) (violating_db ()) [ md_title ] [ phi ]
  in
  [
    Alcotest.test_case "fast path decides without repair enumeration" `Quick
      (fun () ->
        let ctx = toy_ctx () in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let prep = Coverage.prepare ctx bottom in
        Alcotest.(check bool) "covers own example" true
          (Coverage.covers_positive ctx prep (ex "m1"));
        Alcotest.(check bool) "repairs never forced" false
          (Memo.is_forced prep.Coverage.repairs);
        Alcotest.(check bool) "skeleton never forced" false
          (Memo.is_forced prep.Coverage.skeleton));
    Alcotest.test_case "prefilter rejects before repair enumeration" `Quick
      (fun () ->
        (* m2's ground clause has no R-rated bom_ratings row, so the hand
           clause's skeleton cannot match: the prefilter must reject
           without ever enumerating repairs. *)
        let ctx = toy_ctx () in
        let prep = Coverage.prepare ctx (hand_clause ()) in
        Alcotest.(check bool) "m2 not covered" false
          (Coverage.covers_positive ctx prep (ex "m2"));
        Alcotest.(check bool) "skeleton forced" true
          (Memo.is_forced prep.Coverage.skeleton);
        Alcotest.(check bool) "repairs never forced" false
          (Memo.is_forced prep.Coverage.repairs));
    Alcotest.test_case "empty repair enumeration short-circuits to false"
      `Quick (fun () ->
        (* At threshold 0.6 m2 is genuinely covered (see the semantics
           suite); capping the repair enumeration at zero results empties
           crs, and the for-all over an empty set must NOT claim
           coverage. *)
        let config =
          {
            (toy_config ()) with
            Config.sim = { Md.default_sim with Md.threshold = 0.6 };
            repair_result_cap = 0;
          }
        in
        let ctx = toy_ctx ~config () in
        let prep = Coverage.prepare ctx (hand_clause ()) in
        Alcotest.(check bool) "empty crs means uncovered" false
          (Coverage.covers_positive ctx prep (ex "m2"));
        Alcotest.(check bool) "repairs forced" true
          (Memo.is_forced prep.Coverage.repairs);
        Alcotest.(check int) "enumeration is empty" 0
          (List.length (Memo.force prep.Coverage.repairs)));
    Alcotest.test_case "cfd_split enumerates with CFD repairs on one side"
      `Quick (fun () ->
        (* The hand clause carries no CFD repair literal, but m1's ground
           clause does (the violating locale pair): the split procedure
           must fall through to the CFD-application enumeration and still
           accept. *)
        let ctx = cfd_ctx () in
        let prep = Coverage.prepare ctx (hand_clause ()) in
        Alcotest.(check bool) "m1 covered" true
          (Coverage.covers_positive_cfd_split ctx prep (ex "m1"));
        Alcotest.(check bool) "cfd applications enumerated" true
          (Memo.is_forced prep.Coverage.cfd_apps);
        let prep = Coverage.prepare ctx (hand_clause ()) in
        Alcotest.(check bool) "m2 still rejected" false
          (Coverage.covers_positive_cfd_split ctx prep (ex "m2")));
    Alcotest.test_case "cfd_split agrees with covers_positive verdicts" `Quick
      (fun () ->
        let ctx = cfd_ctx () in
        List.iter
          (fun id ->
            let prep = Coverage.prepare ctx (hand_clause ()) in
            Alcotest.(check bool)
              ("same verdict on " ^ id)
              (Coverage.covers_positive ctx prep (ex id))
              (Coverage.covers_positive_cfd_split ctx prep (ex id)))
          [ "m1"; "m2"; "m3"; "m4" ]);
    Alcotest.test_case "cfd_split prefilter leaves every verdict unchanged"
      `Quick (fun () ->
        let ctx = cfd_ctx () in
        let clauses =
          [
            ("hand", hand_clause ());
            ("bottom", Bottom_clause.build ctx Bottom_clause.Variable (ex "m1"));
          ]
        in
        List.iter
          (fun (name, clause) ->
            List.iter
              (fun id ->
                let with_pf = Coverage.prepare ctx clause in
                let without_pf = Coverage.prepare ctx clause in
                Alcotest.(check bool)
                  (Printf.sprintf "%s on %s" name id)
                  (Coverage.covers_positive_cfd_split ~prefilter:false ctx
                     without_pf (ex id))
                  (Coverage.covers_positive_cfd_split ctx with_pf (ex id)))
              [ "m1"; "m2"; "m3"; "m4" ])
          clauses);
  ]

(* Theorem 4.11 (commutativity of cleaning and learning), on the paper's
   Example 2.3 shape: a rating row whose title matches two distinct
   movies. The repaired clauses of the ground bottom clause correspond to
   the stable instances of the database: same count, and the bottom
   clause built over each stable instance θ-subsumes its corresponding
   repaired clause (the repair may keep tuples that became disconnected
   from the example in that stable instance — the proof of Thm 4.11
   removes those, so subsumption is the faithful comparison). *)
let commutativity_tests =
  let ambiguous_db () =
    let db = Database.create () in
    let movies =
      Database.create_relation db
        (Schema.string_attrs "movies" [ "id"; "title"; "year" ])
    in
    Relation.insert_all movies
      [
        Tuple.of_strings [ "m10"; "Star Wars: Episode IV"; "y1977" ];
        Tuple.of_strings [ "m40"; "Star Wars: Episode III"; "y2005" ];
      ];
    let ratings =
      Database.create_relation db
        (Schema.string_attrs "bom_ratings" [ "title"; "rating" ])
    in
    Relation.insert_all ratings [ Tuple.of_strings [ "Star Wars Episode"; "R" ] ];
    db
  in
  let md =
    Md.make ~id:"sw" ~left:"movies" ~right:"bom_ratings"
      ~compared:[ ("title", "title") ] ~unified:("title", "title") ()
  in
  let config =
    {
      (Config.default ~target) with
      Config.constant_attrs = [ ("bom_ratings", "rating") ];
      sim = { Md.default_sim with Md.threshold = 0.75 };
    }
  in
  [
    Alcotest.test_case "ambiguous match yields two stable instances" `Quick
      (fun () ->
        let instances =
          Stable_instance.stable_instances ~sim:config.Config.sim
            (ambiguous_db ()) [ md ]
        in
        Alcotest.(check int) "2 stable instances" 2 (List.length instances));
    Alcotest.test_case
      "repairs of the bottom clause match learning over stable instances"
      `Quick (fun () ->
        let db = ambiguous_db () in
        let ctx = Context.create config db [ md ] [] in
        let e = ex "m10" in
        let ground = (Coverage.ground ctx e).Context.ground in
        let repairs = Clause_repair.repaired_clauses ground in
        let instances =
          Stable_instance.stable_instances ~sim:config.Config.sim db [ md ]
        in
        Alcotest.(check int) "as many repairs as stable instances"
          (List.length instances) (List.length repairs);
        (* Each stable instance's bottom clause is subsumed by some repair
           of the dirty bottom clause. *)
        List.iter
          (fun instance ->
            let ictx = Context.create config instance [ md ] [] in
            let ig = (Coverage.ground ictx e).Context.ground in
            Alcotest.(check bool)
              "stable-instance bottom clause subsumes a repair" true
              (List.exists
                 (fun repair -> Subsumption.subsumes_bool ig repair)
                 repairs))
          instances);
  ]


(* Negative coverage follows Definition 3.6: one repaired clause covering
   the example in one repair suffices. A clause whose repair joins the
   seed's title to the R rating covers m2 as a negative only if some
   repair of m2's ground clause provides that join — at threshold 0.7
   none does. Lowering the threshold to 0.6 lets the spurious
   "Zoolander (2001)" ~ "Superbad [2007]" match through, and m2 becomes
   covered: the semantics is genuinely repair-sensitive. *)
let semantics_tests =
  [
    Alcotest.test_case "negative coverage reacts to the repair space" `Quick
      (fun () ->
        let strict = toy_ctx () in
        let loose =
          toy_ctx
            ~config:
              {
                (toy_config ()) with
                Config.sim = { Md.default_sim with Md.threshold = 0.6 };
              }
            ()
        in
        let check ctx expected =
          let prep = Coverage.prepare ctx (hand_clause ()) in
          Alcotest.(check bool) "m2 negative coverage" expected
            (Coverage.covers_negative ctx prep (ex "m2"))
        in
        check strict false;
        check loose true);
    Alcotest.test_case "positive semantics demands every repaired clause"
      `Quick (fun () ->
        (* Under the loose threshold, m2's coverage differs between the
           positive (for-all) and negative (exists) semantics whenever the
           clause has a single repaired version but the example's ground
           clause has conflicting repairs: the positive check needs every
           repaired clause covered in SOME repair, which still holds, so
           both agree here — covered both ways. *)
        let loose =
          toy_ctx
            ~config:
              {
                (toy_config ()) with
                Config.sim = { Md.default_sim with Md.threshold = 0.6 };
              }
            ()
        in
        let prep = Coverage.prepare loose (hand_clause ()) in
        Alcotest.(check bool) "positive semantics" true
          (Coverage.covers_positive loose prep (ex "m2")));
    Alcotest.test_case "learning is deterministic in the seed" `Quick (fun () ->
        let run () =
          let ctx = toy_ctx () in
          let r = Learner.learn ctx ~pos:positives ~neg:negatives in
          Dlearn_logic.Definition.to_string r.Learner.definition
        in
        Alcotest.(check string) "same definition" (run ()) (run ()));
    Alcotest.test_case "prefilter preserves the coverage verdicts" `Quick
      (fun () ->
        (* The skeleton prefilter must be a pure necessary condition: the
           hand clause's verdicts on every example match the expected
           semantics computed above. *)
        let ctx = toy_ctx () in
        let prep = Coverage.prepare ctx (hand_clause ()) in
        List.iter
          (fun e ->
            Alcotest.(check bool) "positive verdict" true
              (Coverage.covers_positive ctx prep e))
          positives;
        Alcotest.(check bool) "negative verdict" false
          (Coverage.covers_negative ctx prep (ex "m2")));
  ]


let weighting_tests =
  [
    Alcotest.test_case "weights reflect training precision" `Quick (fun () ->
        let ctx = toy_ctx () in
        let d = Dlearn_logic.Definition.empty "restricted" in
        let d = Dlearn_logic.Definition.add d (hand_clause ()) in
        let w = Weighting.weigh ctx d ~pos:positives ~neg:negatives in
        (match w.Weighting.weights with
        | [ weight ] ->
            (* 3 tp, 0 fp: (3+1)/(3+0+2) = 0.8 *)
            Alcotest.(check bool) "laplace weight" true
              (Float.abs (weight -. 0.8) < 1e-9)
        | _ -> Alcotest.fail "expected one weight"));
    Alcotest.test_case "score is the best covering weight" `Quick (fun () ->
        let ctx = toy_ctx () in
        let d = Dlearn_logic.Definition.empty "restricted" in
        let d = Dlearn_logic.Definition.add d (hand_clause ()) in
        let w = Weighting.weigh ctx d ~pos:positives ~neg:negatives in
        Alcotest.(check bool) "positive scores 0.8" true
          (Float.abs (Weighting.score ctx w (ex "m1") -. 0.8) < 1e-9);
        Alcotest.(check bool) "negative scores 0" true
          (Weighting.score ctx w (ex "m2") = 0.0));
    Alcotest.test_case "threshold separates the classes" `Quick (fun () ->
        let ctx = toy_ctx () in
        let d = Dlearn_logic.Definition.empty "restricted" in
        let d = Dlearn_logic.Definition.add d (hand_clause ()) in
        let w = Weighting.weigh ctx d ~pos:positives ~neg:negatives in
        List.iter
          (fun e ->
            Alcotest.(check bool) "accepted" true
              (Weighting.predict ctx w ~threshold:0.5 e))
          positives;
        Alcotest.(check bool) "rejected" false
          (Weighting.predict ctx w ~threshold:0.5 (ex "m2")));
  ]


(* ARMG output must θ-subsume the clause it generalises (§4.2: the result
   is the clause minus blocking literals). *)
let armg_property_tests =
  [
    Alcotest.test_case "armg output subsumes the input clause" `Quick
      (fun () ->
        let ctx = toy_ctx () in
        List.iter
          (fun seed ->
            let bottom = Bottom_clause.build ctx Bottom_clause.Variable seed in
            List.iter
              (fun e' ->
                match Generalization.armg ctx bottom e' with
                | None -> ()
                | Some g ->
                    Alcotest.(check bool)
                      (Printf.sprintf "subsumes (%s -> %s)"
                         (Tuple.to_string seed) (Tuple.to_string e'))
                      true
                      (Subsumption.subsumes_bool g bottom))
              positives)
          positives);
    Alcotest.test_case "armg is monotone: output covers the target example"
      `Quick (fun () ->
        let ctx = toy_ctx () in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m4") in
        List.iter
          (fun e' ->
            match Generalization.armg ctx bottom e' with
            | None -> ()
            | Some g ->
                let prep = Coverage.prepare ctx g in
                Alcotest.(check bool)
                  ("covers " ^ Tuple.to_string e')
                  true
                  (Coverage.covers_positive ctx prep e'))
          positives);
  ]


let explain_tests =
  [
    Alcotest.test_case "covered example gets an explanation" `Quick (fun () ->
        let ctx = toy_ctx () in
        match Explain.positive ctx (hand_clause ()) (ex "m1") with
        | Some text ->
            Alcotest.(check bool) "mentions the movies literal" true
              (let has sub =
                 let n = String.length sub in
                 let rec go i =
                   i + n <= String.length text
                   && (String.sub text i n = sub || go (i + 1))
                 in
                 go 0
               in
               has "imdb_movies" && has "-->")
        | None -> Alcotest.fail "expected an explanation");
    Alcotest.test_case "uncovered example yields no explanation" `Quick
      (fun () ->
        let ctx = toy_ctx () in
        Alcotest.(check bool) "none" true
          (Explain.positive ctx (hand_clause ()) (ex "m2") = None));
    Alcotest.test_case "repair-path coverage is explained as such" `Quick
      (fun () ->
        (* At threshold 0.6 the spurious match makes m2 covered only
           through the repair semantics; the explanation says so. *)
        let ctx =
          toy_ctx
            ~config:
              {
                (toy_config ()) with
                Config.sim = { Md.default_sim with Md.threshold = 0.6 };
              }
            ()
        in
        match Explain.positive ctx (hand_clause ()) (ex "m2") with
        | Some text ->
            Alcotest.(check bool) "mentions Definition 3.4" true
              (let sub = "Definition 3.4" in
               let n = String.length sub in
               let rec go i =
                 i + n <= String.length text
                 && (String.sub text i n = sub || go (i + 1))
               in
               go 0)
        | None -> Alcotest.fail "expected a repair-path explanation");
  ]

(* The enumerator against the reference oracle (repair_oracle.ml) on the
   ground bottom clauses of the learn_walmart benchmark inputs
   (Walmart+Amazon n = 26, CFD violations at p = 0.10) at the configured
   caps. Most of these enumerations stop at a cap, so the truncation paths
   must agree too. *)
let repair_oracle_tests =
  [
    Alcotest.test_case "walmart ground clauses repair as the oracle does"
      `Quick (fun () ->
        let open Dlearn_eval in
        let w = Walmart_amazon.generate ~n:26 () in
        let w =
          Workload.inject_violations w ~p:0.10
            ~seed:w.Workload.config.Config.seed
        in
        let config = w.Workload.config in
        let ctx =
          Baselines.make_context Baselines.Dlearn_cfd config w.Workload.db
            w.Workload.mds w.Workload.cfds
        in
        let state_cap = config.Config.repair_state_cap
        and result_cap = config.Config.repair_result_cap in
        Alcotest.(check (pair int int)) "default caps" (512, 16)
          (state_cap, result_cap);
        let truncated = Dlearn_obs.Obs.counter "repair.truncated" in
        let before = Dlearn_obs.Obs.value truncated in
        List.iter
          (fun e ->
            let ground = (Coverage.ground ctx e).Context.ground in
            List.iter
              (fun cfd ->
                match
                  Repair_oracle.disagreement ~cfd ~state_cap ~result_cap ground
                with
                | None -> ()
                | Some why ->
                    Alcotest.failf "%s (cfd_applications: %b)" why cfd)
              [ false; true ])
          (w.Workload.pos @ w.Workload.neg);
        Alcotest.(check bool) "some enumerations truncated" true
          (Dlearn_obs.Obs.value truncated > before));
  ]

let () =
  Alcotest.run "core"
    [
      ("repair_oracle", repair_oracle_tests);
      ("bottom_clause", bottom_tests);
      ("coverage", coverage_tests);
      ("generalization", generalization_tests);
      ("learner", learner_tests);
      ("baselines", resolve_tests);
      ("cfd", cfd_tests);
      ("coverage_branches", coverage_branch_tests);
      ("commutativity", commutativity_tests);
      ("semantics", semantics_tests);
      ("weighting", weighting_tests);
      ("armg_properties", armg_property_tests);
      ("explain", explain_tests);
    ]
