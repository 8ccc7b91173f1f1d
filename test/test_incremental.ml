(* The learner-vs-reference equivalence suite.

   The coverage engine (docs/COVERAGE.md) promises that clause
   normalization, verdict caching, generalization-monotone inheritance,
   score-bound pruning and the skeleton prefilter never change a learned
   definition or a coverage count. This suite pins that promise: Bitset
   unit tests against a sorted-list model, degenerate-input tests for the
   batch API, and QCheck differentials against the from-scratch
   reference of learner_oracle.ml over random example multisets on MD and
   CFD repair spaces — coverage counts must be identical, and
   [Learner.learn] at 1, 2 and 4 domains must learn the reference's
   definitions with its per-clause (pos, neg) stats. *)

open Dlearn_relation
open Dlearn_constraints
open Dlearn_logic
open Dlearn_core
module Bitset = Cover_set.Bitset

let sv s = Value.String s

(* ------------------------------------------------------------------ *)
(* Bitset unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let sorted_uniq l = List.sort_uniq Int.compare l

let bitset_model_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"bitset ops agree with the sorted-list model"
       ~count:500
       QCheck.(pair (small_list (int_bound 200)) (small_list (int_bound 200)))
       (fun (xs, ys) ->
         let a = Bitset.of_list xs and b = Bitset.of_list ys in
         let xs' = sorted_uniq xs and ys' = sorted_uniq ys in
         Bitset.to_list a = xs'
         && Bitset.cardinal a = List.length xs'
         && Bitset.to_list (Bitset.union a b)
            = sorted_uniq (xs' @ ys')
         && Bitset.to_list (Bitset.inter a b)
            = List.filter (fun x -> List.mem x ys') xs'
         && Bitset.to_list (Bitset.diff a b)
            = List.filter (fun x -> not (List.mem x ys')) xs'
         && List.for_all (fun x -> Bitset.mem a x) xs'
         && Bitset.equal a (List.fold_left Bitset.add Bitset.empty xs)))

let bitset_tests =
  [
    Alcotest.test_case "empty set" `Quick (fun () ->
        Alcotest.(check bool) "is_empty" true (Bitset.is_empty Bitset.empty);
        Alcotest.(check int) "cardinal" 0 (Bitset.cardinal Bitset.empty);
        Alcotest.(check bool) "mem" false (Bitset.mem Bitset.empty 0);
        Alcotest.(check bool)
          "of_list []" true
          (Bitset.equal Bitset.empty (Bitset.of_list [])));
    Alcotest.test_case "mem is total" `Quick (fun () ->
        let s = Bitset.singleton 9 in
        Alcotest.(check bool) "present" true (Bitset.mem s 9);
        Alcotest.(check bool) "absent in range" false (Bitset.mem s 8);
        Alcotest.(check bool) "beyond capacity" false
          (Bitset.mem s (Bitset.capacity s + 100));
        Alcotest.(check bool) "negative" false (Bitset.mem s (-1)));
    Alcotest.test_case "representation is trimmed and canonical" `Quick
      (fun () ->
        (* Remove the high bit: the result must equal the set built
           without it, so structural equality is set equality. *)
        let with_high = Bitset.of_list [ 3; 200 ] in
        let low = Bitset.diff with_high (Bitset.singleton 200) in
        Alcotest.(check bool)
          "diff trims" true
          (Bitset.equal low (Bitset.singleton 3));
        Alcotest.(check bool)
          "inter trims" true
          (Bitset.is_empty
             (Bitset.inter (Bitset.singleton 500) (Bitset.singleton 3)));
        Alcotest.(check bool)
          "self-diff is empty" true
          (Bitset.is_empty (Bitset.diff with_high with_high)));
    bitset_model_test;
  ]

(* ------------------------------------------------------------------ *)
(* Toy workload (mirrors test_parallel.ml)                             *)
(* ------------------------------------------------------------------ *)

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
    Database.create_relation db
      (Schema.string_attrs "imdb_genres" [ "id"; "genre" ])
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

let md_title =
  Md.make ~id:"title_md" ~left:"imdb_movies" ~right:"bom_ratings"
    ~compared:[ ("title", "title") ] ~unified:("title", "title") ()

let target = Schema.string_attrs "restricted" [ "id" ]

let toy_config ~jobs ~threshold =
  {
    (Config.default ~target) with
    Config.constant_attrs =
      [ ("bom_ratings", "rating"); ("imdb_genres", "genre") ];
    sim = { Md.default_sim with Md.threshold };
    min_pos = 2;
    sample_positives = 4;
    num_domains = jobs;
    (* the constraints are known-good; skip the per-learn preflight *)
    allow_dirty_constraints = true;
  }

let ex id = Tuple.of_strings [ id ]
let examples = [| ex "m1"; ex "m2"; ex "m3"; ex "m4" |]

(* ------------------------------------------------------------------ *)
(* Degenerate batch inputs                                             *)
(* ------------------------------------------------------------------ *)

let fresh_ctx ?(jobs = 1) ?(cfd = false) () =
  let db = if cfd then violating_db () else toy_db () in
  let cfds = if cfd then [ phi ] else [] in
  Context.create (toy_config ~jobs ~threshold:0.7) db [ md_title ] cfds

let degenerate_tests =
  [
    Alcotest.test_case "empty universes yield empty bitsets" `Quick (fun () ->
        let ctx = fresh_ctx () in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let prep = Coverage.prepare ctx bottom in
        let pc, nc = Coverage.coverage_sets ctx prep ~pos:[] ~neg:[] in
        Alcotest.(check bool) "pos empty" true (Bitset.is_empty pc);
        Alcotest.(check bool) "neg empty" true (Bitset.is_empty nc);
        Alcotest.(check (pair int int))
          "counts" (0, 0)
          (Coverage.coverage ctx prep ~pos:[] ~neg:[]));
    Alcotest.test_case "duplicate tuples count with multiplicity" `Quick
      (fun () ->
        let ctx = fresh_ctx () in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let prep = Coverage.prepare ctx bottom in
        let pos = [ ex "m1"; ex "m1"; ex "m1" ] in
        let p, _ = Coverage.coverage ctx prep ~pos ~neg:[] in
        Alcotest.(check int) "three occurrences" 3 p;
        let pc, _ = Coverage.coverage_sets ctx prep ~pos ~neg:[] in
        Alcotest.(check int) "one id in the set" 1 (Bitset.cardinal pc);
        Alcotest.(check int)
          "count_covered respects multiplicity" 3
          (Coverage.count_covered ctx pc pos));
    Alcotest.test_case "skeleton-rejected clause yields all-zero bitsets"
      `Quick (fun () ->
        let ctx = fresh_ctx () in
        (* No bottom clause mentions this relation, so the skeleton
           prefilter rejects every example. *)
        let v = Term.var "x0" in
        let clause =
          Clause.make
            ~head:(Literal.rel "restricted" [ v ])
            [ Literal.rel "no_such_relation" [ v ] ]
        in
        let prep = Coverage.prepare ctx clause in
        let universe = Array.to_list examples in
        let pc, nc = Coverage.coverage_sets ctx prep ~pos:universe ~neg:universe in
        Alcotest.(check bool) "pos all-zero" true (Bitset.is_empty pc);
        Alcotest.(check bool) "neg all-zero" true (Bitset.is_empty nc);
        Alcotest.(check (pair int int))
          "counts" (0, 0)
          (Coverage.coverage ctx prep ~pos:universe ~neg:universe));
    Alcotest.test_case "cached second call returns identical sets" `Quick
      (fun () ->
        let ctx = fresh_ctx ~cfd:true () in
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
        let prep = Coverage.prepare ctx bottom in
        let universe = Array.to_list examples in
        let first = Coverage.coverage_sets ctx prep ~pos:universe ~neg:universe in
        let tested =
          Dlearn_obs.Obs.value ctx.Context.cover_stats.Context.tested
        in
        (* Same clause re-prepared: every verdict must come from the
           cache, and the sets must be unchanged. *)
        let prep' = Coverage.prepare ctx bottom in
        let second =
          Coverage.coverage_sets ctx prep' ~pos:universe ~neg:universe
        in
        Alcotest.(check bool)
          "pos sets equal" true
          (Bitset.equal (fst first) (fst second));
        Alcotest.(check bool)
          "neg sets equal" true
          (Bitset.equal (snd first) (snd second));
        Alcotest.(check int)
          "no new predicate runs" tested
          (Dlearn_obs.Obs.value ctx.Context.cover_stats.Context.tested));
  ]

(* ------------------------------------------------------------------ *)
(* QCheck differential: learner ≡ from-scratch reference               *)
(* ------------------------------------------------------------------ *)

(* One context per (variant, learner or reference, domain count),
   persistent across all QCheck cases: the ground caches warm up as in a
   real run, and — because the reference consumes the context RNG
   exactly like [Learner] — the contexts stay in lockstep case after
   case. A divergence in RNG consumption would surface here as a cascade
   of failures. *)
type variant = {
  name : string;
  reference : Context.t;  (** 1 domain, driven by [Learner_oracle] *)
  learners : (int * Context.t) list;  (** num_domains -> [Learner] context *)
}

let domain_counts = [ 1; 2; 4 ]

let make_variant name ~threshold ~db ~cfds =
  let make jobs =
    Context.create (toy_config ~jobs ~threshold) (db ()) [ md_title ] cfds
  in
  {
    name;
    reference = make 1;
    learners = List.map (fun jobs -> (jobs, make jobs)) domain_counts;
  }

let variants =
  lazy
    [
      make_variant "strict" ~threshold:0.7 ~db:toy_db ~cfds:[];
      make_variant "loose" ~threshold:0.6 ~db:toy_db ~cfds:[];
      make_variant "cfd" ~threshold:0.7 ~db:violating_db ~cfds:[ phi ];
    ]

type scenario = { variant_i : int; pos : Tuple.t list; neg : Tuple.t list }

let scenario_gen =
  let open QCheck.Gen in
  let example_list =
    list_size (0 -- 6) (map (fun i -> examples.(i)) (0 -- 3))
  in
  let* variant_i = 0 -- 2 in
  let* pos = example_list in
  let* neg = example_list in
  return { variant_i; pos; neg }

let scenario_print s =
  let variant = List.nth (Lazy.force variants) s.variant_i in
  Printf.sprintf "variant=%s pos=[%s] neg=[%s]" variant.name
    (String.concat ";" (List.map Tuple.to_string s.pos))
    (String.concat ";" (List.map Tuple.to_string s.neg))

let scenario_arb = QCheck.make ~print:scenario_print scenario_gen

let summary (definition, stats) =
  ( Definition.to_string definition,
    List.map (fun s -> (s.Learner.pos_covered, s.Learner.neg_covered)) stats )

let print_stats stats =
  String.concat ";"
    (List.map (fun (p, n) -> Printf.sprintf "%d+/%d-" p n) stats)

let learn_differential_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"learn: incremental at 1/2/4 domains equals the reference learner"
       ~count:500 scenario_arb
       (fun s ->
         let variant = List.nth (Lazy.force variants) s.variant_i in
         let ref_def, ref_stats =
           summary (Learner_oracle.learn variant.reference ~pos:s.pos ~neg:s.neg)
         in
         List.for_all
           (fun (jobs, ctx) ->
             let r = Learner.learn ctx ~pos:s.pos ~neg:s.neg in
             let def, stats = summary (r.Learner.definition, r.Learner.stats) in
             if def <> ref_def then
               QCheck.Test.fail_reportf
                 "definition diverged at %d domains:\n--- reference\n%s\n\
                  --- learner\n%s"
                 jobs ref_def def
             else if stats <> ref_stats then
               QCheck.Test.fail_reportf
                 "per-clause stats diverged at %d domains: [%s] <> [%s]" jobs
                 (print_stats ref_stats) (print_stats stats)
             else true)
           variant.learners))

let coverage_differential_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"coverage: cached counts equal from-scratch counts" ~count:500
       scenario_arb
       (fun s ->
         let variant = List.nth (Lazy.force variants) s.variant_i in
         (* Exercise the cache with clauses derived from the scenario's
            own examples: bottoms and their pairwise ARMGs. *)
         let reference = variant.reference in
         let ctx = List.assoc 1 variant.learners in
         let clauses =
           match s.pos with
           | [] -> []
           | seed :: rest ->
               let bottom =
                 Bottom_clause.build reference Bottom_clause.Variable seed
               in
               bottom
               :: List.filter_map
                    (fun e -> Generalization.armg reference bottom e)
                    rest
         in
         List.for_all
           (fun clause ->
             let scratch =
               Learner_oracle.coverage reference clause ~pos:s.pos ~neg:s.neg
             in
             let cached =
               Coverage.coverage ctx
                 (Coverage.prepare ctx clause)
                 ~pos:s.pos ~neg:s.neg
             in
             if scratch <> cached then
               QCheck.Test.fail_reportf
                 "counts diverged: from-scratch (%d, %d) <> cached (%d, %d)"
                 (fst scratch) (snd scratch) (fst cached) (snd cached)
             else true)
           clauses))

let () =
  Alcotest.run "incremental"
    [
      ("bitset", bitset_tests);
      ("degenerate", degenerate_tests);
      ("differential", [ coverage_differential_test; learn_differential_test ]);
    ]
