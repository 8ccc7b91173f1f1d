(* The clause-normalization suite (docs/NORMALIZATION.md).

   Clause_norm promises three things: the normalized form is a canonical
   representative (alpha-renaming and body reordering wash out), the
   pipeline is idempotent, and normalization preserves coverage — so the
   learner may swap normalized clauses for raw ones without changing any
   decision. This suite pins all three: unit tests per pass (including
   the engine-soundness guards), QCheck invariance/idempotence over
   random clauses, a coverage-preservation differential over realistic
   bottom/ARMG clauses against the from-scratch reference of
   learner_oracle.ml, a check that alpha-variant rescoring hits the
   cache outright, and the context's normalization memo (one
   normalization and one physical normal form per clause, from any
   domain). The learn differential against the reference learner lives
   in test_incremental.ml. *)

open Dlearn_relation
open Dlearn_constraints
open Dlearn_logic
open Dlearn_core
module Obs = Dlearn_obs.Obs

let v = Term.var
let s = Term.str
let rel = Literal.rel

let clause_eq = Alcotest.testable Clause.pp Clause.equal

(* ------------------------------------------------------------------ *)
(* Pass unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let head = rel "h" [ v "x" ]
let base = rel "p" [ v "x"; v "t" ]

let norm c = Clause_norm.normalize c

let unit_tests =
  [
    Alcotest.test_case "x = x is dropped" `Quick (fun () ->
        Alcotest.check clause_eq "same form"
          (norm (Clause.make ~head [ base ]))
          (norm (Clause.make ~head [ base; Literal.Eq (v "t", v "t") ])));
    Alcotest.test_case "x ~ x drops only when generatively bound" `Quick
      (fun () ->
        (* t is a schema-atom argument: the engines bind it, reflexivity
           applies, the literal goes. *)
        Alcotest.check clause_eq "bound: dropped"
          (norm (Clause.make ~head [ base ]))
          (norm (Clause.make ~head [ base; Literal.Sim (v "t", v "t") ]));
        (* u is bound by nothing: u ~ u must match an explicit target
           similarity edge, so it stays. *)
        let kept = norm (Clause.make ~head [ base; Literal.Sim (v "u", v "u") ]) in
        Alcotest.(check int) "unbound: kept" 2 (Clause.body_size kept);
        (* constants are ground from the start *)
        Alcotest.check clause_eq "const: dropped"
          (norm (Clause.make ~head [ base ]))
          (norm (Clause.make ~head [ base; Literal.Sim (s "a", s "a") ])));
    Alcotest.test_case "x != x sends the clause to the shared falsum form"
      `Quick (fun () ->
        let f1 = Clause.make ~head [ base; Literal.Neq (v "t", v "t") ] in
        let f2 =
          Clause.make ~head
            [ rel "q" [ v "a"; v "b"; v "c" ]; Literal.Neq (v "b", v "b") ]
        in
        Alcotest.(check bool) "detected" true (Clause_norm.is_trivially_false f1);
        (* same head shape: both collapse to one cover-cache key *)
        Alcotest.check clause_eq "shared form" (norm f1) (norm f2);
        Alcotest.(check int) "falsum body" 1 (Clause.body_size (norm f1)));
    Alcotest.test_case "distinct-constant checks are kept" `Quick (fun () ->
        (* the closure can merge constants, so these are not static *)
        let c = Clause.make ~head [ base; Literal.Eq (s "a", s "b") ] in
        Alcotest.(check int) "kept" 2 (Clause.body_size (norm c));
        let n = Clause.make ~head [ base; Literal.Neq (s "a", s "b") ] in
        Alcotest.(check bool) "not falsum" false (Clause_norm.is_trivially_false n);
        Alcotest.(check int) "kept too" 2 (Clause.body_size (norm n)));
    Alcotest.test_case "trivially-true repair condition atoms are deleted"
      `Quick (fun () ->
        let repair cond =
          Literal.Repair
            {
              Literal.origin = Literal.From_md "m";
              group = 0;
              cond;
              subject = v "t";
              replacement = v "r";
              drops = [];
            }
        in
        let keepme = Cond.Cneq (v "t", v "r") in
        Alcotest.check clause_eq "Ceq(t,t) removed"
          (norm (Clause.make ~head [ base; repair [ keepme ] ]))
          (norm
             (Clause.make ~head
                [ base; repair [ Cond.Ceq (v "t", v "t"); keepme ] ])));
    Alcotest.test_case "duplicates merge" `Quick (fun () ->
        Alcotest.check clause_eq "merged"
          (norm (Clause.make ~head [ base ]))
          (norm (Clause.make ~head [ base; base; base ])));
    Alcotest.test_case "condensation drops self-subsumed literals" `Quick
      (fun () ->
        (* p(x,a) maps onto p(x,t) through its local a *)
        Alcotest.check clause_eq "condensed"
          (norm (Clause.make ~head [ base ]))
          (norm (Clause.make ~head [ base; rel "p" [ v "x"; v "a" ] ]));
        (* shared variables block the drop *)
        let c =
          Clause.make ~head [ base; rel "p" [ v "t"; v "x" ] ]
        in
        Alcotest.(check int) "no locals: kept" 2 (Clause.body_size (norm c)));
    Alcotest.test_case "drops-protected literals survive every pass" `Quick
      (fun () ->
        let eq = Literal.Eq (v "t", v "t") in
        let repair =
          Literal.Repair
            {
              Literal.origin = Literal.From_cfd "c";
              group = 0;
              cond = [];
              subject = v "t";
              replacement = v "r";
              drops = [ eq ];
            }
        in
        let c = Clause.make ~head [ base; repair; eq ] in
        (* the Eq literal is recorded in the repair's drops list: repair
           application deletes it by Literal.equal, so normalization must
           keep the body copy byte-compatible *)
        Alcotest.(check int) "kept" 3 (Clause.body_size (norm c)));
    Alcotest.test_case "normalize is invariant on its own output" `Quick
      (fun () ->
        let c =
          Clause.make ~head
            [
              base;
              rel "q" [ v "t"; v "z" ];
              Literal.Sim (v "z", v "w");
              Literal.Eq (v "x", v "x");
            ]
        in
        let n1 = norm c in
        Alcotest.check clause_eq "idempotent" n1 (norm n1));
    Alcotest.test_case "dedup_target strips exact duplicates only" `Quick
      (fun () ->
        let ground =
          Clause.make ~head
            [ base; base; Literal.Eq (v "t", v "t"); Literal.Eq (v "t", v "t") ]
        in
        let d = Clause_norm.dedup_target ground in
        (* duplicates go; the tautological Eq stays — target literals are
           closure data, not checks *)
        Alcotest.(check int) "deduped" 2 (Clause.body_size d);
        Alcotest.check clause_eq "order preserved"
          (Clause.make ~head [ base; Literal.Eq (v "t", v "t") ])
          d);
  ]

(* ------------------------------------------------------------------ *)
(* QCheck: invariance and idempotence                                  *)
(* ------------------------------------------------------------------ *)

let pool = [| "a"; "b"; "c"; "d"; "e"; "f" |]

let term_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> v pool.(i)) (0 -- (Array.length pool - 1)));
        (1, map s (oneofl [ "k1"; "k2" ]));
      ])

(* Repair conditions and drops are deterministic functions of the fields
   [Literal.compare] looks at: the comparator ignores [cond], so two
   random repairs that compare equal but carried different conditions
   would make [sort_uniq]'s survivor depend on body order — a
   pre-existing property of [Clause.canonical] the generator must not
   trip over. *)
let repair_gen =
  QCheck.Gen.(
    let* subject = term_gen in
    let* replacement = term_gen in
    let* group = 0 -- 2 in
    let cond =
      match group with
      | 0 -> []
      | 1 -> [ Cond.Cneq (subject, replacement) ]
      | _ -> [ Cond.Ceq (subject, subject); Cond.Csim (subject, replacement) ]
    in
    let drops = if group = 1 then [ Literal.Eq (subject, replacement) ] else [] in
    return
      (Literal.Repair
         { Literal.origin = Literal.From_md "m"; group; cond; subject;
           replacement; drops }))

let literal_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          let* p = oneofl [ ("p", 2); ("q", 3); ("r", 1) ] in
          let* args = list_repeat (snd p) term_gen in
          return (rel (fst p) args) );
        (1, map2 (fun a b -> Literal.Sim (a, b)) term_gen term_gen);
        (1, map2 (fun a b -> Literal.Eq (a, b)) term_gen term_gen);
        (1, map2 (fun a b -> Literal.Neq (a, b)) term_gen term_gen);
        (1, repair_gen);
      ])

let clause_gen =
  QCheck.Gen.(
    let* hv = 0 -- (Array.length pool - 1) in
    let* body = list_size (1 -- 8) literal_gen in
    return (Clause.make ~head:(rel "h" [ v pool.(hv) ]) body))

let clause_print c = Clause.to_string c

(* A variant: an alpha-renaming (a permutation of the variable pool) plus
   a permutation of the body literals. *)
let variant_gen =
  QCheck.Gen.(
    let* c = clause_gen in
    let perm = Array.copy pool in
    let* () = shuffle_a perm in
    let* body = shuffle_l c.Clause.body in
    let rename t =
      match t with
      | Term.Var name ->
          let rec find i =
            if i >= Array.length pool then t
            else if String.equal pool.(i) name then Term.var perm.(i)
            else find (i + 1)
          in
          find 0
      | Term.Const _ -> t
    in
    return (c, Clause.map_terms rename { c with Clause.body }))

let fallbacks = Obs.counter "normalize.rename_fallbacks"

(* The individualization budget is a documented escape hatch: when it
   trips, the representative is still fixed and coverage-sound, just not
   alpha-invariant. The properties skip those (counted) cases. *)
let without_fallback f =
  let before = Obs.value fallbacks in
  let r = f () in
  if Obs.value fallbacks > before then None else Some r

let invariance_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"alpha-renaming + body permutation normalize byte-identically"
       ~count:1000
       (QCheck.make
          ~print:(fun (c, c') ->
            clause_print c ^ "\n  variant: " ^ clause_print c')
          variant_gen)
       (fun (c, c') ->
         match without_fallback (fun () -> (norm c, norm c')) with
         | None -> true
         | Some (n, n') ->
             if Clause.equal n n' then true
             else
               QCheck.Test.fail_reportf
                 "normal forms differ:\n  %s\n  %s" (clause_print n)
                 (clause_print n')))

let idempotence_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"normalize (normalize c) = normalize c"
       ~count:1000
       (QCheck.make ~print:clause_print clause_gen)
       (fun c ->
         match without_fallback (fun () -> norm c) with
         | None -> true
         | Some n ->
             if Clause.equal n (norm n) then true
             else
               QCheck.Test.fail_reportf "not idempotent:\n  %s\n  %s"
                 (clause_print n)
                 (clause_print (norm n))))

(* ------------------------------------------------------------------ *)
(* Toy workload (mirrors test_incremental.ml)                          *)
(* ------------------------------------------------------------------ *)

let sv x = Value.String x

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

let toy_config =
  {
    (Config.default ~target) with
    Config.constant_attrs =
      [ ("bom_ratings", "rating"); ("imdb_genres", "genre") ];
    sim = { Md.default_sim with Md.threshold = 0.6 };
    min_pos = 2;
    sample_positives = 4;
    num_domains = 1;
    allow_dirty_constraints = true;
  }

let make_ctx () = Context.create toy_config (toy_db ()) [ md_title ] [ phi ]

let ex id = Tuple.of_strings [ id ]
let examples = [| ex "m1"; ex "m2"; ex "m3"; ex "m4" |]

(* ------------------------------------------------------------------ *)
(* Coverage preservation: normalized clause ≡ raw clause               *)
(* ------------------------------------------------------------------ *)

(* The reference tests the raw clause exactly as given, while
   [Coverage.prepare] normalizes it: this checks the pipeline's rewrites
   against the real search over repair-laden bottom/ARMG clauses, not
   just the climb. *)
let coverage_preservation_test =
  let ctx = lazy (make_ctx ()) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"coverage of the normalized clause equals the raw clause"
       ~count:60
       QCheck.(
         make
           ~print:(fun (i, js) ->
             Printf.sprintf "seed=%d others=%s" i
               (String.concat ","
                  (List.map string_of_int js)))
           Gen.(pair (0 -- 3) (list_size (0 -- 3) (0 -- 3))))
       (fun (i, js) ->
         let ctx = Lazy.force ctx in
         let seed = examples.(i) in
         let bottom = Bottom_clause.build ctx Bottom_clause.Variable seed in
         let clauses =
           bottom
           :: List.filter_map
                (fun j -> Generalization.armg ctx bottom examples.(j))
                js
         in
         let universe = Array.to_list examples in
         List.for_all
           (fun clause ->
             let raw =
               Learner_oracle.coverage ctx clause ~pos:universe ~neg:universe
             in
             let normed =
               Coverage.coverage ctx
                 (Coverage.prepare ctx clause)
                 ~pos:universe ~neg:universe
             in
             if raw <> normed then
               QCheck.Test.fail_reportf
                 "coverage changed: raw (%d, %d) <> normalized (%d, %d)\n%s"
                 (fst raw) (snd raw) (fst normed) (snd normed)
                 (Clause.to_string clause)
             else true)
           clauses))

(* ------------------------------------------------------------------ *)
(* Cover-cache sharing across alpha-variants                           *)
(* ------------------------------------------------------------------ *)

(* Rescoring an alpha-renamed variant is a pure cache hit: both
   normalize to the same cover-cache key. *)
let alpha_cache_test =
  Alcotest.test_case "alpha-variant rescoring hits the cache" `Quick
    (fun () ->
      let universe = Array.to_list examples in
      let score ctx clause =
        let tested = ctx.Context.cover_stats.Context.tested in
        let before = Obs.value tested in
        ignore
          (Coverage.coverage ctx
             (Coverage.prepare ctx clause)
             ~pos:universe ~neg:universe);
        Obs.value tested - before
      in
      let rename c =
        Clause.map_terms
          (function
            | Term.Var name -> Term.var ("zz_" ^ name)
            | t -> t)
          c
      in
      let ctx = make_ctx () in
      let bottom = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
      ignore (score ctx bottom);
      Alcotest.(check int) "all verdicts cached" 0 (score ctx (rename bottom)))

(* ------------------------------------------------------------------ *)
(* The per-context normalization memo                                  *)
(* ------------------------------------------------------------------ *)

let normalized_c = Obs.counter "normalize.clauses"

let memo_tests =
  [
    Alcotest.test_case "equal clauses normalize once and share the form"
      `Quick (fun () ->
        let ctx = make_ctx () in
        let build () =
          Bottom_clause.build ctx Bottom_clause.Variable (ex "m1")
        in
        let c1 = build () and c2 = build () in
        Alcotest.(check bool) "separately built" false (c1 == c2);
        Alcotest.check clause_eq "structurally equal" c1 c2;
        let before = Obs.value normalized_c in
        let n1 = (Coverage.prepare ctx c1).Coverage.clause in
        let n2 = (Coverage.prepare ctx c2).Coverage.clause in
        Alcotest.(check int) "one normalization" 1
          (Obs.value normalized_c - before);
        Alcotest.(check bool) "one physical normal form" true (n1 == n2);
        Alcotest.check clause_eq "the normal form" (norm c1) n1);
    Alcotest.test_case "prepares from 4 domains agree with normalize" `Quick
      (fun () ->
        let ctx = make_ctx () in
        let bottoms =
          Array.to_list
            (Array.map (Bottom_clause.build ctx Bottom_clause.Variable)
               examples)
        in
        let clauses =
          bottoms
          @ List.concat_map
              (fun b ->
                List.filter_map (Generalization.armg ctx b)
                  (Array.to_list examples))
              bottoms
        in
        let runs =
          List.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  List.map
                    (fun c -> (Coverage.prepare ctx c).Coverage.clause)
                    clauses))
          |> List.map Domain.join
        in
        let first = List.hd runs in
        List.iter2
          (fun c n -> Alcotest.check clause_eq "normal form" (norm c) n)
          clauses first;
        List.iter
          (fun run ->
            Alcotest.(check bool) "every domain got the same forms" true
              (List.for_all2 ( == ) first run))
          runs);
  ]

let () =
  Alcotest.run "normalize"
    [
      ("passes", unit_tests);
      ("canonical form", [ invariance_test; idempotence_test ]);
      ("coverage", [ coverage_preservation_test ]);
      ("differential", [ alpha_cache_test ]);
      ("memo", memo_tests);
    ]
