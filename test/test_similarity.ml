open Dlearn_similarity

let close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %f, got %f" msg expected actual)
    true
    (Float.abs (expected -. actual) < eps)

let swg_tests =
  [
    Alcotest.test_case "identical strings score 1" `Quick (fun () ->
        close "identical" 1.0 (Smith_waterman.similarity "superbad" "superbad"));
    Alcotest.test_case "substring scores 1" `Quick (fun () ->
        close "substring" 1.0 (Smith_waterman.similarity "star wars" "star wars: episode iv"));
    Alcotest.test_case "empty scores 0" `Quick (fun () ->
        close "empty" 0.0 (Smith_waterman.similarity "" "abc"));
    Alcotest.test_case "disjoint alphabets score 0" `Quick (fun () ->
        close "disjoint" 0.0 (Smith_waterman.similarity "aaa" "bbb"));
    Alcotest.test_case "known small case" `Quick (fun () ->
        (* Best local alignment of abc/abd is "ab": raw 2.0; normalised by
           min-length 3. *)
        close "abc vs abd" (2.0 /. 3.0) (Smith_waterman.similarity "abc" "abd"));
    Alcotest.test_case "gap cheaper than mismatch here" `Quick (fun () ->
        (* ac vs abc: align a, open one gap (-0.5), then c: 1 + 1 - 0.5 = 1.5,
           normalised by 2. *)
        close "ac vs abc" 0.75 (Smith_waterman.similarity "ac" "abc"));
    Alcotest.test_case "raw score monotone in common prefix" `Quick (fun () ->
        Alcotest.(check bool) "longer common prefix scores more" true
          (Smith_waterman.raw_score "abcdef" "abcxyz"
          > Smith_waterman.raw_score "abcdef" "abxyzw"));
  ]

let length_tests =
  [
    Alcotest.test_case "ratio of lengths" `Quick (fun () ->
        close "3/6" 0.5 (Length_similarity.similarity "abc" "abcdef"));
    Alcotest.test_case "equal lengths" `Quick (fun () ->
        close "1" 1.0 (Length_similarity.similarity "abc" "xyz"));
    Alcotest.test_case "both empty" `Quick (fun () ->
        close "1" 1.0 (Length_similarity.similarity "" ""));
    Alcotest.test_case "one empty" `Quick (fun () ->
        close "0" 0.0 (Length_similarity.similarity "" "x"));
  ]

let levenshtein_tests =
  [
    Alcotest.test_case "kitten/sitting = 3" `Quick (fun () ->
        Alcotest.(check int) "distance" 3 (Levenshtein.distance "kitten" "sitting"));
    Alcotest.test_case "empty vs word" `Quick (fun () ->
        Alcotest.(check int) "distance" 4 (Levenshtein.distance "" "word"));
    Alcotest.test_case "identical" `Quick (fun () ->
        Alcotest.(check int) "distance" 0 (Levenshtein.distance "same" "same"));
    Alcotest.test_case "similarity normalised" `Quick (fun () ->
        close "1 - 3/7" (1.0 -. (3.0 /. 7.0)) (Levenshtein.similarity "kitten" "sitting"));
    Alcotest.test_case "sunday/saturday = 3" `Quick (fun () ->
        Alcotest.(check int) "distance" 3 (Levenshtein.distance "sunday" "saturday"));
    Alcotest.test_case "flaw/lawn = 2" `Quick (fun () ->
        Alcotest.(check int) "distance" 2 (Levenshtein.distance "flaw" "lawn"));
  ]

let jaro_tests =
  [
    Alcotest.test_case "martha/marhta" `Quick (fun () ->
        close ~eps:1e-4 "jaro" 0.9444 (Jaro_winkler.jaro "martha" "marhta");
        close ~eps:1e-4 "jw" 0.9611 (Jaro_winkler.similarity "martha" "marhta"));
    Alcotest.test_case "dwayne/duane" `Quick (fun () ->
        close ~eps:1e-4 "jaro" 0.8222 (Jaro_winkler.jaro "dwayne" "duane");
        close ~eps:1e-4 "jw" 0.8400 (Jaro_winkler.similarity "dwayne" "duane"));
    Alcotest.test_case "no common characters" `Quick (fun () ->
        close "0" 0.0 (Jaro_winkler.jaro "abc" "xyz"));
    Alcotest.test_case "dixon/dicksonx" `Quick (fun () ->
        (* The other classic Winkler pair: m=4, t=0 ->
           (4/5 + 4/8 + 4/4)/3 = 0.7667; prefix "di" lifts it to 0.8133. *)
        close ~eps:1e-4 "jaro" 0.7667 (Jaro_winkler.jaro "dixon" "dicksonx");
        close ~eps:1e-4 "jw" 0.8133 (Jaro_winkler.similarity "dixon" "dicksonx"));
  ]

let ngram_tests =
  [
    Alcotest.test_case "gram count with padding" `Quick (fun () ->
        (* "ab" padded to "##ab$$": 4 trigrams. *)
        Alcotest.(check int) "4 trigrams" 4 (List.length (Ngram.grams ~n:3 "ab")));
    Alcotest.test_case "empty string has no grams" `Quick (fun () ->
        Alcotest.(check int) "0" 0 (List.length (Ngram.grams ~n:3 "")));
    Alcotest.test_case "jaccard of identical strings" `Quick (fun () ->
        close "1" 1.0 (Ngram.jaccard ~n:3 "superbad" "superbad"));
    Alcotest.test_case "jaccard is case-insensitive" `Quick (fun () ->
        close "1" 1.0 (Ngram.jaccard ~n:3 "SuperBad" "superbad"));
    Alcotest.test_case "dice >= jaccard" `Quick (fun () ->
        let a = "star wars iv" and b = "star wars: episode iv" in
        Alcotest.(check bool) "dice >= jaccard" true
          (Ngram.dice ~n:3 a b >= Ngram.jaccard ~n:3 a b));
  ]

let combined_tests =
  [
    Alcotest.test_case "paper operator is the average" `Quick (fun () ->
        let a = "star wars" and b = "star wars: episode iv - 1977" in
        close "average"
          ((Smith_waterman.similarity a b +. Length_similarity.similarity a b) /. 2.0)
          (Combined.paper a b));
    Alcotest.test_case "case-insensitive" `Quick (fun () ->
        close "1" 1.0 (Combined.paper "Superbad" "SUPERBAD"));
    Alcotest.test_case "heterogeneous titles are similar" `Quick (fun () ->
        Alcotest.(check bool) "above 0.6" true
          (Combined.paper "Superbad" "Superbad (2007)" > 0.6));
    Alcotest.test_case "unrelated titles are dissimilar" `Quick (fun () ->
        Alcotest.(check bool) "below 0.6" true
          (Combined.paper "Superbad" "The Orphanage" < 0.6));
  ]

let sim_index_tests =
  let titles =
    [
      "Star Wars: Episode IV - 1977";
      "Star Wars: Episode III - 2005";
      "Superbad (2007)";
      "Zoolander (2001)";
      "The Orphanage (2007)";
    ]
  in
  [
    Alcotest.test_case "exact value found with score 1" `Quick (fun () ->
        let idx = Sim_index.create titles in
        match Sim_index.query idx ~km:1 ~threshold:0.9 "Superbad (2007)" with
        | [ (v, s) ] ->
            Alcotest.(check string) "value" "Superbad (2007)" v;
            close "score" 1.0 s
        | other -> Alcotest.failf "expected 1 hit, got %d" (List.length other));
    Alcotest.test_case "ambiguous match returns both episodes" `Quick (fun () ->
        let idx = Sim_index.create titles in
        let hits = Sim_index.query idx ~km:5 ~threshold:0.5 "Star Wars" in
        Alcotest.(check bool) "at least 2" true (List.length hits >= 2);
        let names = List.map fst hits in
        Alcotest.(check bool) "episode IV found" true
          (List.mem "Star Wars: Episode IV - 1977" names);
        Alcotest.(check bool) "episode III found" true
          (List.mem "Star Wars: Episode III - 2005" names));
    Alcotest.test_case "km cuts the result list" `Quick (fun () ->
        let idx = Sim_index.create titles in
        let hits = Sim_index.query idx ~km:1 ~threshold:0.3 "Star Wars" in
        Alcotest.(check int) "1 hit" 1 (List.length hits));
    Alcotest.test_case "results sorted by score" `Quick (fun () ->
        let idx = Sim_index.create titles in
        let hits = Sim_index.query idx ~km:5 ~threshold:0.2 "Superbad" in
        let scores = List.map snd hits in
        Alcotest.(check bool) "descending" true
          (List.sort (fun a b -> Float.compare b a) scores = scores));
    Alcotest.test_case "blocked query equals brute force on titles" `Quick (fun () ->
        let idx = Sim_index.create titles in
        List.iter
          (fun q ->
            let a = Sim_index.query idx ~km:5 ~threshold:0.6 q in
            let b = Sim_index.query_brute idx ~km:5 ~threshold:0.6 q in
            Alcotest.(check (list (pair string (float 1e-9)))) ("query " ^ q) b a)
          [ "Star Wars"; "Superbad"; "Zoolander"; "Orphanage" ]);
    Alcotest.test_case "match_pairs links columns" `Quick (fun () ->
        let pairs =
          Sim_index.match_pairs ~km:2 ~threshold:0.5 [ "Star Wars"; "Superbad" ]
            titles
        in
        Alcotest.(check bool) "nonempty" true (List.length pairs >= 2);
        List.iter
          (fun (_, _, s) ->
            Alcotest.(check bool) "score above threshold" true (s >= 0.5))
          pairs);
    Alcotest.test_case "deduplicates stored values" `Quick (fun () ->
        let idx = Sim_index.create [ "same"; "same"; "same" ] in
        Alcotest.(check int) "1 distinct" 1 (Sim_index.size idx));
  ]

let measure_tests =
  [
    Alcotest.test_case "index honours the configured measure" `Quick (fun () ->
        (* Under Levenshtein, "abcd" vs "abcx" scores 0.75; the paper
           operator scores it differently — check the measure is actually
           threaded through the index. *)
        let values = [ "abcd" ] in
        let lev = Sim_index.create ~measure:Combined.Levenshtein values in
        let hits = Sim_index.query lev ~km:1 ~threshold:0.74 "abcx" in
        Alcotest.(check int) "levenshtein accepts at 0.74" 1 (List.length hits);
        let jac = Sim_index.create ~measure:(Combined.Ngram_jaccard 3) values in
        let hits' = Sim_index.query jac ~km:1 ~threshold:0.74 "abcx" in
        Alcotest.(check int) "trigram jaccard rejects at 0.74" 0
          (List.length hits'));
    Alcotest.test_case "measure names are distinct" `Quick (fun () ->
        let names =
          List.map Combined.measure_name
            [
              Combined.Paper; Combined.Smith_waterman; Combined.Levenshtein;
              Combined.Jaro_winkler; Combined.Ngram_jaccard 3;
            ]
        in
        Alcotest.(check int) "5 distinct" 5
          (List.length (List.sort_uniq String.compare names)));
  ]

let qcheck_tests =
  let word =
    QCheck.make
      ~print:(fun s -> s)
      QCheck.Gen.(string_size ~gen:(char_range 'a' 'e') (0 -- 10))
  in
  let pair_words = QCheck.pair word word in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"swg similarity is symmetric" ~count:300 pair_words
         (fun (a, b) ->
           Float.abs (Smith_waterman.similarity a b -. Smith_waterman.similarity b a)
           < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"swg similarity within [0,1]" ~count:300 pair_words
         (fun (a, b) ->
           let s = Smith_waterman.similarity a b in
           s >= 0.0 && s <= 1.0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"levenshtein symmetric" ~count:300 pair_words
         (fun (a, b) -> Levenshtein.distance a b = Levenshtein.distance b a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"levenshtein triangle inequality" ~count:200
         (QCheck.triple word word word) (fun (a, b, c) ->
           Levenshtein.distance a c
           <= Levenshtein.distance a b + Levenshtein.distance b c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"levenshtein identity of indiscernibles" ~count:300
         pair_words (fun (a, b) -> Levenshtein.distance a b = 0 = (a = b)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"combined similarity bounded for all measures"
         ~count:200 pair_words (fun (a, b) ->
           List.for_all
             (fun m ->
               let s = Combined.similarity ~measure:m a b in
               s >= 0.0 && s <= 1.0)
             [
               Combined.Paper;
               Combined.Smith_waterman;
               Combined.Levenshtein;
               Combined.Jaro_winkler;
               Combined.Ngram_jaccard 3;
             ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"jaro-winkler >= jaro" ~count:300 pair_words
         (fun (a, b) ->
           Jaro_winkler.similarity a b >= Jaro_winkler.jaro a b -. 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"swg raw score is symmetric" ~count:300 pair_words
         (fun (a, b) ->
           Float.abs (Smith_waterman.raw_score a b -. Smith_waterman.raw_score b a)
           < 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"blocked query is a subset of brute force" ~count:100
         (QCheck.pair word (QCheck.list_of_size (QCheck.Gen.int_range 1 8) word))
         (fun (q, vs) ->
           let idx = Sim_index.create vs in
           let blocked = Sim_index.query idx ~km:10 ~threshold:0.5 q in
           let brute = Sim_index.query_brute idx ~km:10 ~threshold:0.5 q in
           List.for_all (fun (v, _) -> List.mem_assoc v brute) blocked));
    (let nonempty_word =
       QCheck.make
         ~print:(fun s -> s)
         QCheck.Gen.(string_size ~gen:(char_range 'a' 'e') (1 -- 10))
     in
     QCheck_alcotest.to_alcotest
       (QCheck.Test.make
          ~name:"blocked query equals brute force above threshold 0.9"
          ~count:200
          (QCheck.pair nonempty_word
             (QCheck.list_of_size (QCheck.Gen.int_range 1 8) nonempty_word))
          (fun (q, vs) ->
            (* At 0.9 under the paper operator, any qualifying pair is so
               close in edit structure that it must share a padded
               trigram, so n-gram blocking loses nothing and the blocked
               query is exactly the brute-force scan. (At lower
               thresholds this fails: "ab" vs "ba" scores 0.75 yet
               shares no padded trigram.) *)
            let norm l = List.sort compare l in
            let idx = Sim_index.create vs in
            let blocked = Sim_index.query idx ~km:10 ~threshold:0.9 q in
            let brute = Sim_index.query_brute idx ~km:10 ~threshold:0.9 q in
            norm blocked = norm brute)));
  ]

(* {2 Candidate dedup}

   A query sharing k grams with a stored value must reach the measure
   exactly once for that value, not k times — pinned through the
   [sim_index.measured] counter rather than timing. *)
let dedup_tests =
  let module Obs = Dlearn_obs.Obs in
  let measured = Obs.counter "sim_index.measured" in
  let candidates = Obs.counter "sim_index.candidates" in
  [
    Alcotest.test_case "value sharing many grams is measured once" `Quick
      (fun () ->
        (* "abcdefgh" yields 10 padded trigrams, every one shared with the
           identical query — yet one candidate, one measure call. *)
        let idx = Sim_index.create [ "abcdefgh" ] in
        let m0 = Obs.value measured and c0 = Obs.value candidates in
        let hits = Sim_index.query idx ~km:5 ~threshold:0.5 "abcdefgh" in
        Alcotest.(check int) "1 hit" 1 (List.length hits);
        Alcotest.(check int) "1 candidate" 1 (Obs.value candidates - c0);
        Alcotest.(check int) "1 measure call" 1 (Obs.value measured - m0));
    Alcotest.test_case "each candidate measured at most once" `Quick (fun () ->
        let values = [ "star wars"; "star trek"; "star gate"; "moonrise" ] in
        let idx = Sim_index.create values in
        let m0 = Obs.value measured and c0 = Obs.value candidates in
        ignore (Sim_index.query idx ~km:5 ~threshold:0.1 "star warp");
        let n_candidates = Obs.value candidates - c0 in
        Alcotest.(check bool)
          (Printf.sprintf "measured (%d) <= candidates (%d)"
             (Obs.value measured - m0) n_candidates)
          true
          (Obs.value measured - m0 <= n_candidates);
        Alcotest.(check bool) "candidates <= stored values" true
          (n_candidates <= List.length values));
    Alcotest.test_case "length prefilter prunes before measuring" `Quick
      (fun () ->
        let pruned = Obs.counter "sim_index.length_pruned" in
        (* A 2-char query against a 40-char value: score ceiling
           (1 + 2/40)/2 = 0.525 < 0.9, so the measure must not run. *)
        let long = String.make 40 'a' in
        let idx = Sim_index.create [ long ] in
        let m0 = Obs.value measured and p0 = Obs.value pruned in
        let hits = Sim_index.query idx ~km:5 ~threshold:0.9 "aa" in
        Alcotest.(check int) "no hits" 0 (List.length hits);
        Alcotest.(check int) "pruned once" 1 (Obs.value pruned - p0);
        Alcotest.(check int) "never measured" 0 (Obs.value measured - m0));
  ]

(* {2 Build determinism}

   The index's posting content must be byte-identical whatever the pool
   size. Fan-out is forced through the cost model so the parallel gram
   extraction runs even on single-core hosts, where the pool would
   otherwise keep every batch inline. *)
let determinism_tests =
  let module Pool = Dlearn_parallel.Pool in
  let values =
    (* Thousands of distinct values, with repeats to exercise
       sort_uniq. *)
    List.init 9000 (fun i ->
        Printf.sprintf "product %c%d model %d"
          (Char.chr (Char.code 'a' + (i mod 17)))
          (i mod 4111) (i * 31 mod 257))
  in
  [
    Alcotest.test_case
      "parallel build under forced fan-out equals the sequential build" `Quick
      (fun () ->
        let sequential =
          Sim_index.postings_digest (Sim_index.create ~jobs:1 values)
        in
        Pool.set_cost_model ~fanout_threshold:0 ();
        let parallel =
          Fun.protect ~finally:Pool.reset_cost_model (fun () ->
              Sim_index.postings_digest (Sim_index.create ~jobs:8 values))
        in
        Alcotest.(check string) "digest" sequential parallel);
    Alcotest.test_case "digest is stable across jobs 1/4/8" `Quick (fun () ->
        let digest jobs =
          Sim_index.postings_digest (Sim_index.create ~jobs values)
        in
        let d1 = digest 1 in
        Alcotest.(check string) "jobs 4" d1 (digest 4);
        Alcotest.(check string) "jobs 8" d1 (digest 8));
    Alcotest.test_case
      "parallel and sequential indexes answer queries identically" `Quick
      (fun () ->
        let queries =
          [ "product a100 model 7"; "product q4000"; "unrelated string" ]
        in
        let sequential = Sim_index.create ~jobs:1 values in
        Pool.set_cost_model ~fanout_threshold:0 ();
        let parallel =
          Fun.protect ~finally:Pool.reset_cost_model (fun () ->
              Sim_index.create ~jobs:8 values)
        in
        List.iter
          (fun q ->
            Alcotest.(check (list (pair string (float 1e-9))))
              ("query " ^ q)
              (Sim_index.query sequential ~km:5 ~threshold:0.6 q)
              (Sim_index.query parallel ~km:5 ~threshold:0.6 q))
          queries;
        (* match_pairs fans its queries out too: the batch answer must not
           depend on the pool size either. *)
        let pairs jobs =
          Sim_index.match_pairs ~jobs ~km:5 ~threshold:0.6 queries values
        in
        let sequential_pairs = pairs 1 in
        Pool.set_cost_model ~fanout_threshold:0 ();
        let parallel_pairs =
          Fun.protect ~finally:Pool.reset_cost_model (fun () -> pairs 8)
        in
        Alcotest.(check bool) "some pairs" true (sequential_pairs <> []);
        Alcotest.(check (list (triple string string (float 1e-9))))
          "match_pairs" sequential_pairs parallel_pairs);
  ]

(* {2 Blocked = brute across thresholds and pool sizes}

   Exactness argument per configuration:
   - n=1, θ ∈ {0.6, 0.8}: a paper-operator score ≥ θ > 0.5 forces
     SWG > 0, i.e. at least one aligned character pair — so query and
     value share a character, which with unigram blocking means the
     value is always a candidate.
   - n=3, θ = 0.9: any qualifying pair is close enough in edit
     structure to share a padded trigram (at lower thresholds this
     fails: "ab" vs "ba" scores 0.75 sharing no trigram). *)
let scale_qcheck_tests =
  let nonempty_word =
    QCheck.make
      ~print:(fun s -> s)
      QCheck.Gen.(string_size ~gen:(char_range 'a' 'e') (1 -- 10))
  in
  let gen =
    QCheck.pair nonempty_word
      (QCheck.list_of_size (QCheck.Gen.int_range 1 12) nonempty_word)
  in
  let norm l = List.sort compare l in
  List.concat_map
    (fun (threshold, n) ->
      List.map
        (fun jobs ->
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make
               ~name:
                 (Printf.sprintf
                    "blocked = brute at threshold %.1f, n=%d, jobs=%d" threshold
                    n jobs)
               ~count:150 gen
               (fun (q, vs) ->
                 let idx = Sim_index.create ~n ~jobs vs in
                 norm (Sim_index.query idx ~km:10 ~threshold q)
                 = norm (Sim_index.query_brute idx ~km:10 ~threshold q))))
        [ 1; 4; 8 ])
    [ (0.6, 1); (0.8, 1); (0.9, 3) ]

(* {2 Character-count ceiling}

   A local alignment's match columns pair equal bytes of the two
   lowercased strings, so the raw SWG score is at most [match_score ×
   char_overlap], and the measure's expression over that product bounds
   the exact score. The generators mix capitals, digits, spaces and bytes
   ≥ 128 into the words, and build values from the query's own words
   (shuffled, some dropped, some characters retyped), so the byte counts
   nearly agree while the alignments do not: the bound is tight and still
   has to hold. *)
let ceiling_tests =
  let module Obs = Dlearn_obs.Obs in
  let open QCheck.Gen in
  let wide_char =
    frequency
      [
        (4, char_range 'a' 'h');
        (3, char_range 'A' 'H');
        (1, char_range '0' '3');
        (1, return ' ');
        (1, map Char.chr (128 -- 131));
      ]
  in
  let word = string_size ~gen:wide_char (1 -- 8) in
  let retype w =
    map2
      (fun i c -> String.mapi (fun j x -> if j = i then c else x) w)
      (0 -- (String.length w - 1))
      wide_char
  in
  let variant words =
    flatten_l
      (List.map
         (fun w ->
           frequency
             [
               (2, return [ w ]);
               (1, map (fun w -> [ w ]) (retype w));
               (1, return [ String.uppercase_ascii w ]);
               (1, return []);
             ])
         words)
    >>= fun kept -> map (String.concat " ") (shuffle_l (List.concat kept))
  in
  let phrase = list_size (1 -- 4) word in
  let pairs =
    QCheck.make
      ~print:QCheck.Print.(pair string string)
      ( phrase >>= fun words ->
        map
          (fun b -> (String.concat " " words, b))
          (oneof [ variant words; map (String.concat " ") phrase ]) )
  in
  let query_and_values =
    QCheck.make
      ~print:QCheck.Print.(pair string (list string))
      ( phrase >>= fun words ->
        map
          (fun vs -> (String.concat " " words, vs))
          (list_size (1 -- 10) (variant words)) )
  in
  let swg_measures =
    [ ("paper", Combined.Paper); ("swg", Combined.Smith_waterman) ]
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"raw swg score is at most match_score x overlap"
         ~count:500 pairs (fun (a, b) ->
           let lower = String.lowercase_ascii in
           Smith_waterman.raw_score (lower a) (lower b)
           <= Smith_waterman.default_params.match_score
              *. float_of_int (Sim_index.char_overlap a b)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"count ceiling bounds the exact score" ~count:500
         pairs (fun (a, b) ->
           List.for_all
             (fun (_, measure) ->
               match Sim_index.count_ceiling measure a b with
               | Some c -> c >= Combined.similarity ~measure a b
               | None -> false)
             swg_measures));
    Alcotest.test_case "character counts prune what the length band passes"
      `Quick (fun () ->
        (* Equal lengths put the band's ceiling at 1.0. Four of the eight
           characters are shared, so the count ceiling is
           (4/8 + 1)/2 = 0.75 < 0.9: no exact measure runs. *)
        let names =
          [
            "sim_index.candidates"; "sim_index.length_pruned";
            "sim_index.count_pruned"; "sim_index.measured";
          ]
        in
        let read () = List.map (fun n -> Obs.value (Obs.counter n)) names in
        let idx = Sim_index.create [ "abcdefgh" ] in
        let before = read () in
        let hits = Sim_index.query idx ~km:5 ~threshold:0.9 "abcdwxyz" in
        Alcotest.(check int) "no hits" 0 (List.length hits);
        Alcotest.(check (list int))
          "candidates, length_pruned, count_pruned, measured" [ 1; 0; 1; 0 ]
          (List.map2 ( - ) (read ()) before);
        Alcotest.(check (option (float 0.)))
          "ceiling" (Some 0.75)
          (Sim_index.count_ceiling Combined.Paper "abcdwxyz" "abcdefgh"));
  ]
  (* Unigram blocking loses nothing here: a score ≥ 0.6 needs an SWG
     score > 0, so the query and the value share a character. [query]
     must then equal the unpruned scan exactly, scores and order
     included. *)
  @ List.concat_map
      (fun (label, measure) ->
        List.map
          (fun threshold ->
            QCheck_alcotest.to_alcotest
              (QCheck.Test.make
                 ~name:
                   (Printf.sprintf "query = brute, %s %.2f" label threshold)
                 ~count:150 query_and_values
                 (fun (q, vs) ->
                   let idx = Sim_index.create ~n:1 ~measure vs in
                   Sim_index.query idx ~km:10 ~threshold q
                   = Sim_index.query_brute idx ~km:10 ~threshold q)))
          [ 0.6; 0.8; 0.9; 0.95 ])
      swg_measures

let () =
  Alcotest.run "similarity"
    [
      ("smith_waterman", swg_tests);
      ("length", length_tests);
      ("levenshtein", levenshtein_tests);
      ("jaro_winkler", jaro_tests);
      ("ngram", ngram_tests);
      ("combined", combined_tests);
      ("sim_index", sim_index_tests);
      ("measures", measure_tests);
      ("properties", qcheck_tests);
      ("dedup", dedup_tests);
      ("determinism", determinism_tests);
      ("scale_properties", scale_qcheck_tests);
      ("count_ceiling", ceiling_tests);
    ]
