open Dlearn_relation
open Dlearn_constraints
open Dlearn_eval

let confusion tp fp tn fn = { Metrics.tp; fp; tn; fn }

let close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %f, got %f" msg expected actual)
    true
    (Float.abs (expected -. actual) < eps)

let metrics_tests =
  [
    Alcotest.test_case "perfect classifier" `Quick (fun () ->
        let c = confusion 10 0 20 0 in
        close "precision" 1.0 (Metrics.precision c);
        close "recall" 1.0 (Metrics.recall c);
        close "f1" 1.0 (Metrics.f1 c));
    Alcotest.test_case "empty prediction scores zero" `Quick (fun () ->
        let c = confusion 0 0 20 10 in
        close "precision" 0.0 (Metrics.precision c);
        close "f1" 0.0 (Metrics.f1 c));
    Alcotest.test_case "known values" `Quick (fun () ->
        let c = confusion 6 2 18 4 in
        close "precision" 0.75 (Metrics.precision c);
        close "recall" 0.6 (Metrics.recall c);
        close "f1" (2.0 *. 0.75 *. 0.6 /. 1.35) (Metrics.f1 c);
        close "accuracy" (24.0 /. 30.0) (Metrics.accuracy c));
    Alcotest.test_case "of_predictions counts correctly" `Quick (fun () ->
        let is_a t = Value.equal (Tuple.get t 0) (Value.String "a") in
        let c =
          Metrics.of_predictions ~predict:is_a
            ~pos:[ Tuple.of_strings [ "a" ]; Tuple.of_strings [ "b" ] ]
            ~neg:[ Tuple.of_strings [ "a" ]; Tuple.of_strings [ "c" ] ]
        in
        Alcotest.(check int) "tp" 1 c.Metrics.tp;
        Alcotest.(check int) "fp" 1 c.Metrics.fp;
        Alcotest.(check int) "tn" 1 c.Metrics.tn;
        Alcotest.(check int) "fn" 1 c.Metrics.fn);
    Alcotest.test_case "add sums componentwise" `Quick (fun () ->
        let c = Metrics.add (confusion 1 2 3 4) (confusion 10 20 30 40) in
        Alcotest.(check int) "tp" 11 c.Metrics.tp;
        Alcotest.(check int) "fn" 44 c.Metrics.fn);
  ]

let cv_tests =
  [
    Alcotest.test_case "folds partition both classes" `Quick (fun () ->
        let pos = List.init 23 (fun i -> i) in
        let neg = List.init 46 (fun i -> 100 + i) in
        let folds = Cross_validation.folds ~k:5 ~seed:1 ~pos ~neg in
        Alcotest.(check int) "5 folds" 5 (List.length folds);
        let all_test_pos =
          List.concat_map (fun f -> f.Cross_validation.test_pos) folds
        in
        Alcotest.(check int) "test positives cover all" 23
          (List.length (List.sort_uniq compare all_test_pos));
        List.iter
          (fun f ->
            Alcotest.(check int) "train+test = all (pos)" 23
              (List.length f.Cross_validation.train_pos
              + List.length f.Cross_validation.test_pos);
            List.iter
              (fun x ->
                Alcotest.(check bool) "no leakage" false
                  (List.mem x f.Cross_validation.train_pos))
              f.Cross_validation.test_pos)
          folds);
    Alcotest.test_case "deterministic in the seed" `Quick (fun () ->
        let pos = List.init 10 (fun i -> i) and neg = List.init 10 (fun i -> i) in
        let a = Cross_validation.folds ~k:5 ~seed:3 ~pos ~neg in
        let b = Cross_validation.folds ~k:5 ~seed:3 ~pos ~neg in
        Alcotest.(check bool) "same folds" true (a = b));
    Alcotest.test_case "too few examples rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Cross_validation.folds ~k:5 ~seed:1 ~pos:[ 1; 2 ] ~neg:[ 1 ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "mean and stddev" `Quick (fun () ->
        close "mean" 2.0 (Cross_validation.mean [ 1.0; 2.0; 3.0 ]);
        close "stddev" 1.0 (Cross_validation.stddev [ 1.0; 2.0; 3.0 ]);
        close "stddev of singleton" 0.0 (Cross_validation.stddev [ 5.0 ]));
  ]

let corrupt_tests =
  [
    Alcotest.test_case "typo changes the string" `Quick (fun () ->
        let rng = Random.State.make [| 5 |] in
        let distinct = ref 0 in
        for _ = 1 to 50 do
          if not (String.equal (Corrupt.typo rng "heterogeneous") "heterogeneous")
          then incr distinct
        done;
        (* A swap of two equal adjacent characters can be a no-op, but most
           edits change the string. *)
        Alcotest.(check bool) "mostly changed" true (!distinct > 40));
    Alcotest.test_case "typo keeps short strings" `Quick (fun () ->
        let rng = Random.State.make [| 5 |] in
        Alcotest.(check string) "single char" "x" (Corrupt.typo rng "x"));
    Alcotest.test_case "typo can touch the final character" `Quick (fun () ->
        (* The index is drawn per branch: drop must be able to remove the
           last character ("ab" -> "a") and duplicate must be able to
           double it ("ab" -> "abb"). With a shared [0, n-2] draw neither
           outcome could ever occur. *)
        let rng = Random.State.make [| 11 |] in
        let dropped_last = ref false and doubled_last = ref false in
        for _ = 1 to 500 do
          match Corrupt.typo rng "ab" with
          | "a" -> dropped_last := true
          | "abb" -> doubled_last := true
          | _ -> ()
        done;
        Alcotest.(check bool) "drop reaches last char" true !dropped_last;
        Alcotest.(check bool) "duplicate reaches last char" true !doubled_last);
    Alcotest.test_case "title variants stay recognisable" `Quick (fun () ->
        let rng = Random.State.make [| 5 |] in
        for _ = 1 to 20 do
          let v = Corrupt.movie_title_variant rng ~title:"The Dark Empire" ~year:1984 in
          Alcotest.(check bool) ("variant similar: " ^ v) true
            (Dlearn_similarity.Combined.paper "The Dark Empire (1984)" v > 0.6)
        done);
    Alcotest.test_case "abbreviate keeps the last name" `Quick (fun () ->
        let rng = Random.State.make [| 5 |] in
        for _ = 1 to 20 do
          let v = Corrupt.abbreviate_name rng "John Smith" in
          Alcotest.(check bool) ("ends with Smith: " ^ v) true
            (String.ends_with ~suffix:"Smith" v)
        done);
    Alcotest.test_case "maybe applies with probability" `Quick (fun () ->
        let rng = Random.State.make [| 5 |] in
        let never = Corrupt.maybe rng 0.0 (fun _ -> "changed") "same" in
        Alcotest.(check string) "p=0 never" "same" never;
        let always = Corrupt.maybe rng 1.0 (fun _ -> "changed") "same" in
        Alcotest.(check string) "p=1 always" "changed" always);
  ]

let check_workload w ~relations =
  Alcotest.(check int)
    (w.Workload.name ^ " relation count")
    relations
    (List.length (Database.relations w.Workload.db));
  Alcotest.(check bool) "has positives" true (List.length w.Workload.pos >= 5);
  Alcotest.(check bool) "negatives ~2x positives" true
    (List.length w.Workload.neg >= List.length w.Workload.pos);
  List.iter
    (fun (md : Md.t) ->
      Alcotest.(check bool) "md relations exist" true
        (Database.mem w.Workload.db md.Md.left_rel
        && Database.mem w.Workload.db md.Md.right_rel))
    w.Workload.mds;
  List.iter
    (fun (cfd : Cfd.t) ->
      Alcotest.(check bool) "cfd relation exists" true
        (Database.mem w.Workload.db cfd.Cfd.relation))
    w.Workload.cfds;
  (* The generated databases are clean before injection. *)
  Alcotest.(check int) "no violations before injection" 0
    (Violation.count w.Workload.cfds w.Workload.db)

let generator_tests =
  [
    Alcotest.test_case "imdb_omdb one MD" `Quick (fun () ->
        let w = Imdb_omdb.generate ~n:100 `One_md in
        check_workload w ~relations:10;
        Alcotest.(check int) "1 MD" 1 (List.length w.Workload.mds);
        Alcotest.(check int) "4 CFDs" 4 (List.length w.Workload.cfds));
    Alcotest.test_case "imdb_omdb three MDs" `Quick (fun () ->
        let w = Imdb_omdb.generate ~n:100 `Three_mds in
        Alcotest.(check int) "3 MDs" 3 (List.length w.Workload.mds));
    Alcotest.test_case "walmart_amazon" `Quick (fun () ->
        let w = Walmart_amazon.generate ~n:100 () in
        check_workload w ~relations:8;
        Alcotest.(check int) "6 CFDs" 6 (List.length w.Workload.cfds));
    Alcotest.test_case "dblp_scholar" `Quick (fun () ->
        let w = Dblp_scholar.generate ~n:80 () in
        check_workload w ~relations:4;
        Alcotest.(check int) "2 MDs" 2 (List.length w.Workload.mds);
        Alcotest.(check int) "2 CFDs" 2 (List.length w.Workload.cfds);
        (* One positive and one hard negative per paper. *)
        Alcotest.(check int) "80 positives" 80 (List.length w.Workload.pos);
        Alcotest.(check int) "80 negatives" 80 (List.length w.Workload.neg));
    Alcotest.test_case "generation is deterministic" `Quick (fun () ->
        let a = Imdb_omdb.generate ~n:40 ~seed:5 `One_md in
        let b = Imdb_omdb.generate ~n:40 ~seed:5 `One_md in
        Alcotest.(check int) "same tuple count"
          (Database.total_tuples a.Workload.db)
          (Database.total_tuples b.Workload.db);
        Alcotest.(check bool) "same positives" true
          (List.for_all2 Tuple.equal a.Workload.pos b.Workload.pos));
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Imdb_omdb.generate ~n:40 ~seed:5 `One_md in
        let b = Imdb_omdb.generate ~n:40 ~seed:6 `One_md in
        let titles w =
          Relation.distinct_values (Database.find w.Workload.db "imdb_movies") 1
          |> List.map Value.to_string |> List.sort String.compare
        in
        Alcotest.(check bool) "titles differ" false (titles a = titles b));
  ]

let injection_tests =
  [
    Alcotest.test_case "injection creates violations" `Quick (fun () ->
        let w = Imdb_omdb.generate ~n:60 `One_md in
        let w' = Workload.inject_violations w ~p:0.10 ~seed:3 in
        Alcotest.(check bool) "violations present" true
          (Violation.count w'.Workload.cfds w'.Workload.db > 0);
        Alcotest.(check int) "original untouched" 0
          (Violation.count w.Workload.cfds w.Workload.db));
    Alcotest.test_case "higher p injects more" `Quick (fun () ->
        let w = Imdb_omdb.generate ~n:60 `One_md in
        let v p =
          let w' = Workload.inject_violations w ~p ~seed:3 in
          Violation.count w'.Workload.cfds w'.Workload.db
        in
        Alcotest.(check bool) "monotone" true (v 0.20 > v 0.05));
    Alcotest.test_case "p = 0 is the identity" `Quick (fun () ->
        let w = Imdb_omdb.generate ~n:60 `One_md in
        let w' = Workload.inject_violations w ~p:0.0 ~seed:3 in
        Alcotest.(check bool) "same database value" true (w'.Workload.db == w.Workload.db));
    Alcotest.test_case "minimal repair cleans an injected workload" `Quick
      (fun () ->
        let w = Imdb_omdb.generate ~n:60 `One_md in
        let w' = Workload.inject_violations w ~p:0.10 ~seed:3 in
        let repaired = Minimal_repair.repair w'.Workload.cfds w'.Workload.db in
        Alcotest.(check int) "clean after repair" 0
          (Violation.count w'.Workload.cfds repaired));
    Alcotest.test_case "with_examples subsamples" `Quick (fun () ->
        let w = Imdb_omdb.generate ~n:100 `One_md in
        let w' = Workload.with_examples w ~pos:5 ~neg:10 ~seed:3 in
        Alcotest.(check int) "5 positives" 5 (List.length w'.Workload.pos);
        Alcotest.(check int) "10 negatives" 10 (List.length w'.Workload.neg);
        List.iter
          (fun e ->
            Alcotest.(check bool) "subset" true
              (List.exists (Tuple.equal e) w.Workload.pos))
          w'.Workload.pos);
  ]

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"f1 is bounded by precision and recall" ~count:300
         QCheck.(quad (0 -- 50) (0 -- 50) (0 -- 50) (0 -- 50))
         (fun (tp, fp, tn, fn) ->
           let c = confusion tp fp tn fn in
           let f1 = Metrics.f1 c in
           f1 >= 0.0
           && f1 <= max (Metrics.precision c) (Metrics.recall c) +. 1e-9));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"cv folds preserve class sizes" ~count:50
         QCheck.(pair (5 -- 40) (5 -- 40))
         (fun (np, nn) ->
           let pos = List.init np Fun.id and neg = List.init nn Fun.id in
           Cross_validation.folds ~k:5 ~seed:0 ~pos ~neg
           |> List.for_all (fun f ->
                  List.length f.Cross_validation.train_pos
                  + List.length f.Cross_validation.test_pos
                  = np
                  && List.length f.Cross_validation.train_neg
                     + List.length f.Cross_validation.test_neg
                     = nn)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"typo changes length by at most one" ~count:300
         QCheck.(pair small_int (string_of_size (QCheck.Gen.int_range 2 20)))
         (fun (seed, s) ->
           let rng = Random.State.make [| seed |] in
           abs (String.length (Corrupt.typo rng s) - String.length s) <= 1));
  ]


let plot_tests =
  [
    Alcotest.test_case "bars scale to the maximum" `Quick (fun () ->
        let out =
          Ascii_plot.series ~title:"t" ~unit_label:"u"
            [ ("a", 1.0); ("b", 2.0) ]
        in
        let lines = String.split_on_char '\n' out in
        (match lines with
        | _ :: a :: b :: _ ->
            let count_hashes s =
              String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 s
            in
            Alcotest.(check int) "b has 40 hashes" 40 (count_hashes b);
            Alcotest.(check int) "a has 20 hashes" 20 (count_hashes a)
        | _ -> Alcotest.fail "unexpected shape"));
    Alcotest.test_case "all-zero series renders empty bars" `Quick (fun () ->
        let out =
          Ascii_plot.series ~title:"t" ~unit_label:"u" [ ("a", 0.0) ]
        in
        Alcotest.(check bool) "no hashes" false (String.contains out '#'));
    Alcotest.test_case "labels are aligned" `Quick (fun () ->
        let out =
          Ascii_plot.series ~title:"t" ~unit_label:"u"
            [ ("x", 1.0); ("long-label", 1.0) ]
        in
        let lines = String.split_on_char '\n' out in
        (match lines with
        | _ :: a :: b :: _ ->
            Alcotest.(check int) "bars start at the same column"
              (String.index a '|') (String.index b '|')
        | _ -> Alcotest.fail "unexpected shape"));
  ]

let describe_tests =
  [
    Alcotest.test_case "describe mentions the counts" `Quick (fun () ->
        let w = Imdb_omdb.generate ~n:30 `One_md in
        let d = Workload.describe w in
        Alcotest.(check bool) "mentions MDs" true
          (String.length d > 0
          &&
          let has sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length d
              && (String.sub d i n = sub || go (i + 1))
            in
            go 0
          in
          has "1 MDs" && has "4 CFDs"));
  ]

(* {2 Scale generator} *)

let with_temp_dir f =
  let dir = Filename.temp_file "dlearn_sgen" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun file -> Sys.remove (Filename.concat dir file))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scale_gen_tests =
  let small = { Scale_gen.default with Scale_gen.tuples = 2000 } in
  [
    Alcotest.test_case "equal configs produce byte-identical datasets" `Quick
      (fun () ->
        with_temp_dir (fun dir1 ->
            with_temp_dir (fun dir2 ->
                let s1 = Scale_gen.generate ~config:small dir1 in
                let s2 = Scale_gen.generate ~config:small dir2 in
                Alcotest.(check int) "same bytes" s1.Scale_gen.bytes
                  s2.Scale_gen.bytes;
                List.iter
                  (fun name ->
                    Alcotest.(check string)
                      (name ^ " byte-identical")
                      (read_file (Storage.csv_path dir1 name))
                      (read_file (Storage.csv_path dir2 name)))
                  [ Scale_gen.src_name; Scale_gen.dst_name ])));
    Alcotest.test_case "different seeds produce different datasets" `Quick
      (fun () ->
        with_temp_dir (fun dir1 ->
            with_temp_dir (fun dir2 ->
                ignore (Scale_gen.generate ~config:small dir1);
                ignore
                  (Scale_gen.generate
                     ~config:{ small with Scale_gen.seed = 8 }
                     dir2);
                Alcotest.(check bool) "src differs" true
                  (read_file (Storage.csv_path dir1 Scale_gen.src_name)
                  <> read_file (Storage.csv_path dir2 Scale_gen.src_name)))));
    Alcotest.test_case "row counts and dirt follow the config" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = Scale_gen.generate ~config:small dir in
            Alcotest.(check (list (pair string int)))
              "rows per relation"
              [
                (Scale_gen.src_name, small.Scale_gen.tuples);
                (Scale_gen.dst_name, small.Scale_gen.tuples);
              ]
              s.Scale_gen.relations;
            (* 10% title dirt (twice: variant + typo) over 2000 rows: the
               corrupted count is concentrated around ~19%; wide bounds
               keep this a behaviour pin, not a statistics test. *)
            Alcotest.(check bool)
              (Printf.sprintf "corrupted in range: %d" s.Scale_gen.corrupted)
              true
              (s.Scale_gen.corrupted > 100 && s.Scale_gen.corrupted < 800);
            Alcotest.(check bool)
              (Printf.sprintf "duplicates in range: %d" s.Scale_gen.duplicates)
              true
              (s.Scale_gen.duplicates > 20 && s.Scale_gen.duplicates < 400)));
    Alcotest.test_case "dataset loads back through Storage" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let config = { small with Scale_gen.tuples = 300 } in
            ignore (Scale_gen.generate ~config dir);
            let db = Storage.load dir in
            let src = Database.find db Scale_gen.src_name in
            Alcotest.(check int) "src rows" 300 (Relation.cardinality src);
            (* The manifest types pid as int and price as float, and the
               loader applies it. *)
            let t = Relation.get src 0 in
            (match Tuple.get t 0 with
            | Value.Int _ -> ()
            | v -> Alcotest.failf "pid not an int: %s" (Value.to_string v));
            match Tuple.get t 4 with
            | Value.Float _ -> ()
            | v -> Alcotest.failf "price not a float: %s" (Value.to_string v)));
    Alcotest.test_case "zero dirt leaves every title clean" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let config =
              { small with Scale_gen.tuples = 500; dirt_rate = 0.0 }
            in
            let s = Scale_gen.generate ~config dir in
            Alcotest.(check int) "no corrupted titles" 0 s.Scale_gen.corrupted));
    Alcotest.test_case "streaming keeps the live heap flat" `Quick (fun () ->
        (* Peak RSS is a high-water mark for the whole process, so compare
           live words after a full major GC instead: a scan holds one row
           at a time, a load holds every relation. The bound is an eighth,
           not a quarter: a scan that buffered one whole relation would
           hold about a quarter of what the load holds. *)
        with_temp_dir (fun dir ->
            ignore (Scale_gen.generate ~config:small dir);
            let live () =
              Gc.full_major ();
              (Gc.stat ()).Gc.live_words
            in
            let base = live () in
            let streamed_peak = ref base in
            let rows =
              List.fold_left
                (fun acc name ->
                  Storage.scan dir name ~init:acc ~f:(fun acc _tu ->
                      if (acc + 1) mod 500 = 0 then
                        streamed_peak := max !streamed_peak (live ());
                      acc + 1))
                0
                [ Scale_gen.src_name; Scale_gen.dst_name ]
            in
            let streamed = !streamed_peak - base in
            let db = Storage.load dir in
            let materialized = live () - base in
            Alcotest.(check int) "streamed rows" 4000 rows;
            (* [db] is used here, so it was reachable when measured. *)
            Alcotest.(check int) "loaded tuples" 4000 (Database.total_tuples db);
            Alcotest.(check bool)
              (Printf.sprintf "streaming grew %d words, materializing %d"
                 streamed materialized)
              true
              (8 * streamed < materialized)));
    Alcotest.test_case "invalid configs are rejected" `Quick (fun () ->
        Alcotest.(check bool) "default validates" true
          (Scale_gen.validate Scale_gen.default = Ok ());
        List.iter
          (fun config ->
            Alcotest.(check bool) "validate errors" true
              (Result.is_error (Scale_gen.validate config));
            with_temp_dir (fun dir ->
                Alcotest.(check bool) "raises" true
                  (try
                     ignore (Scale_gen.generate ~config dir);
                     false
                   with Invalid_argument _ -> true)))
          [
            { Scale_gen.default with Scale_gen.tuples = 0 };
            { Scale_gen.default with Scale_gen.dirt_rate = 1.5 };
            { Scale_gen.default with Scale_gen.duplicate_rate = -0.1 };
            { Scale_gen.default with Scale_gen.vocab = 4 };
          ]);
  ]

let () =
  Alcotest.run "eval"
    [
      ("metrics", metrics_tests);
      ("cross_validation", cv_tests);
      ("corrupt", corrupt_tests);
      ("generators", generator_tests);
      ("injection", injection_tests);
      ("properties", qcheck_tests);
      ("ascii_plot", plot_tests);
      ("describe", describe_tests);
      ("scale_gen", scale_gen_tests);
    ]
