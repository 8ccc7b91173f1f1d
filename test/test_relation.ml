open Dlearn_relation

let value_tests =
  [
    Alcotest.test_case "of_string parses ints" `Quick (fun () ->
        Alcotest.(check bool) "int" true (Value.equal (Value.of_string "42") (Value.Int 42)));
    Alcotest.test_case "of_string parses floats" `Quick (fun () ->
        Alcotest.(check bool)
          "float" true
          (Value.equal (Value.of_string "3.5") (Value.Float 3.5)));
    Alcotest.test_case "of_string keeps strings" `Quick (fun () ->
        Alcotest.(check bool)
          "string" true
          (Value.equal (Value.of_string "Star Wars") (Value.String "Star Wars")));
    Alcotest.test_case "of_string empty is null" `Quick (fun () ->
        Alcotest.(check bool) "null" true (Value.is_null (Value.of_string "")));
    Alcotest.test_case "equality is per constructor" `Quick (fun () ->
        Alcotest.(check bool)
          "Int 1 <> String 1" false
          (Value.equal (Value.Int 1) (Value.String "1")));
    Alcotest.test_case "compare orders within constructor" `Quick (fun () ->
        Alcotest.(check bool) "1 < 2" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
        Alcotest.(check bool)
          "a < b" true
          (Value.compare (Value.String "a") (Value.String "b") < 0));
    Alcotest.test_case "hash agrees with equal" `Quick (fun () ->
        Alcotest.(check int)
          "same hash"
          (Value.hash (Value.String "x"))
          (Value.hash (Value.String "x")));
  ]

let schema_tests =
  [
    Alcotest.test_case "position lookup" `Quick (fun () ->
        let s = Schema.string_attrs "movies" [ "id"; "title"; "year" ] in
        Alcotest.(check int) "title at 1" 1 (Schema.position s "title");
        Alcotest.(check int) "arity" 3 (Schema.arity s));
    Alcotest.test_case "missing attribute raises" `Quick (fun () ->
        let s = Schema.string_attrs "r" [ "a" ] in
        Alcotest.check_raises "Not_found" Not_found (fun () ->
            ignore (Schema.position s "zz")));
    Alcotest.test_case "duplicate attribute rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Schema.string_attrs "r" [ "a"; "a" ]);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "empty attributes rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Schema.make "r" []);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "comparable by domain" `Quick (fun () ->
        let s = Schema.make "r" [ { Schema.attr_name = "a"; domain = Schema.Dint } ] in
        let u = Schema.string_attrs "q" [ "b" ] in
        Alcotest.(check bool) "int vs string" false (Schema.comparable s 0 u 0);
        Alcotest.(check bool) "string vs string" true (Schema.comparable u 0 u 0));
  ]

let tuple_tests =
  [
    Alcotest.test_case "project keeps order" `Quick (fun () ->
        let t = Tuple.of_strings [ "a"; "b"; "c" ] in
        let p = Tuple.project t [| 2; 0 |] in
        Alcotest.(check string) "projected" "(c, a)" (Tuple.to_string p));
    Alcotest.test_case "set is persistent" `Quick (fun () ->
        let t = Tuple.of_strings [ "a"; "b" ] in
        let t' = Tuple.set t 0 (Value.String "z") in
        Alcotest.(check bool) "original intact" true
          (Value.equal (Tuple.get t 0) (Value.String "a"));
        Alcotest.(check bool) "copy updated" true
          (Value.equal (Tuple.get t' 0) (Value.String "z")));
    Alcotest.test_case "equal tuples share hash" `Quick (fun () ->
        let a = Tuple.of_strings [ "x"; "7" ] and b = Tuple.of_strings [ "x"; "7" ] in
        Alcotest.(check bool) "equal" true (Tuple.equal a b);
        Alcotest.(check int) "hash" (Tuple.hash a) (Tuple.hash b));
    Alcotest.test_case "compare is lexicographic" `Quick (fun () ->
        let a = Tuple.of_strings [ "a"; "b" ] and b = Tuple.of_strings [ "a"; "c" ] in
        Alcotest.(check bool) "a < b" true (Tuple.compare a b < 0));
  ]

let movies_relation () =
  let s = Schema.string_attrs "movies" [ "id"; "title"; "year" ] in
  let r = Relation.create s in
  Relation.insert_all r
    [
      Tuple.of_strings [ "m1"; "Superbad (2007)"; "y2007" ];
      Tuple.of_strings [ "m2"; "Zoolander (2001)"; "y2001" ];
      Tuple.of_strings [ "m3"; "Orphanage (2007)"; "y2007" ];
    ];
  r

let relation_tests =
  [
    Alcotest.test_case "indexed selection" `Quick (fun () ->
        let r = movies_relation () in
        let hits = Relation.select_eq r 2 (Value.String "y2007") in
        Alcotest.(check int) "two 2007 movies" 2 (List.length hits));
    Alcotest.test_case "duplicates are kept" `Quick (fun () ->
        let r = movies_relation () in
        ignore (Relation.insert r (Tuple.of_strings [ "m1"; "Superbad (2007)"; "y2007" ]));
        Alcotest.(check int) "4 tuples" 4 (Relation.cardinality r);
        Alcotest.(check int) "two m1 hits" 2
          (List.length (Relation.select_eq r 0 (Value.String "m1"))));
    Alcotest.test_case "distinct values" `Quick (fun () ->
        let r = movies_relation () in
        Alcotest.(check int) "2 distinct years" 2
          (List.length (Relation.distinct_values r 2)));
    Alcotest.test_case "arity mismatch rejected" `Quick (fun () ->
        let r = movies_relation () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Relation.insert r (Tuple.of_strings [ "only-one" ]));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "filter builds fresh indexed relation" `Quick (fun () ->
        let r = movies_relation () in
        let dramas = Relation.filter (fun t ->
            Value.equal (Tuple.get t 2) (Value.String "y2007")) r in
        Alcotest.(check int) "2 kept" 2 (Relation.cardinality dramas);
        Alcotest.(check int) "index rebuilt" 1
          (List.length (Relation.select_eq dramas 0 (Value.String "m1"))));
    Alcotest.test_case "contains" `Quick (fun () ->
        let r = movies_relation () in
        Alcotest.(check bool) "present" true
          (Relation.contains r (Tuple.of_strings [ "m2"; "Zoolander (2001)"; "y2001" ]));
        Alcotest.(check bool) "absent" false
          (Relation.contains r (Tuple.of_strings [ "m2"; "Zoolander"; "y2001" ])));
    Alcotest.test_case "holds_value" `Quick (fun () ->
        let r = movies_relation () in
        Alcotest.(check bool) "yes" true (Relation.holds_value r 0 (Value.String "m3"));
        Alcotest.(check bool) "no" false (Relation.holds_value r 0 (Value.String "m9")));
    Alcotest.test_case "map_tuples rewrites" `Quick (fun () ->
        let r = movies_relation () in
        let r' = Relation.map_tuples (fun t -> Tuple.set t 2 (Value.String "yX")) r in
        Alcotest.(check int) "all rewritten" 3
          (List.length (Relation.select_eq r' 2 (Value.String "yX"))));
  ]

let database_tests =
  [
    Alcotest.test_case "find and mem" `Quick (fun () ->
        let db = Database.create () in
        Database.add_relation db (movies_relation ());
        Alcotest.(check bool) "mem" true (Database.mem db "movies");
        Alcotest.(check int) "tuples" 3 (Database.total_tuples db));
    Alcotest.test_case "duplicate name rejected" `Quick (fun () ->
        let db = Database.create () in
        Database.add_relation db (movies_relation ());
        Alcotest.(check bool) "raises" true
          (try
             Database.add_relation db (movies_relation ());
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "copy is deep" `Quick (fun () ->
        let db = Database.create () in
        Database.add_relation db (movies_relation ());
        let db' = Database.copy db in
        ignore
          (Relation.insert (Database.find db' "movies")
             (Tuple.of_strings [ "m4"; "New"; "y2020" ]));
        Alcotest.(check int) "original unchanged" 3
          (Relation.cardinality (Database.find db "movies"));
        Alcotest.(check int) "copy grew" 4
          (Relation.cardinality (Database.find db' "movies")));
    Alcotest.test_case "relation order preserved" `Quick (fun () ->
        let db = Database.create () in
        ignore (Database.create_relation db (Schema.string_attrs "b" [ "x" ]));
        ignore (Database.create_relation db (Schema.string_attrs "a" [ "x" ]));
        Alcotest.(check (list string)) "order" [ "b"; "a" ] (Database.relation_names db));
    Alcotest.test_case "replace_relation rebinds a loaded relation" `Quick
      (fun () ->
        let db = Database.create () in
        Database.add_relation db (movies_relation ());
        ignore (Database.create_relation db (Schema.string_attrs "b" [ "x" ]));
        let updated =
          Relation.with_tuple (Database.find db "movies") 0
            (Tuple.of_strings [ "m1"; "Renamed"; "y2007" ])
        in
        Database.replace_relation db updated;
        Alcotest.(check bool) "find returns the new relation" true
          (Database.find db "movies" == updated);
        Alcotest.(check (list string)) "order kept" [ "movies"; "b" ]
          (Database.relation_names db);
        Alcotest.(check int) "tuples" 3 (Database.total_tuples db));
    Alcotest.test_case "replace_relation rejects unknown names" `Quick
      (fun () ->
        let db = Database.create () in
        Database.add_relation db (movies_relation ());
        Alcotest.(check bool) "unknown rejected" true
          (try
             Database.replace_relation db
               (Relation.create (Schema.string_attrs "nope" [ "x" ]));
             false
           with Invalid_argument _ -> true));
  ]

let csv_tests =
  [
    Alcotest.test_case "parse simple" `Quick (fun () ->
        Alcotest.(check (list string)) "fields" [ "a"; "b"; "c" ] (Csv.parse_line "a,b,c"));
    Alcotest.test_case "parse quoted with comma" `Quick (fun () ->
        Alcotest.(check (list string))
          "fields" [ "a,b"; "c" ]
          (Csv.parse_line "\"a,b\",c"));
    Alcotest.test_case "parse doubled quotes" `Quick (fun () ->
        Alcotest.(check (list string))
          "fields" [ "say \"hi\""; "x" ]
          (Csv.parse_line "\"say \"\"hi\"\"\",x"));
    Alcotest.test_case "parse empty fields" `Quick (fun () ->
        Alcotest.(check (list string)) "fields" [ ""; ""; "" ] (Csv.parse_line ",,"));
    Alcotest.test_case "render quotes when needed" `Quick (fun () ->
        Alcotest.(check string) "quoted" "\"a,b\",c" (Csv.render_line [ "a,b"; "c" ]));
    Alcotest.test_case "file round trip" `Quick (fun () ->
        let r = movies_relation () in
        let path = Filename.temp_file "dlearn" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Csv.save r path;
            let r' = Csv.load (Relation.schema r) path in
            Alcotest.(check int) "same size" (Relation.cardinality r)
              (Relation.cardinality r');
            Relation.iter
              (fun _ t ->
                Alcotest.(check bool) "tuple present" true (Relation.contains r' t))
              r));
    Alcotest.test_case "load strips CRLF line endings" `Quick (fun () ->
        (* A file written by a Windows tool: every record ends in \r\n.
           The \r must not leak into the last column's value. *)
        let schema = Schema.string_attrs "m" [ "id"; "title" ] in
        let path = Filename.temp_file "dlearn_crlf" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out_bin path in
            output_string oc "m1,Alien\r\nm2,\"Up, Down\"\r\n";
            close_out oc;
            let r = Csv.load schema path in
            Alcotest.(check int) "two tuples" 2 (Relation.cardinality r);
            Alcotest.(check bool)
              "last column clean" true
              (Relation.contains r (Tuple.of_strings [ "m1"; "Alien" ]));
            Alcotest.(check bool)
              "quoted field clean" true
              (Relation.contains r (Tuple.of_strings [ "m2"; "Up, Down" ]))));
    Alcotest.test_case "round trip survives CRLF rewriting" `Quick (fun () ->
        (* save/load over a file whose LF terminators were rewritten to
           CRLF in transit — including a field that itself contains \r,
           which save quotes and load must preserve. *)
        let schema = Schema.string_attrs "m" [ "id"; "note" ] in
        let r = Relation.create schema in
        ignore (Relation.insert r (Tuple.of_strings [ "m1"; "line\rfeed" ]));
        ignore (Relation.insert r (Tuple.of_strings [ "m2"; "plain" ]));
        let path = Filename.temp_file "dlearn_crlf_rt" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Csv.save r path;
            let ic = open_in_bin path in
            let contents = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let crlf =
              String.concat "\r\n" (String.split_on_char '\n' contents)
            in
            let oc = open_out_bin path in
            output_string oc crlf;
            close_out oc;
            let r' = Csv.load schema path in
            Alcotest.(check int) "same size" 2 (Relation.cardinality r');
            Relation.iter
              (fun _ t ->
                Alcotest.(check bool) "tuple survives" true
                  (Relation.contains r' t))
              r));
  ]

let index_tests =
  [
    Alcotest.test_case "lookup returns insertion order" `Quick (fun () ->
        let idx = Index.create () in
        let v = Value.String "x" in
        List.iter (Index.add idx v) [ 1; 2; 3 ];
        Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Index.lookup idx v);
        (* The memoized view must stay physically stable across repeated
           lookups and be invalidated by the next insertion. *)
        Alcotest.(check bool)
          "memoized" true
          (Index.lookup idx v == Index.lookup idx v);
        Index.add idx v 4;
        Alcotest.(check (list int))
          "order after insert" [ 1; 2; 3; 4 ] (Index.lookup idx v));
    Alcotest.test_case "lookup keeps duplicates in order" `Quick (fun () ->
        let idx = Index.create () in
        let v = Value.Int 7 in
        List.iter (Index.add idx v) [ 5; 5; 9 ];
        Alcotest.(check (list int)) "duplicates" [ 5; 5; 9 ] (Index.lookup idx v));
    Alcotest.test_case "lookup of absent value is empty" `Quick (fun () ->
        let idx = Index.create () in
        Alcotest.(check (list int)) "empty" [] (Index.lookup idx (Value.Int 0)));
  ]

let text_table_tests =
  [
    Alcotest.test_case "columns aligned" `Quick (fun () ->
        let out = Text_table.render ~header:[ "a"; "long" ] [ [ "xxx"; "y" ] ] in
        let lines = String.split_on_char '\n' out in
        (match lines with
        | h :: _ :: row :: _ ->
            Alcotest.(check int) "same width" (String.length h) (String.length row)
        | _ -> Alcotest.fail "unexpected shape"));
    Alcotest.test_case "short rows padded" `Quick (fun () ->
        let out = Text_table.render ~header:[ "a"; "b" ] [ [ "only" ] ] in
        Alcotest.(check bool) "renders" true (String.length out > 0));
    Alcotest.test_case "of_relation truncates" `Quick (fun () ->
        let r = movies_relation () in
        let out = Text_table.of_relation ~limit:2 r in
        Alcotest.(check bool) "mentions more" true
          (let re = "more tuples" in
           let rec contains i =
             i + String.length re <= String.length out
             && (String.sub out i (String.length re) = re || contains (i + 1))
           in
           contains 0));
  ]

let qcheck_tests =
  let field_gen =
    QCheck.Gen.(
      string_size ~gen:(oneof [ char_range 'a' 'z'; return ','; return '"' ]) (0 -- 8))
  in
  let fields_arb =
    QCheck.make
      ~print:(fun fs -> String.concat "|" fs)
      QCheck.Gen.(list_size (1 -- 5) field_gen)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"csv render/parse round-trips" ~count:300 fields_arb
         (fun fields ->
           Csv.parse_line (Csv.render_line fields) = fields));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"value of_string/to_string round-trips ints"
         ~count:200 QCheck.int (fun i ->
           Value.equal (Value.of_string (Value.to_string (Value.Int i))) (Value.Int i)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"tuple full projection is identity" ~count:200
         QCheck.(list_of_size (QCheck.Gen.int_range 1 6) small_string)
         (fun fields ->
           let t = Tuple.of_strings fields in
           Tuple.equal t (Tuple.project t (Array.init (Tuple.arity t) Fun.id))));
  ]


let storage_tests =
  [
    Alcotest.test_case "database round-trips through a directory" `Quick
      (fun () ->
        let db = Database.create () in
        Database.add_relation db (movies_relation ());
        let prices =
          Database.create_relation db
            (Schema.make "prices"
               [
                 { Schema.attr_name = "id"; domain = Schema.Dstring };
                 { Schema.attr_name = "amount"; domain = Schema.Dint };
               ])
        in
        ignore
          (Relation.insert prices
             (Tuple.make [ Value.String "m1"; Value.Int 12 ]));
        let dir = Filename.temp_file "dlearn" "" in
        Sys.remove dir;
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists dir then begin
              Array.iter
                (fun f -> Sys.remove (Filename.concat dir f))
                (Sys.readdir dir);
              Sys.rmdir dir
            end)
          (fun () ->
            Storage.save db dir;
            let db2 = Storage.load dir in
            Alcotest.(check int) "same tuples" (Database.total_tuples db)
              (Database.total_tuples db2);
            Alcotest.(check (list string)) "same relations"
              (Database.relation_names db) (Database.relation_names db2);
            (* Numeric strings stay strings when the domain says string:
               the movie years were stored in a string column. *)
            let m = Database.find db2 "movies" in
            Alcotest.(check bool) "year is a string" true
              (Relation.fold
                 (fun _ t acc ->
                   acc
                   && (match Tuple.get t 2 with
                      | Value.String _ -> true
                      | _ -> false))
                 m true);
            (* And ints stay ints. *)
            let p = Database.find db2 "prices" in
            Alcotest.(check bool) "amount is an int" true
              (match Tuple.get (Relation.get p 0) 1 with
              | Value.Int 12 -> true
              | _ -> false)));
    Alcotest.test_case "loading a missing directory fails" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Storage.load "/nonexistent-dlearn-db");
             false
           with Sys_error _ -> true));
  ]


(* {2 Streaming}

   The chunked CSV reader and lazy storage layer behind the scale path:
   records spanning the 64 KiB read-chunk boundary, CRLF in the same
   stream, files without trailing newlines, relation scans that never
   materialize, and deferred relation loading. *)

let with_temp_dir f =
  let dir = Filename.temp_file "dlearn_scale" "" in
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

let streaming_tests =
  [
    Alcotest.test_case "fold streams large quoted fields across chunks" `Quick
      (fun () ->
        (* One field of 100 000 characters: spans two 64 KiB read chunks,
           is quoted (contains a comma), and the file ends CRLF. The
           reader must reassemble it byte-perfectly. *)
        let big = String.init 100_000 (fun i -> Char.chr (97 + (i mod 23))) in
        let path = Filename.temp_file "dlearn_big" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out_bin path in
            output_string oc "first,plain\r\n";
            output_string oc (Csv.render_line [ "second"; big ^ ",tail" ]);
            output_string oc "\r\n";
            close_out oc;
            let records =
              Csv.fold_records path ~init:[] ~f:(fun acc _line fields ->
                  fields :: acc)
            in
            match List.rev records with
            | [ [ "first"; "plain" ]; [ "second"; huge ] ] ->
                Alcotest.(check int)
                  "field length" (String.length big + 5) (String.length huge);
                Alcotest.(check string) "field content" (big ^ ",tail") huge
            | other -> Alcotest.failf "unexpected shape: %d records" (List.length other)));
    Alcotest.test_case "fold handles a missing trailing newline" `Quick
      (fun () ->
        let path = Filename.temp_file "dlearn_eof" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out_bin path in
            output_string oc "a,b\nc,d";
            close_out oc;
            let records =
              Csv.fold_records path ~init:[] ~f:(fun acc _line fields ->
                  fields :: acc)
            in
            Alcotest.(check (list (list string)))
              "both records" [ [ "a"; "b" ]; [ "c"; "d" ] ] (List.rev records)));
    Alcotest.test_case "fold skips blank lines but counts them" `Quick
      (fun () ->
        let path = Filename.temp_file "dlearn_blank" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out_bin path in
            output_string oc "a,b\n\nc,d\n";
            close_out oc;
            let records =
              Csv.fold_records path ~init:[] ~f:(fun acc line fields ->
                  (line, fields) :: acc)
            in
            (* The blank line is skipped yet still advances line numbers —
               what load's arity errors report. *)
            Alcotest.(check (list (list string)))
              "records" [ [ "a"; "b" ]; [ "c"; "d" ] ]
              (List.rev_map snd records);
            Alcotest.(check (list int)) "line numbers" [ 1; 3 ]
              (List.rev_map fst records)));
    Alcotest.test_case "load reports arity errors with line numbers" `Quick
      (fun () ->
        let schema = Schema.string_attrs "m" [ "id"; "title" ] in
        let path = Filename.temp_file "dlearn_arity" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out_bin path in
            output_string oc "m1,Alien\nm2,Up,extra\n";
            close_out oc;
            match Csv.load schema path with
            | _ -> Alcotest.fail "expected arity failure"
            | exception Invalid_argument msg ->
                Alcotest.(check bool)
                  (Printf.sprintf "message names line 2: %s" msg)
                  true
                  (let sub = "line 2" in
                   let rec contains i =
                     i + String.length sub <= String.length msg
                     && (String.sub msg i (String.length sub) = sub
                        || contains (i + 1))
                   in
                   contains 0)));
    Alcotest.test_case "scan streams a stored relation without loading it"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            let db = Database.create () in
            Database.add_relation db (movies_relation ());
            Storage.save db dir;
            let expected = Relation.cardinality (Database.find db "movies") in
            let rows =
              Storage.scan dir "movies" ~init:0 ~f:(fun acc tu ->
                  (* Tuples arrive typed against the manifest schema. *)
                  (match Tuple.get tu 0 with
                  | Value.String _ -> ()
                  | v ->
                      Alcotest.failf "expected string id, got %s"
                        (Value.to_string v));
                  acc + 1)
            in
            Alcotest.(check int) "all rows scanned" expected rows;
            Alcotest.(check bool) "unknown relation rejected" true
              (try
                 ignore (Storage.scan dir "nope" ~init:0 ~f:(fun a _ -> a));
                 false
               with Invalid_argument _ -> true)));
  ]

let stress_tests =
  [
    Alcotest.test_case "100k-tuple relation stays responsive" `Slow (fun () ->
        let r = Relation.create (Schema.string_attrs "big" [ "k"; "v" ]) in
        let t0 = Unix.gettimeofday () in
        for i = 0 to 99_999 do
          ignore
            (Relation.insert r
               (Tuple.make
                  [
                    Value.String (Printf.sprintf "k%06d" i);
                    Value.Int (i mod 97);
                  ]))
        done;
        let insert_time = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) "bulk insert under 5s" true (insert_time < 5.0);
        let t1 = Unix.gettimeofday () in
        for i = 0 to 9_999 do
          let hits =
            Relation.select_eq r 0 (Value.String (Printf.sprintf "k%06d" (i * 7)))
          in
          Alcotest.(check int) "unique key" 1 (List.length hits)
        done;
        let lookup_time = Unix.gettimeofday () -. t1 in
        Alcotest.(check bool) "10k lookups under 1s" true (lookup_time < 1.0);
        Alcotest.(check int) "value index groups" 97
          (List.length (Relation.distinct_values r 1)));
  ]

(* Point-in-time views: a [copy] keeps its own store and indexes, and
   the serve loop's [update] installs the fresh relation [with_tuple]
   returns, leaving the original as it was. *)
let snapshot_tests =
  [
    Alcotest.test_case "snapshot does not see later inserts" `Quick (fun () ->
        let r = movies_relation () in
        let s = Relation.copy r in
        ignore (Relation.insert r (Tuple.of_strings [ "m4"; "New"; "y2020" ]));
        Alcotest.(check int) "snapshot bounded" 3 (Relation.cardinality s);
        Alcotest.(check int) "live grew" 4 (Relation.cardinality r);
        Alcotest.(check int) "live probe sees it" 1
          (List.length (Relation.select_eq r 0 (Value.String "m4")));
        Alcotest.(check int) "snapshot probe does not" 0
          (List.length (Relation.select_eq s 0 (Value.String "m4")));
        Alcotest.(check bool) "holds_value bounded" false
          (Relation.holds_value s 0 (Value.String "m4"));
        Alcotest.(check bool) "distinct_values bounded" false
          (List.exists
             (fun v -> Value.equal v (Value.String "m4"))
             (Relation.distinct_values s 0)));
    Alcotest.test_case "with_tuple is copy-on-write" `Quick (fun () ->
        let r = movies_relation () in
        let before = Relation.get r 0 in
        let updated = Tuple.of_strings [ "m1"; "Superbad"; "y2007" ] in
        let r' = Relation.with_tuple r 0 updated in
        Alcotest.(check bool) "new relation updated" true
          (Tuple.equal (Relation.get r' 0) updated);
        Alcotest.(check bool) "original untouched" true
          (Tuple.equal (Relation.get r 0) before);
        Alcotest.(check int) "original index untouched" 0
          (List.length (Relation.select_eq r 1 (Value.String "Superbad")));
        Alcotest.(check int) "same cardinality" (Relation.cardinality r)
          (Relation.cardinality r');
        Alcotest.(check int) "other ids preserved" 1
          (List.length (Relation.select_eq r' 0 (Value.String "m2"))));
    Alcotest.test_case "with_tuple validates id and arity" `Quick (fun () ->
        let r = movies_relation () in
        List.iter
          (fun f ->
            Alcotest.(check bool) "raises" true
              (try
                 ignore (f ());
                 false
               with Invalid_argument _ -> true))
          [
            (fun () -> Relation.with_tuple r 99 (Tuple.of_strings [ "a"; "b"; "c" ]));
            (fun () -> Relation.with_tuple r 0 (Tuple.of_strings [ "a" ]));
          ]);
  ]

(* Regression pins for Storage.mkdir_p / write_manifest: nested target
   directories and already-existing directories must both work. *)
let mkdir_tests =
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let with_temp_root f =
    let root = Filename.temp_file "dlearn_mkdir" "" in
    Sys.remove root;
    Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)
  in
  [
    Alcotest.test_case "mkdir_p creates nested directories" `Quick (fun () ->
        with_temp_root (fun root ->
            let deep = Filename.concat (Filename.concat root "a") "b" in
            Storage.mkdir_p deep;
            Alcotest.(check bool) "directory exists" true (Sys.is_directory deep);
            (* Idempotent over an existing directory — the TOCTOU pin. *)
            Storage.mkdir_p deep;
            Alcotest.(check bool) "still there" true (Sys.is_directory deep)));
    Alcotest.test_case "mkdir_p rejects a file in the way" `Quick (fun () ->
        let file = Filename.temp_file "dlearn_mkdir_file" "" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            Alcotest.(check bool) "raises" true
              (try
                 Storage.mkdir_p file;
                 false
               with Invalid_argument _ -> true)));
    Alcotest.test_case "write_manifest creates nested directories" `Quick
      (fun () ->
        with_temp_root (fun root ->
            let dir = Filename.concat (Filename.concat root "x") "y" in
            let schema = Schema.string_attrs "m" [ "id"; "title" ] in
            Storage.write_manifest dir [ schema ];
            Alcotest.(check int) "manifest readable" 1
              (List.length (Storage.manifest dir));
            (* Rewriting over the existing directory must not raise. *)
            Storage.write_manifest dir [ schema ];
            Alcotest.(check int) "still one schema" 1
              (List.length (Storage.manifest dir))));
  ]

let () =
  Alcotest.run "relation"
    [
      ("value", value_tests);
      ("schema", schema_tests);
      ("tuple", tuple_tests);
      ("relation", relation_tests);
      ("database", database_tests);
      ("csv", csv_tests);
      ("index", index_tests);
      ("text_table", text_table_tests);
      ("storage", storage_tests);
      ("streaming", streaming_tests);
      ("stress", stress_tests);
      ("properties", qcheck_tests);
      ("snapshot", snapshot_tests);
      ("mkdir", mkdir_tests);
    ]
