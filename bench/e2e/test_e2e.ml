(* The benchmark's own arithmetic: span self times from synthetic
   traces, quartiles, and the comparison of two hand-written result
   files. *)

module Json = Dlearn_serve.Json

let ev ?(tid = 0) name ts_us dur_us = { Selftime.name; tid; ts_us; dur_us }

let selves events =
  List.sort compare
    (List.map
       (fun (s : Selftime.span) -> (s.event.name, s.self_us, s.root.name))
       (Selftime.analyse events))

let triple = Alcotest.(list (triple string (float 1e-9) string))

let selftime_tests =
  [
    Alcotest.test_case "nested spans subtract their direct children" `Quick (fun () ->
        Alcotest.check triple "self"
          [ ("a", 7., "a"); ("b", 2., "a"); ("c", 1., "a") ]
          (selves [ ev "c" 3. 1.; ev "a" 0. 10.; ev "b" 2. 3. ]));
    Alcotest.test_case "siblings both count against the parent" `Quick (fun () ->
        Alcotest.check triple "self"
          [ ("a", 4., "a"); ("b", 2., "a"); ("c", 4., "a"); ("d", 2., "d") ]
          (selves [ ev "a" 0. 10.; ev "b" 1. 2.; ev "c" 4. 4.; ev "d" 12. 2. ]));
    Alcotest.test_case "a span starting where another ends is not inside it" `Quick
      (fun () ->
        Alcotest.check triple "self"
          [ ("a", 5., "a"); ("b", 3., "b") ]
          (selves [ ev "a" 0. 5.; ev "b" 5. 3. ]);
        (* 99774.72 +. 108.032 is just above 99882.752 in floats. *)
        Alcotest.check triple "after float rounding"
          [ ("a", 108.032, "a"); ("b", 10.5, "b") ]
          (selves [ ev "a" 99774.72 108.032; ev "b" 99882.752 10.5 ]));
    Alcotest.test_case "spans on other domains never nest" `Quick (fun () ->
        Alcotest.check triple "self"
          [ ("a", 10., "a"); ("b", 5., "b") ]
          (selves [ ev "a" 0. 10.; ev ~tid:1 "b" 2. 5. ]));
    Alcotest.test_case "rounding overhang clamps to zero, never negative" `Quick (fun () ->
        Alcotest.check triple "self"
          [ ("a", 0., "a"); ("b", 10.001, "a") ]
          (selves [ ev "a" 0. 10.; ev "b" 0.0005 10.001 ]));
    Alcotest.test_case "equal starts: the longer span is the parent" `Quick (fun () ->
        Alcotest.check triple "self"
          [ ("inner", 4., "outer"); ("outer", 6., "outer") ]
          (selves [ ev "inner" 0. 4.; ev "outer" 0. 10. ]));
    Alcotest.test_case "trace JSON: complete events only, int and float stamps" `Quick
      (fun () ->
        let trace =
          {|{"displayTimeUnit":"ms","traceEvents":[
            {"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"dlearn"}},
            {"name":"learn","cat":"dlearn","ph":"X","ts":0.000,"dur":12.500,"pid":1,"tid":0,"args":{}},
            {"name":"pool.participate","cat":"dlearn","ph":"X","ts":3,"dur":2,"pid":1,"tid":1,"args":{"slot":"1"}}]}|}
        in
        let events = Selftime.events_of_trace (Json.of_string trace) in
        Alcotest.(check (list (pair string (float 1e-9))))
          "events"
          [ ("learn", 12.5); ("pool.participate", 2.) ]
          (List.map (fun (e : Selftime.event) -> (e.name, e.dur_us)) events));
  ]

let stats_tests =
  [
    Alcotest.test_case "quartiles match Python's statistics.quantiles" `Quick (fun () ->
        let q = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9)) in
        Alcotest.check q "1..10" (2.75, 5.5, 8.25)
          (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
        Alcotest.check q "two" (0.5, 2., 3.5) (Stats.quartiles [ 3.; 1. ]);
        Alcotest.check q "odd" (1.5, 3., 4.5) (Stats.quartiles [ 5.; 1.; 4.; 2.; 3. ]));
    Alcotest.test_case "median interpolates" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]));
  ]

let read path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)

let compare_tests =
  [
    Alcotest.test_case "compare flags exactly the regressions" `Quick (fun () ->
        let rows =
          Report.compare
            (Report.bounds_of_benchmark (read "testdata/benchmark.json"))
            ~old:(Report.of_json (read "testdata/old.json"))
            ~current:(Report.of_json (read "testdata/new.json"))
        in
        Alcotest.(check (list (pair string string)))
          "regressed rows"
          [
            ("slower", "latency_p50_ms");
            ("slower", "throughput_per_s");
            ("failing", "error_rate");
          ]
          (List.filter_map
             (fun (r : Report.row) ->
               if r.regressed then Some (r.workload, r.metric) else None)
             rows);
        Alcotest.(check int) "rows" 12 (List.length rows));
    Alcotest.test_case "a workload missing from the new file regresses" `Quick (fun () ->
        let old = Report.of_json (read "testdata/old.json") in
        let rows =
          Report.compare
            (Report.bounds_of_benchmark (read "testdata/benchmark.json"))
            ~old
            ~current:{ old with workloads = List.tl old.workloads }
        in
        Alcotest.(check bool) "steady regressed" true
          (List.for_all
             (fun (r : Report.row) -> r.workload <> "steady" || r.regressed)
             rows));
    Alcotest.test_case "result files round-trip through JSON" `Quick (fun () ->
        let t = Report.of_json (read "testdata/old.json") in
        Alcotest.(check bool) "round trip" true
          (Report.of_json (Json.of_string (Json.to_string (Report.to_json t))) = t));
  ]

let () =
  Alcotest.run "e2e"
    [ ("selftime", selftime_tests); ("stats", stats_tests); ("compare", compare_tests) ]
