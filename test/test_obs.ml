(* Unit tests for the observability layer: registry semantics, sharded
   counters under domain fan-out, span timing/exception behaviour, and
   the Chrome trace-event export. *)

module Obs = Dlearn_obs.Obs

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let registry_tests =
  [
    Alcotest.test_case "counter add/value/reset" `Quick (fun () ->
        (* Counters are process-wide and never reset: read deltas. *)
        let c = Obs.counter "test.registry.counter" in
        let before = Obs.value c in
        Obs.incr c;
        Obs.add c 41;
        Alcotest.(check int) "value" 42 (Obs.value c - before));
    Alcotest.test_case "counter is get-or-create" `Quick (fun () ->
        let a = Obs.counter "test.registry.shared" in
        let before = Obs.value a in
        Obs.add a 7;
        let b = Obs.counter "test.registry.shared" in
        Alcotest.(check int) "same metric" 7 (Obs.value b - before));
    Alcotest.test_case "kind mismatch rejected" `Quick (fun () ->
        let _ = Obs.counter "test.registry.kinded" in
        Alcotest.check_raises "gauge over counter"
          (Invalid_argument
             "Obs: metric test.registry.kinded already registered with \
              another kind") (fun () ->
            ignore (Obs.gauge "test.registry.kinded")));
    Alcotest.test_case "gauge last write wins" `Quick (fun () ->
        let g = Obs.gauge "test.registry.gauge" in
        Obs.set_gauge g 1.5;
        Obs.set_gauge g 2.5;
        Alcotest.(check (float 1e-9)) "value" 2.5 (Obs.gauge_value g));
    Alcotest.test_case "histogram snapshot" `Quick (fun () ->
        let h = Obs.histogram "test.registry.hist" in
        List.iter (Obs.observe_ns h) [ 10; 30; 20 ];
        let s = Obs.histogram_snapshot h in
        Alcotest.(check int) "count" 3 s.Obs.count;
        Alcotest.(check int) "total" 60 s.Obs.total_ns;
        Alcotest.(check int) "min" 10 s.Obs.min_ns;
        Alcotest.(check int) "max" 30 s.Obs.max_ns);
    Alcotest.test_case "empty histogram snapshot is all zero" `Quick (fun () ->
        let h = Obs.histogram "test.registry.hist_empty" in
        let s = Obs.histogram_snapshot h in
        Alcotest.(check int) "count" 0 s.Obs.count;
        Alcotest.(check int) "min" 0 s.Obs.min_ns;
        Alcotest.(check int) "max" 0 s.Obs.max_ns);
  ]

let sharding_tests =
  [
    Alcotest.test_case "counter merges across domains" `Quick (fun () ->
        let c = Obs.counter "test.shard.counter" in
        let before = Obs.value c in
        let per_domain = 10_000 and domains = 4 in
        let ds =
          List.init domains (fun _ ->
              Domain.spawn (fun () ->
                  for _ = 1 to per_domain do
                    Obs.incr c
                  done))
        in
        List.iter Domain.join ds;
        Alcotest.(check int) "merged" (domains * per_domain)
          (Obs.value c - before));
    Alcotest.test_case "histogram merges across domains" `Quick (fun () ->
        let h = Obs.histogram "test.shard.hist" in
        let ds =
          List.init 3 (fun i ->
              Domain.spawn (fun () -> Obs.observe_ns h ((i + 1) * 100)))
        in
        List.iter Domain.join ds;
        let s = Obs.histogram_snapshot h in
        Alcotest.(check int) "count" 3 s.Obs.count;
        Alcotest.(check int) "total" 600 s.Obs.total_ns;
        Alcotest.(check int) "min" 100 s.Obs.min_ns;
        Alcotest.(check int) "max" 300 s.Obs.max_ns);
  ]

exception Boom

(* Spans only do work while active (metrics on or recording); these
   tests switch metrics on explicitly and restore the default-off state
   afterwards. *)
let with_metrics f =
  Obs.set_metrics true;
  Fun.protect ~finally:(fun () -> Obs.set_metrics false) f

let span_tests =
  [
    Alcotest.test_case "span returns the result and feeds the histogram"
      `Quick (fun () ->
        with_metrics (fun () ->
            let before =
              (Obs.histogram_snapshot (Obs.histogram "test.span.ok")).Obs.count
            in
            let v = Obs.span "test.span.ok" (fun () -> 1 + 1) in
            Alcotest.(check int) "result" 2 v;
            let s = Obs.histogram_snapshot (Obs.histogram "test.span.ok") in
            Alcotest.(check int) "observed once" (before + 1) s.Obs.count));
    Alcotest.test_case "span re-raises and still records" `Quick (fun () ->
        with_metrics (fun () ->
            (try ignore (Obs.span "test.span.raises" (fun () -> raise Boom))
             with Boom -> ());
            let s =
              Obs.histogram_snapshot (Obs.histogram "test.span.raises")
            in
            Alcotest.(check int) "observed" 1 s.Obs.count));
    Alcotest.test_case "span short-circuits when no recorder is active"
      `Quick (fun () ->
        Alcotest.(check bool) "metrics off" false (Obs.metrics_enabled ());
        Alcotest.(check bool) "not recording" false (Obs.recording ());
        Alcotest.(check bool) "inactive" false (Obs.active ());
        let v = Obs.span "test.span.inactive" (fun () -> 40 + 2) in
        Alcotest.(check int) "result still computed" 42 v;
        let s = Obs.histogram_snapshot (Obs.histogram "test.span.inactive") in
        Alcotest.(check int) "histogram untouched" 0 s.Obs.count;
        with_metrics (fun () ->
            Alcotest.(check bool) "metrics activate spans" true (Obs.active ());
            ignore (Obs.span "test.span.inactive" (fun () -> 0)));
        let s = Obs.histogram_snapshot (Obs.histogram "test.span.inactive") in
        Alcotest.(check int) "observed once active" 1 s.Obs.count);
    Alcotest.test_case "now_ns is monotone enough to time spans" `Quick
      (fun () ->
        let a = Obs.now_ns () in
        let b = Obs.now_ns () in
        Alcotest.(check bool) "non-decreasing" true (b >= a));
  ]

let trace_tests =
  [
    Alcotest.test_case "events only recorded while recording" `Quick
      (fun () ->
        let path = Filename.temp_file "dlearn_trace" ".json" in
        Obs.stop_recording ();
        ignore (Obs.span "test.trace.before" (fun () -> ()));
        Obs.start_recording ();
        ignore (Obs.span "test.trace.during" (fun () -> ()));
        Obs.stop_recording ();
        ignore (Obs.span "test.trace.after" (fun () -> ()));
        Obs.write_trace path;
        let s = read_file path in
        Sys.remove path;
        Alcotest.(check bool)
          "during present" true
          (contains ~sub:"test.trace.during" s);
        Alcotest.(check bool)
          "before absent" false
          (contains ~sub:"test.trace.before" s);
        Alcotest.(check bool)
          "after absent" false
          (contains ~sub:"test.trace.after" s));
    Alcotest.test_case "trace JSON carries the Chrome event fields" `Quick
      (fun () ->
        let path = Filename.temp_file "dlearn_trace" ".json" in
        Obs.start_recording ();
        ignore
          (Obs.span "test.trace.fields"
             ~args:[ ("k", "v\"quoted\"") ]
             (fun () -> ()));
        Obs.emit_event ~name:"test.trace.manual" ~start_ns:(Obs.now_ns ())
          ~dur_ns:5_000 ();
        Obs.stop_recording ();
        Obs.write_trace path;
        let s = read_file path in
        Sys.remove path;
        List.iter
          (fun sub ->
            Alcotest.(check bool) (Printf.sprintf "has %s" sub) true
              (contains ~sub s))
          [
            "\"traceEvents\"";
            "\"ph\":\"X\"";
            "\"ph\":\"M\"";
            "\"pid\":";
            "\"tid\":";
            "\"ts\":";
            "\"dur\":";
            "test.trace.fields";
            "test.trace.manual";
            "\\\"quoted\\\"";
          ]);
    Alcotest.test_case "emit_event is a no-op when idle" `Quick (fun () ->
        let path = Filename.temp_file "dlearn_trace" ".json" in
        Obs.start_recording ();
        Obs.stop_recording ();
        (* drop anything a prior test left, then emit while idle *)
        Obs.start_recording ();
        Obs.stop_recording ();
        Obs.emit_event ~name:"test.trace.idle" ~start_ns:0 ~dur_ns:1 ();
        Obs.write_trace path;
        let s = read_file path in
        Sys.remove path;
        Alcotest.(check bool)
          "idle event absent" false
          (contains ~sub:"test.trace.idle" s));
  ]

let report_tests =
  [
    Alcotest.test_case "report mentions active metrics" `Quick (fun () ->
        with_metrics (fun () ->
            let c = Obs.counter "test.report.counter" in
            Obs.add c 5;
            ignore (Obs.span "test.report.span" (fun () -> ()));
            let r = Obs.report () in
            Alcotest.(check bool) "counter" true
              (contains ~sub:"test.report.counter" r);
            Alcotest.(check bool) "span" true
              (contains ~sub:"test.report.span" r)));
    Alcotest.test_case "report_json is shaped" `Quick (fun () ->
        let c = Obs.counter "test.report.json" in
        Obs.incr c;
        let j = Obs.report_json () in
        List.iter
          (fun sub ->
            Alcotest.(check bool) (Printf.sprintf "has %s" sub) true
              (contains ~sub j))
          [ "\"spans\""; "\"counters\""; "\"gauges\""; "test.report.json" ]);
  ]

let () =
  Alcotest.run "dlearn-obs"
    [
      ("registry", registry_tests);
      ("sharding", sharding_tests);
      ("spans", span_tests);
      ("trace", trace_tests);
      ("report", report_tests);
    ]
