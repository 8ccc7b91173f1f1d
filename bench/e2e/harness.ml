(* What every workload shares: the run parameters, set-up and operation
   timing, the closed loop, trace harvesting, and the metric lines the
   run prints. Workloads compose these; none of them times anything on
   its own. *)

module Obs = Dlearn_obs.Obs
module Json = Dlearn_serve.Json

type run = {
  seed : int;
  seconds : float;
  trace : bool;
  dir : string;  (** scratch directory of this run, under the working directory *)
}

let now = Unix.gettimeofday

type meter = {
  mutable setups : float list;  (** seconds per set-up *)
  phases : (string, float) Hashtbl.t;  (** set-up phase -> seconds *)
  mutable plain_ms : (int * float) list;
      (** untraced operation latencies, keyed by the operation's input *)
  mutable traced_ms : (int * float) list;
  mutable ops : int;  (** timed operations, traced or not *)
  mutable attempted : int;  (** operations and correctness gates *)
  mutable failed : int;
  self_us : (string, float) Hashtbl.t;  (** span name -> self time *)
  mutable root_us : float;  (** total duration of the traced roots *)
  mutable attributed_us : float;
      (** self time of every span under a root on the root's domain *)
  mutable f1s : float list;  (** F1 of each learned definition *)
  mutable live_mb : (int * float) list;  (** see [sample_heap] *)
  mutable counts : (string * int) list;
      (** counter increments over the closed loop, set-up and gates
          excluded *)
}

let meter () =
  {
    setups = [];
    phases = Hashtbl.create 8;
    plain_ms = [];
    traced_ms = [];
    ops = 0;
    attempted = 0;
    failed = 0;
    self_us = Hashtbl.create 32;
    root_us = 0.;
    attributed_us = 0.;
    f1s = [];
    live_mb = [];
    counts = [];
  }

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* A failed operation or gate: counted, explained on stderr, never
   dropped. *)
let fail m fmt =
  Printf.ksprintf
    (fun msg ->
      m.failed <- m.failed + 1;
      prerr_endline ("e2e: failed: " ^ msg))
    fmt

(* A correctness gate outside the timed operations; it counts as one
   more attempted operation. *)
let check m ok fmt =
  Printf.ksprintf
    (fun msg ->
      m.attempted <- m.attempted + 1;
      if not ok then fail m "%s" msg)
    fmt

(* Fisher-Yates, in place; returns the array. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let phase m name f =
  let dt, r = time f in
  add m.phases name dt;
  r

let setup m f =
  let dt, r = time f in
  m.setups <- dt :: m.setups;
  r

(* The live heap after a full major collection, sampled while the state
   an operation built is still reachable: what a learned context, an
   index or a warm server keeps in memory. The sample is a function of
   the inputs. Peak RSS is not: with two domains, the same run gave
   41 MB, 45 MB and 51 MB on learn_imdb3. *)
let sample_heap m ~input =
  Gc.full_major ();
  let bytes = (Gc.stat ()).Gc.live_words * (Sys.word_size / 8) in
  m.live_mb <- (input, float_of_int bytes /. 1048576.) :: m.live_mb

(* {2 Traced operations}

   A traced operation records from its first instruction to its last
   under one root span, [e2e.op]; the bench wraps its own calls into
   layers in further spans. The trace is written into the run directory,
   parsed back and folded into per-span self times. *)

let root = "e2e.op"

let harvest r m =
  let path = Filename.concat r.dir "trace.json" in
  Obs.write_trace path;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let spans = Selftime.analyse (Selftime.events_of_trace (Json.of_string text)) in
  List.iter
    (fun (s : Selftime.span) ->
      add m.self_us s.event.name s.self_us;
      if s.root.name = root then begin
        m.attributed_us <- m.attributed_us +. s.self_us;
        if s.event == s.root then m.root_us <- m.root_us +. s.event.dur_us
      end)
    spans

(* [op r m ~traced ~input f] times one operation on the input numbered
   [input]. [f] returns whether its output was right; an exception is a
   failure too. *)
let op r m ~traced ~input f =
  m.ops <- m.ops + 1;
  m.attempted <- m.attempted + 1;
  if traced then Obs.start_recording ();
  let t0 = now () in
  let ok =
    match Obs.span root f with
    | ok -> ok
    | exception e ->
        prerr_endline ("e2e: operation raised " ^ Printexc.to_string e);
        false
  in
  let ms = (now () -. t0) *. 1e3 in
  if traced then begin
    Obs.stop_recording ();
    harvest r m
  end;
  if ok then
    if traced then m.traced_ms <- (input, ms) :: m.traced_ms
    else m.plain_ms <- (input, ms) :: m.plain_ms
  else fail m "operation %d returned a wrong result" m.ops

(* {2 Per-layer metrics} *)

(* Self-time shares: program spans (and the bench's own, named [e2e.*]
   and [client.*]) grouped into the layer they time, as a share of the
   traced operations' wall-clock time. Spans on pool domains count too,
   so shares of a parallel run may add up to more than 1. A span missing
   here lands in [other.self_share]. *)
let layers =
  [
    ("core.learn.self_share", [ "learn"; "learn.refine" ]);
    ("core.bottom_clause.self_share", [ "learn.bottom_clause" ]);
    ("similarity.sim_search.self_share", [ "learn.sim_search" ]);
    ("core.armg.self_share", [ "learn.armg" ]);
    ( "logic.normalize.self_share",
      [ "learn.normalize"; "normalize.simplify"; "normalize.rename" ] );
    ("core.score_batch.self_share", [ "learn.score_batch" ]);
    ("core.coverage_resolve.self_share", [ "coverage.resolve" ]);
    ("core.coverage_batch.self_share", [ "coverage.batch"; "coverage.score_candidate" ]);
    ("logic.subsumption_csp.self_share", [ "subsumption.solve" ]);
    ("logic.subsumption_sat.self_share", [ "subsumption.sat" ]);
    ("parallel.participate.self_share", [ "pool.participate" ]);
    ("similarity.index_build.self_share", [ "sim_index.build" ]);
    ("similarity.match_pairs.self_share", [ "sim_index.match_pairs" ]);
    ("similarity.query.self_share", [ "e2e.sim_query" ]);
    ("core.predict.self_share", [ "e2e.predict" ]);
    ("serve.insert.self_share", [ "serve.insert" ]);
    ("serve.learn.self_share", [ "serve.learn" ]);
    ("serve.coverage.self_share", [ "serve.coverage" ]);
    ("serve.query.self_share", [ "serve.query" ]);
    ( "serve.transport.self_share",
      [ "client.insert"; "client.learn"; "client.coverage"; "client.query" ] );
    ("unattributed_share", [ root ]);
  ]

(* Process-wide counters, summed over the names given and reported per
   operation. The pool registers its counters per pool size. *)
let counters =
  [
    ("logic.sat.solves", [ "sat.solves" ]);
    ("logic.sat.conflicts", [ "sat.conflicts" ]);
    ("logic.subsumption.solves", [ "subsumption.solves" ]);
    ("logic.subsumption.nodes", [ "subsumption.nodes" ]);
    ("core.coverage.tested", [ "coverage.tested" ]);
    ("core.coverage.pruned", [ "coverage.pruned" ]);
    ("core.armg.computed", [ "armg.computed" ]);
    ("parallel.steals", [ "pool.1.steals"; "pool.2.steals" ]);
    ("parallel.inline_batches", [ "pool.1.inline"; "pool.2.inline" ]);
    ("similarity.candidates", [ "sim_index.candidates" ]);
    ("similarity.measured", [ "sim_index.measured" ]);
    ("core.delta.invalidated_examples", [ "delta.invalidated_examples" ]);
  ]

(* Hit rates and shares built from two counters: part / (part + rest). *)
let ratios =
  [
    ("core.coverage.hit_rate", "coverage.cache_hits", "coverage.tested");
    ("core.armg.hit_rate", "armg.cache_hits", "armg.computed");
  ]

let counter_names =
  List.sort_uniq String.compare
    (List.concat_map snd counters
    @ List.concat_map (fun (_, a, b) -> [ a; b ]) ratios
    @ [ "sim_index.length_pruned" ])

let snapshot () = List.map (fun n -> Obs.value (Obs.counter n)) counter_names

(* The closed loop: one client issues operation [i] after operation
   [i - 1] returns, until the run's time is up and at least [min_ops]
   have run. With tracing, each step runs the operation untraced and
   then traced with the same inputs, so the pair's latencies give the
   tracing overhead and its outputs must agree. Counters are read
   around the loop only. *)
let closed_loop r m ~min_ops step =
  let before = snapshot () in
  let deadline = now () +. r.seconds in
  let rec go i =
    if i < min_ops || now () < deadline then begin
      step i ~traced:false;
      if r.trace then step i ~traced:true;
      go (i + 1)
    end
  in
  go 0;
  m.counts <- List.combine counter_names (List.map2 ( - ) (snapshot ()) before)

let setup_phases = [ "generate"; "load"; "index"; "prime" ]

let per_layer_names =
  List.map (fun (l, _) -> (l, "share")) layers
  @ [ ("other.self_share", "share") ]
  @ List.map (fun (c, _) -> (c, "count/op")) counters
  @ List.map (fun (r, _, _) -> (r, "ratio")) ratios
  @ [ ("similarity.length_pruned_share", "ratio") ]
  @ List.map (fun p -> ("setup." ^ p ^ "_share", "share")) setup_phases
  @ [
      ("process.peak_rss_mb", "MB");
      ("core.f1", "ratio");
      ("obs.trace_overhead", "ratio");
      ("trace.attribution_error", "ratio");
    ]

let end_to_end_names =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("throughput_per_s", "1/s");
    ("live_heap_mb", "MB");
  ]

let safe_div a b = if b = 0. then 0. else a /. b
let median_or_zero = function [] -> 0. | xs -> Stats.median xs

(* The median over distinct inputs of each input's median sample, so
   that an input a run happens to repeat does not weigh twice. *)
let per_input_median samples =
  List.sort_uniq compare (List.map fst samples)
  |> List.map (fun k ->
         Stats.median (List.filter_map (fun (k', ms) -> if k = k' then Some ms else None) samples))
  |> median_or_zero

let per_layer m =
  let diff n = float_of_int (List.assoc n m.counts) in
  let ops = float_of_int (max 1 m.ops) in
  let self n = Option.value ~default:0. (Hashtbl.find_opt m.self_us n) in
  let known = List.concat_map snd layers in
  let other =
    Hashtbl.fold (fun n v acc -> if List.mem n known then acc else acc +. v) m.self_us 0.
  in
  let setup_total = List.fold_left ( +. ) 0. m.setups in
  let traced = List.length m.traced_ms > 0 && List.length m.plain_ms > 0 in
  List.map
    (fun (l, spans) ->
      (l, safe_div (List.fold_left (fun acc n -> acc +. self n) 0. spans) m.root_us))
    layers
  @ [ ("other.self_share", safe_div other m.root_us) ]
  @ List.map
      (fun (c, names) ->
        (c, List.fold_left (fun acc n -> acc +. diff n) 0. names /. ops))
      counters
  @ List.map (fun (r, part, rest) -> (r, safe_div (diff part) (diff part +. diff rest))) ratios
  @ [
      ( "similarity.length_pruned_share",
        safe_div (diff "sim_index.length_pruned") (diff "sim_index.candidates") );
    ]
  @ List.map
      (fun p ->
        ( "setup." ^ p ^ "_share",
          safe_div (Option.value ~default:0. (Hashtbl.find_opt m.phases p)) setup_total ))
      setup_phases
  @ [
      ("process.peak_rss_mb", float_of_int (Option.value ~default:0 (Obs.peak_rss_kb ())) /. 1024.);
      ("core.f1", median_or_zero m.f1s);
      ( "obs.trace_overhead",
        if traced then per_input_median m.traced_ms /. per_input_median m.plain_ms -. 1.
        else 0. );
      ("trace.attribution_error", safe_div (Float.abs (m.attributed_us -. m.root_us)) m.root_us);
    ]

let end_to_end m =
  let busy_s = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. m.plain_ms /. 1e3 in
  [
    ("setup_s", median_or_zero m.setups);
    ("latency_p50_ms", per_input_median m.plain_ms);
    ("throughput_per_s", safe_div (float_of_int (List.length m.plain_ms)) busy_s);
    ("live_heap_mb", per_input_median m.live_mb);
  ]

(* The last line of a run's standard output. *)
let result_line r m =
  let values, names =
    if r.trace then (per_layer m, per_layer_names)
    else (end_to_end m, end_to_end_names)
  in
  let correct =
    m.failed = 0 && m.plain_ms <> [] && m.setups <> [] && m.live_mb <> []
    && ((not r.trace) || List.assoc "trace.attribution_error" values < 0.01)
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int m.attempted);
         ("failed", Json.Int m.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, unit) ->
                  ( n,
                    Json.Obj
                      [ ("value", Json.Float (List.assoc n values)); ("unit", Json.String unit) ]
                  ))
                names) );
       ])
