(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the generated workloads, plus Bechamel
   micro-benchmarks of the core operations and the ablations called out in
   DESIGN.md.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe table4          # one experiment
     dune exec bench/main.exe -- table5 --folds 3 --n 100

   Absolute numbers differ from the paper (simulated data, laptop scale);
   EXPERIMENTS.md records the measured-vs-paper comparison. *)

open Dlearn_relation
open Dlearn_core
open Dlearn_eval

(* ------------------------------------------------------------------ *)
(* Paper tables and figures.                                           *)
(* ------------------------------------------------------------------ *)

let print_table t =
  print_endline (Experiment.render t);
  print_newline ()

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[%s took %.0fs]\n\n%!" name (Unix.gettimeofday () -. t0)

let table4 ~folds ~n () = print_table (Experiment.table4 ~folds ?n ())
let table5 ~folds ~n () = print_table (Experiment.table5 ~folds ?n ())
let table6 ~folds ~n () = print_table (Experiment.table6 ~folds ?n ())
let table7 ~folds ~n () = print_table (Experiment.table7 ~folds ?n ())

let fig1left ~folds ~n () = print_table (Experiment.figure1_examples ~folds ?n ())

let fig1mid ~folds ~n () =
  print_table (Experiment.figure1_sample_size ~folds ?n ~km:2 ())

let fig1right ~folds ~n () =
  print_table (Experiment.figure1_sample_size ~folds ?n ~km:5 ())

let defs ~folds:_ ~n () =
  print_endline "== Learned definitions over Walmart+Amazon (sec 6.2.1) ==";
  print_endline (Experiment.qualitative_definitions ?n ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks and ablations.                            *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let w = Imdb_omdb.generate ~n:80 `One_md in
  let w = Experiment.with_km w 2 in
  let ctx =
    Baselines.make_context Baselines.Dlearn w.Workload.config w.Workload.db
      w.Workload.mds w.Workload.cfds
  in
  let seed = List.hd w.Workload.pos in
  let other = List.nth w.Workload.pos 1 in
  let negative = List.hd w.Workload.neg in
  let bottom = Bottom_clause.build ctx Bottom_clause.Variable seed in
  let prepared = Coverage.prepare ctx bottom in
  (* Force the caches so the benchmarks measure steady-state costs. *)
  ignore (Coverage.covers_positive ctx prepared seed);
  ignore (Coverage.covers_positive ctx prepared other);
  ignore (Coverage.covers_negative ctx prepared negative);
  let ground_entry = Bottom_clause.ground ctx seed in
  let ground_target = Coverage.ground_target ctx ground_entry in
  let a = "The Hidden Fortress (1984)" and b = "The Hidden Fortress - 1984" in
  let titles =
    Relation.distinct_values (Database.find w.Workload.db "omdb_movies") 1
    |> List.map Value.to_string
  in
  let index = Dlearn_similarity.Sim_index.create titles in
  let dirty =
    Workload.inject_violations w ~p:0.10 ~seed:1
  in
  let dirty_ctx =
    Baselines.make_context Baselines.Dlearn_cfd dirty.Workload.config
      dirty.Workload.db dirty.Workload.mds dirty.Workload.cfds
  in
  let dirty_bottom = Bottom_clause.build dirty_ctx Bottom_clause.Variable seed in
  let dirty_prepared = Coverage.prepare dirty_ctx dirty_bottom in
  ignore (Coverage.covers_positive dirty_ctx dirty_prepared seed);
  [
    Test.make ~name:"similarity/smith-waterman-gotoh"
      (Staged.stage (fun () -> Dlearn_similarity.Smith_waterman.similarity a b));
    Test.make ~name:"similarity/paper-operator"
      (Staged.stage (fun () -> Dlearn_similarity.Combined.paper a b));
    Test.make ~name:"sim-index/query-blocked"
      (Staged.stage (fun () ->
           Dlearn_similarity.Sim_index.query index ~km:5 ~threshold:0.7
             "The Hidden Fortress"));
    Test.make ~name:"sim-index/query-brute (ablation 1)"
      (Staged.stage (fun () ->
           Dlearn_similarity.Sim_index.query_brute index ~km:5 ~threshold:0.7
             "The Hidden Fortress"));
    Test.make ~name:"bottom-clause/build"
      (Staged.stage (fun () ->
           Bottom_clause.build ctx Bottom_clause.Variable seed));
    Test.make ~name:"subsumption/fast-path"
      (Staged.stage (fun () ->
           Dlearn_logic.Subsumption.subsumes_target_bool bottom ground_target));
    Test.make ~name:"repair/enumerate-repaired-clauses"
      (Staged.stage (fun () ->
           Dlearn_logic.Clause_repair.repaired_clauses ~state_cap:512
             ~result_cap:16 bottom));
    Test.make ~name:"coverage/positive"
      (Staged.stage (fun () -> Coverage.covers_positive ctx prepared other));
    Test.make ~name:"coverage/negative"
      (Staged.stage (fun () -> Coverage.covers_negative ctx prepared negative));
    Test.make ~name:"coverage/positive-full-repairs"
      (Staged.stage (fun () ->
           Coverage.covers_positive dirty_ctx dirty_prepared seed));
    Test.make ~name:"coverage/positive-cfd-split (ablation 3)"
      (Staged.stage (fun () ->
           Coverage.covers_positive_cfd_split dirty_ctx dirty_prepared seed));
    Test.make ~name:"generalization/armg-step"
      (Staged.stage (fun () -> Generalization.armg ctx bottom other));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "== Micro-benchmarks (Bechamel; ns per run) ==";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let rows =
    List.filter_map
      (fun test ->
        match Test.elements test with
        | [ elt ] ->
            let m = Benchmark.run cfg [ instance ] elt in
            let result = Analyze.one ols instance m in
            let ns =
              match Analyze.OLS.estimates result with
              | Some [ est ] -> est
              | _ -> nan
            in
            Some
              [
                Test.Elt.name elt;
                (if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
                 else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
                 else Printf.sprintf "%.0f ns" ns);
              ]
        | _ -> None)
      (micro_tests ())
  in
  Text_table.print ~header:[ "operation"; "time/run" ] rows;
  print_newline ()

(* Ablation 2: the candidate-substitution beam width in generalisation. *)
let ablation_beam ~folds ~n () =
  print_endline "== Ablation 2: ARMG beam width (IMDB+OMDB one MD, km=2) ==";
  let w = Imdb_omdb.generate ?n `One_md in
  let w = Experiment.with_km w 2 in
  let rows =
    List.map
      (fun beam ->
        let w' =
          {
            w with
            Workload.config = { w.Workload.config with Config.armg_beam = beam };
          }
        in
        let r = Experiment.evaluate ~folds Baselines.Dlearn w' in
        [
          string_of_int beam;
          Printf.sprintf "%.2f" r.Experiment.f1;
          Printf.sprintf "%.1fs" r.Experiment.seconds;
        ])
      [ 1; 4; 16; 32 ]
  in
  Text_table.print ~header:[ "beam"; "F1"; "time/fold" ] rows;
  print_newline ()

(* Ablation 4: CFD left-hand-side repairs use the minimal scheme; compare
   bottom-clause sizes with and without CFDs to show the added repair
   machinery stays bounded. *)
let ablation_clause_size ~folds:_ ~n () =
  print_endline "== Ablation 4: repair literals added per bottom clause ==";
  let w = Imdb_omdb.generate ?n `Three_mds in
  let dirty = Workload.inject_violations w ~p:0.10 ~seed:5 in
  let measure name (w : Workload.t) system =
    let ctx =
      Baselines.make_context system w.Workload.config w.Workload.db
        w.Workload.mds w.Workload.cfds
    in
    let sizes =
      List.map
        (fun e ->
          let c = Bottom_clause.build ctx Bottom_clause.Variable e in
          ( Dlearn_logic.Clause.body_size c,
            List.length (Dlearn_logic.Clause.repair_body c) ))
        (Workload.sample (Random.State.make [| 3 |]) 10 w.Workload.pos)
    in
    let avg f =
      float_of_int (List.fold_left (fun a x -> a + f x) 0 sizes)
      /. float_of_int (List.length sizes)
    in
    [ name; Printf.sprintf "%.1f" (avg fst); Printf.sprintf "%.1f" (avg snd) ]
  in
  Text_table.print
    ~header:[ "setting"; "avg literals"; "avg repair literals" ]
    [
      measure "clean, MDs only" w Baselines.Dlearn;
      measure "p=0.10, MDs only" dirty Baselines.Dlearn;
      measure "p=0.10, MDs+CFDs" dirty Baselines.Dlearn_cfd;
    ];
  print_newline ()

(* Parallel coverage scaling: the same coverage workload on a sequential
   context and on the domain pool, per dataset. The verdicts are
   bitwise-identical by construction (test/test_parallel.ml); this bench
   reports the wall-clock ratio. On a single-core machine the speedup
   hovers around 1x (or below, for the pool overhead) — the point of
   reporting it honestly rather than hard-coding an expectation. *)
let bench_jobs = ref 4

(* --report: attach the unified observability report (span durations and
   counters, Obs.report_json) to the BENCH_*.json files, so a committed
   bench run carries its own stage breakdown. *)
let bench_report = ref false

let obs_field () =
  if !bench_report then
    Printf.sprintf ",\n  \"obs\": %s\n" (Dlearn_obs.Obs.report_json ())
  else "\n"

let bench_parallel ~folds:_ ~n () =
  let jobs = max 2 !bench_jobs in
  Printf.printf "== Parallel coverage: 1 vs %d domains ==\n" jobs;
  let datasets =
    [
      ("imdb1", fun () -> Imdb_omdb.generate ?n `One_md);
      ("imdb3", fun () -> Imdb_omdb.generate ?n `Three_mds);
      ("walmart", fun () -> Walmart_amazon.generate ?n ());
    ]
  in
  let rows =
    List.map
      (fun (name, make) ->
        let w = Experiment.with_km (make ()) 2 in
        let pos = w.Workload.pos and neg = w.Workload.neg in
        let seeds =
          List.filteri (fun i _ -> i < 4) pos
        in
        let time_with num_domains =
          let config =
            { w.Workload.config with Config.num_domains = num_domains }
          in
          let ctx =
            Baselines.make_context Baselines.Dlearn config w.Workload.db
              w.Workload.mds w.Workload.cfds
          in
          let preps =
            List.map
              (fun e ->
                Coverage.prepare ctx
                  (Bottom_clause.build ctx Bottom_clause.Variable e))
              seeds
          in
          (* Warm every per-example and per-clause cache so the timing
             compares the subsumption fan-out, not one-time setup. *)
          List.iter
            (fun prep -> ignore (Coverage.coverage ctx prep ~pos ~neg))
            preps;
          let t0 = Unix.gettimeofday () in
          List.iter
            (fun prep -> ignore (Coverage.coverage ctx prep ~pos ~neg))
            preps;
          let dt = Unix.gettimeofday () -. t0 in
          Dlearn_parallel.Pool.log_stats (Dlearn_parallel.Pool.get num_domains);
          dt
        in
        let t_seq = time_with 1 in
        let t_par = time_with jobs in
        [
          name;
          Printf.sprintf "%.3fs" t_seq;
          Printf.sprintf "%.3fs" t_par;
          Printf.sprintf "%.2fx" (t_seq /. t_par);
        ])
      datasets
  in
  Text_table.print
    ~header:
      [
        "dataset";
        "sequential";
        Printf.sprintf "%d domains" jobs;
        "speedup";
      ]
    rows;
  print_newline ()

(* Incremental coverage: replay an ARMG chain — the hill-climb's actual
   access pattern — under three settings: from-scratch sequential (every
   verdict decided by [Coverage.covers_positive]/[covers_negative], no
   cover cache), incremental sequential (verdict cache + monotone
   inheritance + score-bound pruning) and incremental over the domain
   pool. Ground caches are pre-warmed in every setting, so the measured
   difference is exactly the incremental engine's contribution, not
   one-time setup. Emits BENCH_coverage.json with the raw numbers. *)
let bench_coverage ~folds:_ ~n () =
  let jobs = max 2 !bench_jobs in
  (* Jobs sweep: always include the sequential baseline, every power of
     two up to the requested count, and the requested count itself. *)
  let sweep_jobs =
    let steps = List.filter (fun j -> j <= jobs) [ 2; 4; 8 ] in
    let steps = if List.mem jobs steps then steps else steps @ [ jobs ] in
    1 :: steps
  in
  Printf.printf
    "== Incremental coverage: from-scratch vs incremental (jobs sweep %s) ==\n"
    (String.concat "/" (List.map string_of_int sweep_jobs));
  let datasets =
    [
      ("imdb1", fun () -> Imdb_omdb.generate ?n `One_md);
      ("imdb3", fun () -> Imdb_omdb.generate ?n `Three_mds);
      ("walmart", fun () -> Walmart_amazon.generate ?n ());
    ]
  in
  let results =
    List.map
      (fun (name, make) ->
        let w = Experiment.with_km (make ()) 2 in
        let pos = w.Workload.pos in
        (* The climb scores candidates against a bounded negative sample
           (Config.climb_neg_cap); mirror that access pattern. *)
        let neg =
          List.filteri
            (fun i _ -> i < w.Workload.config.Config.climb_neg_cap)
            w.Workload.neg
        in
        let make_ctx ~num_domains =
          let config = { w.Workload.config with Config.num_domains } in
          let ctx =
            Baselines.make_context Baselines.Dlearn config w.Workload.db
              w.Workload.mds w.Workload.cfds
          in
          (* Warm the per-example ground caches — shared by both paths. *)
          List.iter
            (fun e ->
              let entry = Bottom_clause.ground ctx e in
              ignore (Coverage.ground_target ctx entry);
              ignore (Coverage.ground_repair_targets ctx entry);
              ignore (Coverage.prefilter_target ctx entry))
            (pos @ neg);
          ctx
        in
        (* One monotone ARMG chain, built once and replayed identically in
           every setting. *)
        let chain =
          let ctx = make_ctx ~num_domains:1 in
          let seed = List.hd pos in
          let bottom = Bottom_clause.build ctx Bottom_clause.Variable seed in
          let rec grow clause acc = function
            | [] -> List.rev acc
            | e :: rest -> (
                if List.length acc > 6 then List.rev acc
                else
                  match Generalization.armg ctx clause e with
                  | Some c when not (Dlearn_logic.Clause.equal c clause) ->
                      grow c (c :: acc) rest
                  | _ -> grow clause acc rest)
          in
          grow bottom [ bottom ] (List.tl pos)
        in
        let time_scratch () =
          let ctx = make_ctx ~num_domains:1 in
          let count pred es =
            Dlearn_parallel.Pool.filter_count_list (Context.pool ctx) pred es
          in
          let t0 = Unix.gettimeofday () in
          List.iter
            (fun clause ->
              let prep = Coverage.prepare ctx clause in
              ignore (count (Coverage.covers_positive ctx prep) pos);
              ignore (count (Coverage.covers_negative ctx prep) neg))
            chain;
          Unix.gettimeofday () -. t0
        in
        let time_incremental num_domains =
          let ctx = make_ctx ~num_domains in
          (* Spawn the worker domains outside the timed section: pool
             creation is once per process, not per coverage call. *)
          ignore (Dlearn_parallel.Pool.get num_domains);
          let t0 = Unix.gettimeofday () in
          let bound = Atomic.make min_int in
          let parent = ref Coverage.Bitset.empty in
          List.iter
            (fun clause ->
              let prep = Coverage.prepare ctx clause in
              let _p, _n, cov, complete =
                Coverage.score_candidate ctx prep ~assume:!parent ~pos ~neg
                  ~bound
              in
              (* the chain is monotone, so each fully-evaluated element
                 becomes the next parent, exactly like the climb *)
              if complete then parent := cov)
            chain;
          Unix.gettimeofday () -. t0
        in
        (* Best-of-3: the chain replays are short (tens of ms on the small
           datasets), so a single sample is scheduler-noise-dominated; the
           minimum is the standard robust estimator for wall-clock
           microbenchmarks. Applied symmetrically to both paths. *)
        let best_of k f =
          List.fold_left (fun acc _ -> Float.min acc (f ())) (f ())
            (List.init (k - 1) Fun.id)
        in
        let t_scratch = best_of 3 time_scratch in
        let sweep =
          List.map
            (fun j -> (j, best_of 3 (fun () -> time_incremental j)))
            sweep_jobs
        in
        let t_incr = List.assoc 1 sweep in
        let t_par = List.assoc jobs sweep in
        ( name,
          List.length chain,
          List.length pos,
          List.length neg,
          t_scratch,
          t_incr,
          t_par,
          sweep ))
      datasets
  in
  Text_table.print
    ~header:
      [
        "dataset";
        "chain";
        "from-scratch";
        "incremental";
        Printf.sprintf "incr %dd" jobs;
        "speedup";
        Printf.sprintf "speedup %dd" jobs;
      ]
    (List.map
       (fun (name, chain, _, _, ts, ti, tp, _) ->
         [
           name;
           string_of_int chain;
           Printf.sprintf "%.3fs" ts;
           Printf.sprintf "%.3fs" ti;
           Printf.sprintf "%.3fs" tp;
           Printf.sprintf "%.2fx" (ts /. ti);
           Printf.sprintf "%.2fx" (ts /. tp);
         ])
       results);
  print_newline ();
  List.iter
    (fun (name, _, _, _, ts, _, _, sweep) ->
      Printf.printf "%s sweep: %s\n" name
        (String.concat "  "
           (List.map
              (fun (j, t) -> Printf.sprintf "%dd %.3fs (%.2fx)" j t (ts /. t))
              sweep)))
    results;
  print_newline ();
  (* Machine-readable record of the perf trajectory. *)
  let oc = open_out "BENCH_coverage.json" in
  let n_str = match n with Some v -> string_of_int v | None -> "null" in
  Printf.fprintf oc "{\n  \"bench\": \"coverage\",\n  \"n\": %s,\n  \"jobs\": %d,\n  \"datasets\": [\n"
    n_str jobs;
  List.iteri
    (fun i (name, chain, npos, nneg, ts, ti, tp, sweep) ->
      let sweep_json =
        String.concat ", "
          (List.map
             (fun (j, t) ->
               Printf.sprintf
                 "{\"jobs\": %d, \"incremental_s\": %.6f, \
                  \"speedup_parallel\": %.3f}"
                 j t (ts /. t))
             sweep)
      in
      Printf.fprintf oc
        "    {\"dataset\": \"%s\", \"chain_length\": %d, \"pos\": %d, \
         \"neg\": %d,\n\
        \     \"from_scratch_seq_s\": %.6f, \"incremental_seq_s\": %.6f, \
         \"incremental_par_s\": %.6f,\n\
        \     \"speedup_incremental\": %.3f, \"speedup_parallel\": %.3f,\n\
        \     \"sweep\": [%s]}%s\n"
        name chain npos nneg ts ti tp (ts /. ti) (ts /. tp) sweep_json
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]%s}\n" (obs_field ());
  close_out oc;
  Printf.printf "wrote BENCH_coverage.json\n\n"

(* ------------------------------------------------------------------ *)
(* Scale: the 10⁵-tuple data path (docs/SCALE.md).                      *)
(* ------------------------------------------------------------------ *)

(* The seed repo's Sim_index, kept verbatim as the sequential baseline:
   one string-keyed posting table, no sharding, no length prefilter, no
   pool. [speedup_vs_legacy] in BENCH_scale.json is measured against
   this — the from-scratch baseline, as BENCH_coverage.json does for the
   incremental engine — while [speedup_parallel] isolates pure pool
   scaling (sharded jobs=1 vs jobs=j). *)
module Legacy_index = struct
  module Sim = Dlearn_similarity

  type t = {
    values : string array;
    by_gram : (string, int list ref) Hashtbl.t;
    n : int;
    measure : Sim.Combined.measure;
  }

  let create ?(n = 3) ?(measure = Sim.Combined.default) values =
    let distinct = List.sort_uniq String.compare values in
    let values = Array.of_list distinct in
    let by_gram = Hashtbl.create (Array.length values * 4) in
    Array.iteri
      (fun i v ->
        List.iter
          (fun g ->
            match Hashtbl.find_opt by_gram g with
            | Some ids -> ids := i :: !ids
            | None -> Hashtbl.add by_gram g (ref [ i ]))
          (Sim.Ngram.gram_set ~n v))
      values;
    { values; by_gram; n; measure }

  let rank_and_cut t ~km ~threshold s candidate_ids =
    let scored =
      List.filter_map
        (fun i ->
          let v = t.values.(i) in
          let score = Sim.Combined.similarity ~measure:t.measure s v in
          if score >= threshold then Some (v, score) else None)
        candidate_ids
    in
    let sorted =
      List.sort
        (fun (v1, s1) (v2, s2) ->
          match Float.compare s2 s1 with
          | 0 -> String.compare v1 v2
          | c -> c)
        scored
    in
    List.filteri (fun i _ -> i < km) sorted

  let query t ~km ~threshold s =
    let seen = Hashtbl.create 64 in
    let candidates = ref [] in
    List.iter
      (fun g ->
        match Hashtbl.find_opt t.by_gram g with
        | Some ids ->
            List.iter
              (fun i ->
                if not (Hashtbl.mem seen i) then begin
                  Hashtbl.add seen i ();
                  candidates := i :: !candidates
                end)
              !ids
        | None -> ())
      (Sim.Ngram.gram_set ~n:t.n s);
    rank_and_cut t ~km ~threshold s !candidates

  let match_pairs ~km ~threshold left right =
    let index = create right in
    let left = List.sort_uniq String.compare left in
    List.concat_map
      (fun l ->
        query index ~km ~threshold l
        |> List.map (fun (r, score) -> (l, r, score)))
      left
end

let bench_scale ~folds:_ ~n () =
  let module Sim = Dlearn_similarity.Sim_index in
  let tuples = (match n with Some v -> v | None -> 100) * 1000 in
  let jobs = max 2 !bench_jobs in
  let sweep_jobs =
    let steps = List.filter (fun j -> j <= jobs) [ 4; 8 ] in
    let steps = if List.mem jobs steps then steps else steps @ [ jobs ] in
    1 :: steps
  in
  let km = 5 and threshold = 0.9 in
  Printf.printf
    "== Scale: streaming storage + sharded Sim_index (tuples=%d, jobs sweep \
     %s) ==\n\
     %!"
    tuples
    (String.concat "/" (List.map string_of_int sweep_jobs));
  let best_of k f =
    List.fold_left (fun acc _ -> Float.min acc (f ())) (f ())
      (List.init (k - 1) Fun.id)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let rss_kb () = Option.value (Dlearn_obs.Obs.peak_rss_kb ()) ~default:0 in
  let top_heap_mb () =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1_048_576.0
  in
  (* Phase 1: generate the dataset on disk. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlearn-scale-%d" tuples)
  in
  let gen_s, summary =
    time (fun () ->
        Scale_gen.generate ~config:{ Scale_gen.default with tuples } dir)
  in
  Printf.printf "generated %d rows x2 (%d bytes) in %.2fs -> %s\n%!" tuples
    summary.Scale_gen.bytes gen_s dir;
  (* Phase 2: ingestion. Peak RSS (VmHWM) and top_heap are high-water
     marks, so the lean phase must run first: stream, record, then
     materialize and record again. *)
  let bytes_c = Dlearn_obs.Obs.counter "storage.bytes_streamed" in
  let bytes0 = Dlearn_obs.Obs.value bytes_c in
  let stream_s, stream_rows =
    time (fun () ->
        List.fold_left
          (fun acc name ->
            Storage.scan dir name ~init:acc ~f:(fun acc _tu -> acc + 1))
          0
          [ Scale_gen.src_name; Scale_gen.dst_name ])
  in
  let stream_bytes = Dlearn_obs.Obs.value bytes_c - bytes0 in
  let stream_rss = rss_kb () and stream_heap = top_heap_mb () in
  let mat_s, db = time (fun () -> Storage.load dir) in
  let mat_tuples = Database.total_tuples db in
  let mat_rss = rss_kb () and mat_heap = top_heap_mb () in
  Printf.printf
    "stream:      %.2fs  %d rows (%d bytes), peak rss %d kB, top heap %.1f MB\n\
     materialize: %.2fs  %d tuples, peak rss %d kB, top heap %.1f MB\n\
     %!"
    stream_s stream_rows stream_bytes stream_rss stream_heap mat_s mat_tuples
    mat_rss mat_heap;
  if stream_rows <> 2 * tuples || mat_tuples <> 2 * tuples then
    failwith "bench scale: row counts disagree";
  let titles rel_name =
    Relation.distinct_values (Database.find db rel_name) Scale_gen.title_pos
    |> List.filter_map (fun v ->
           if Value.is_null v then None else Some (Value.as_string v))
  in
  let right = titles Scale_gen.dst_name in
  let left_all = titles Scale_gen.src_name in
  let nvalues = List.length right in
  (* Phase 3: index build, legacy vs sharded across the jobs sweep. *)
  let legacy_build_s =
    best_of 2 (fun () -> fst (time (fun () -> Legacy_index.create right)))
  in
  let digest1 = Sim.postings_digest (Sim.create ~jobs:1 right) in
  let build_sweep =
    List.map
      (fun j ->
        ignore (Dlearn_parallel.Pool.get j);
        let s =
          best_of 2 (fun () -> fst (time (fun () -> Sim.create ~jobs:j right)))
        in
        (j, s))
      sweep_jobs
  in
  let deterministic =
    List.for_all
      (fun j -> Sim.postings_digest (Sim.create ~jobs:j right) = digest1)
      sweep_jobs
  in
  let build1 = List.assoc 1 build_sweep in
  let shard_index = Sim.create ~jobs:jobs right in
  Printf.printf "index build (%d values, %d shards): legacy %.3fs" nvalues
    (Sim.shard_count shard_index) legacy_build_s;
  List.iter
    (fun (j, s) ->
      Printf.printf "  %dd %.3fs (%.2fx legacy, %.2fx par)" j s
        (legacy_build_s /. s) (build1 /. s))
    build_sweep;
  Printf.printf "  deterministic=%b\n%!" deterministic;
  (* Phase 4: query throughput over a sample of clean-side titles. *)
  let sample k xs =
    let n = List.length xs in
    let step = max 1 (n / k) in
    List.filteri (fun i _ -> i mod step = 0) xs |> List.filteri (fun i _ -> i < k)
  in
  let queries = sample (max 50 (min 300 (tuples / 400))) left_all in
  let nq = List.length queries in
  let legacy = Legacy_index.create right in
  let legacy_query_s, legacy_hits =
    time (fun () ->
        List.map (fun q -> Legacy_index.query legacy ~km ~threshold q) queries)
  in
  let shard_query_s, shard_hits =
    time (fun () ->
        List.map (fun q -> Sim.query shard_index ~km ~threshold q) queries)
  in
  let query_agree = legacy_hits = shard_hits in
  Printf.printf
    "query x%d: legacy %.3fs, sharded %.3fs (%.2fx, %.0f q/s), agree=%b\n%!"
    nq legacy_query_s shard_query_s
    (legacy_query_s /. shard_query_s)
    (float_of_int nq /. shard_query_s)
    query_agree;
  (* Phase 5: match_pairs — build plus one query per left value. *)
  let left = sample (max 50 (min 200 (tuples / 500))) left_all in
  let nleft = List.length left in
  let legacy_match_s, legacy_pairs =
    time (fun () -> Legacy_index.match_pairs ~km ~threshold left right)
  in
  let match_sweep =
    List.map
      (fun j ->
        let s, pairs =
          time (fun () -> Sim.match_pairs ~jobs:j ~km ~threshold left right)
        in
        (j, s, pairs))
      sweep_jobs
  in
  let match1 =
    match match_sweep with (_, s, _) :: _ -> s | [] -> assert false
  in
  let match_agree =
    List.for_all (fun (_, _, pairs) -> pairs = legacy_pairs) match_sweep
  in
  Printf.printf "match_pairs x%d (%d pairs): legacy %.3fs" nleft
    (List.length legacy_pairs) legacy_match_s;
  List.iter
    (fun (j, s, _) ->
      Printf.printf "  %dd %.3fs (%.2fx legacy, %.2fx par)" j s
        (legacy_match_s /. s) (match1 /. s))
    match_sweep;
  Printf.printf "  agree=%b\n%!" match_agree;
  if not (deterministic && query_agree && match_agree) then
    failwith "bench scale: sharded index disagrees with the legacy baseline";
  (* Machine-readable record of the perf trajectory. *)
  let oc = open_out "BENCH_scale.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"scale\",\n\
    \  \"tuples\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"generate\": {\"seconds\": %.6f, \"bytes\": %d, \"rows\": %d, \
     \"duplicates\": %d, \"corrupted_titles\": %d},\n"
    tuples jobs gen_s summary.Scale_gen.bytes (2 * tuples)
    summary.Scale_gen.duplicates summary.Scale_gen.corrupted;
  Printf.fprintf oc
    "  \"ingest\": {\n\
    \    \"stream\": {\"seconds\": %.6f, \"rows\": %d, \"bytes\": %d, \
     \"rows_per_s\": %.0f, \"peak_rss_kb\": %d, \"top_heap_mb\": %.1f},\n\
    \    \"materialize\": {\"seconds\": %.6f, \"tuples\": %d, \
     \"peak_rss_kb\": %d, \"top_heap_mb\": %.1f},\n\
    \    \"stream_rss_below_materialize\": %b},\n"
    stream_s stream_rows stream_bytes
    (float_of_int stream_rows /. stream_s)
    stream_rss stream_heap mat_s mat_tuples mat_rss mat_heap
    (stream_rss < mat_rss || stream_heap < mat_heap);
  let sweep_json fmt_name legacy_s base sweep =
    String.concat ", "
      (List.map
         (fun (j, s) ->
           Printf.sprintf
             "{\"jobs\": %d, \"%s\": %.6f, \"speedup_vs_legacy\": %.3f, \
              \"speedup_parallel\": %.3f}"
             j fmt_name s (legacy_s /. s) (base /. s))
         sweep)
  in
  Printf.fprintf oc
    "  \"index_build\": {\"values\": %d, \"shards\": %d, \"legacy_seq_s\": \
     %.6f,\n\
    \    \"sweep\": [%s],\n\
    \    \"deterministic_across_jobs\": %b},\n"
    nvalues
    (Sim.shard_count shard_index)
    legacy_build_s
    (sweep_json "seconds" legacy_build_s build1 build_sweep)
    deterministic;
  Printf.fprintf oc
    "  \"query\": {\"queries\": %d, \"km\": %d, \"threshold\": %.2f, \
     \"legacy_s\": %.6f, \"sharded_s\": %.6f, \"speedup_vs_legacy\": %.3f, \
     \"sharded_qps\": %.0f, \"results_agree\": %b},\n"
    nq km threshold legacy_query_s shard_query_s
    (legacy_query_s /. shard_query_s)
    (float_of_int nq /. shard_query_s)
    query_agree;
  Printf.fprintf oc
    "  \"match_pairs\": {\"left\": %d, \"pairs\": %d, \"legacy_s\": %.6f,\n\
    \    \"sweep\": [%s],\n\
    \    \"results_agree\": %b}%s}\n"
    nleft
    (List.length legacy_pairs)
    legacy_match_s
    (sweep_json "seconds" legacy_match_s match1
       (List.map (fun (j, s, _) -> (j, s)) match_sweep))
    match_agree (obs_field ());
  close_out oc;
  Printf.printf "wrote BENCH_scale.json\n\n"

(* ------------------------------------------------------------------ *)
(* Serve: warm-state learn latency after a small committed delta vs a
   cold from-scratch run (ISSUE: the long-lived service must beat
   restarting the CLI by >= 5x on imdb3 while learning byte-identical
   definitions). Both sides go through the serve request path
   ([Server.handle]), so the comparison isolates the warm caches: the
   cold run pays every bottom clause, ground repair enumeration and
   verdict from nothing; the warm run pays only what the delta's
   monotone invalidation dropped. Emits BENCH_serve.json. *)

let bench_serve ~folds:_ ~n () =
  let open Dlearn_serve in
  let jobs = max 2 !bench_jobs in
  Printf.printf "== Serve: warm learn after a delta vs cold restart ==\n%!";
  let base = Imdb_omdb.generate ?n `Three_mds in
  let fresh () =
    let w = Experiment.with_jobs base jobs in
    { w with Workload.db = Database.copy w.Workload.db }
  in
  (* The delta: one movie whose values appear nowhere else, so the
     invalidation stays small — the serve loop's intended workload shape
     (a trickle of new tuples between learns). *)
  let delta = [ "tt99990"; "Bench Delta Movie (2099)"; "y2099" ] in
  let learn_req = Protocol.request "learn" [] in
  let clauses_of resp =
    match Json.list_field "clauses" resp with
    | Some items ->
        List.map
          (function Json.String s -> s | _ -> failwith "bad clause") items
    | None -> failwith "learn failed"
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  (* Cold: a fresh state over a database that already holds the delta —
     what restarting the CLI after the insert would compute. *)
  let cold_w = fresh () in
  ignore
    (Relation.insert
       (Database.find cold_w.Workload.db "imdb_movies")
       (Tuple.of_strings delta));
  let cold_state = Server.create cold_w in
  let cold_s, cold_resp = time (fun () -> Server.handle cold_state learn_req) in
  let cold_clauses = clauses_of cold_resp in
  (* Warm: prime a server, commit the delta through the insert op, learn
     again on the surviving caches. *)
  let warm_state = Server.create (fresh ()) in
  let prime_s, _ = time (fun () -> Server.handle warm_state learn_req) in
  let insert_resp =
    Server.handle warm_state
      (Protocol.request "insert"
         [
           ("relation", Json.String "imdb_movies");
           ("values", Json.List (List.map (fun s -> Json.String s) delta));
         ])
  in
  if not (Protocol.is_ok insert_resp) then
    failwith ("bench serve: insert failed: "
              ^ Protocol.error_of_response insert_resp);
  let invalidated =
    match Json.int_field "invalidated" insert_resp with
    | Some v -> v
    | None -> -1
  in
  let warm_s, warm_resp = time (fun () -> Server.handle warm_state learn_req) in
  let warm_clauses = clauses_of warm_resp in
  let identical = warm_clauses = cold_clauses in
  let speedup = cold_s /. warm_s in
  Printf.printf
    "cold learn %.3fs | prime %.3fs | delta invalidated %d examples | warm \
     learn %.3fs (%.1fx) | identical=%b\n%!"
    cold_s prime_s invalidated warm_s speedup identical;
  if not identical then
    failwith "bench serve: warm definition differs from the cold run";
  if speedup < 5.0 then
    failwith
      (Printf.sprintf "bench serve: warm speedup %.1fx is below the 5x floor"
         speedup);
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"serve\",\n\
    \  \"dataset\": \"imdb3\",\n\
    \  \"n\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"cold_learn_s\": %.6f,\n\
    \  \"prime_learn_s\": %.6f,\n\
    \  \"delta\": {\"relation\": \"imdb_movies\", \"invalidated_examples\": \
     %d},\n\
    \  \"warm_learn_s\": %.6f,\n\
    \  \"speedup_warm_vs_cold\": %.3f,\n\
    \  \"definitions_identical\": %b,\n\
    \  \"clauses\": %d%s}\n"
    (match n with Some v -> v | None -> -1)
    jobs cold_s prime_s invalidated warm_s speedup identical
    (List.length warm_clauses)
    (obs_field ());
  close_out oc;
  Printf.printf "wrote BENCH_serve.json\n\n"

(* ------------------------------------------------------------------ *)

let all_benches =
  [
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("fig1left", fig1left);
    ("fig1mid", fig1mid);
    ("fig1right", fig1right);
    ("defs", defs);
    ("ablation-beam", ablation_beam);
    ("ablation-size", ablation_clause_size);
    ("parallel", bench_parallel);
    ("coverage", bench_coverage);
    ("scale", bench_scale);
    ("serve", bench_serve);
  ]

let usage ?(code = 1) () =
  Printf.printf
    "usage: main.exe [%s|micro|all] [--folds K] [--n N] [--jobs N] \
     [--report]\n"
    (String.concat "|" (List.map fst all_benches));
  exit code

let () =
  let folds = ref 5 in
  (* Default scale: 100 underlying entities per workload — large enough
     for 5-fold cross validation, small enough that the full suite runs
     in well under an hour. *)
  let n = ref (Some 100) in
  let which = ref "all" in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ -> usage ~code:0 ()
    | "--folds" :: v :: rest ->
        folds := int_of_string v;
        parse rest
    | "--n" :: v :: rest ->
        n := Some (int_of_string v);
        parse rest
    | "--jobs" :: v :: rest ->
        (* Both the bench's own comparison and every context the table
           drivers create below (Config.default reads the variable). *)
        bench_jobs := int_of_string v;
        Unix.putenv "DLEARN_NUM_DOMAINS" v;
        parse rest
    | "--report" :: rest ->
        bench_report := true;
        parse rest
    | name :: rest when name.[0] <> '-' ->
        which := name;
        parse rest
    | other :: _ ->
        Printf.printf "unknown option %s\n" other;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* Spans short-circuit by default; the --report field reads span
     histograms, so keep them fed. *)
  Dlearn_obs.Obs.set_metrics true;
  (* Per-run progress lines from the experiment driver (Logs.app). *)
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.App);
  let folds = !folds and n = !n in
  match !which with
  | "all" ->
      List.iter (fun (name, f) -> timed name (f ~folds ~n)) all_benches;
      run_micro ()
  | "micro" -> run_micro ()
  | name -> (
      match List.assoc_opt name all_benches with
      | Some f -> timed name (f ~folds ~n)
      | None -> usage ())
