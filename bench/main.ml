(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the generated workloads, plus Bechamel
   micro-benchmarks of the core operations and the ablations called out in
   DESIGN.md.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe table4          # one experiment
     dune exec bench/main.exe -- table5 --folds 3 --n 100
     DLEARN_NUM_DOMAINS=4 dune exec bench/main.exe defs

   DLEARN_NUM_DOMAINS sets the domain count every context reads
   (Config.default); end-to-end performance is measured by bench/e2e.

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
  let ground_target =
    Dlearn_parallel.Memo.force (Coverage.ground ctx seed).Context.target
  in
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
  ]

let usage ?(code = 1) () =
  Printf.printf
    "usage: main.exe [%s|micro|all] [--folds K] [--n N]\n"
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
    | name :: rest when name.[0] <> '-' ->
        which := name;
        parse rest
    | other :: _ ->
        Printf.printf "unknown option %s\n" other;
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
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
