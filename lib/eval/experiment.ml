open Dlearn_core

let src = Logs.Src.create "dlearn.experiment"

module Log = (val Logs.src_log src : Logs.LOG)

type run = {
  system : Baselines.system;
  workload_name : string;
  f1 : float;
  f1_std : float;
  precision : float;
  recall : float;
  seconds : float;
}

let evaluate ?(folds = 5) system (w : Workload.t) =
  (* Folds are independent (each builds its own context); they share the
     domain pool with the coverage engine — whichever level fans out
     first wins, the other runs sequentially inside it. *)
  let pool =
    Dlearn_parallel.Pool.get w.Workload.config.Config.num_domains
  in
  (* When tracing, record the whole evaluation and write the trace after
     the folds drain. Recording only appends to per-domain buffers; the
     learner's decisions never read them, so results are identical with
     tracing on and off. Back-to-back evaluates each overwrite [path] —
     the last run wins, matching the one-run CLI flow. *)
  let module Obs = Dlearn_obs.Obs in
  let finish_trace =
    match w.Workload.config.Config.trace with
    | None -> fun () -> ()
    | Some path ->
        let was_recording = Obs.recording () in
        if not was_recording then Obs.start_recording ();
        fun () ->
          Obs.write_trace path;
          if not was_recording then Obs.stop_recording ();
          Log.info (fun m -> m "wrote Chrome trace to %s" path);
          Log.info (fun m -> m "@[<v>%a@]" Fmt.lines (Obs.report ()))
  in
  let fold_results =
    Cross_validation.run ~pool ~k:folds ~seed:w.Workload.config.Config.seed
      ~pos:w.Workload.pos ~neg:w.Workload.neg (fun fold ->
        let ctx =
          Baselines.make_context system w.Workload.config w.Workload.db
            w.Workload.mds w.Workload.cfds
        in
        let result =
          Learner.learn ctx ~pos:fold.Cross_validation.train_pos
            ~neg:fold.Cross_validation.train_neg
        in
        let confusion =
          Metrics.of_predictions
            ~predict:(Learner.predictor ctx result.Learner.definition)
            ~pos:fold.Cross_validation.test_pos
            ~neg:fold.Cross_validation.test_neg
        in
        (confusion, result.Learner.seconds))
  in
  let f1s = List.map (fun (c, _) -> Metrics.f1 c) fold_results in
  let total =
    List.fold_left (fun acc (c, _) -> Metrics.add acc c) Metrics.empty
      fold_results
  in
  let seconds =
    Cross_validation.mean (List.map snd fold_results)
  in
  let r =
    {
      system;
      workload_name = w.Workload.name;
      f1 = Cross_validation.mean f1s;
      f1_std = Cross_validation.stddev f1s;
      precision = Metrics.precision total;
      recall = Metrics.recall total;
      seconds;
    }
  in
  finish_trace ();
  Log.app (fun m ->
      m "%s on %s: F1=%.2f (+/-%.2f) p=%.2f r=%.2f %.1fs/fold"
        (Baselines.name system) w.Workload.name r.f1 r.f1_std r.precision
        r.recall r.seconds);
  r

let with_config (w : Workload.t) f = { w with Workload.config = f w.Workload.config }
let with_km w km = with_config w (fun c -> { c with Config.km })
let with_depth w depth = with_config w (fun c -> { c with Config.depth })

let with_jobs w jobs =
  with_config w (fun c -> { c with Config.num_domains = max 1 jobs })

let with_trace w trace = with_config w (fun c -> { c with Config.trace })

let with_sample_size w sample_size =
  with_config w (fun c -> { c with Config.sample_size })

type table = {
  title : string;
  header : string list;
  rows : string list list;
  plots : (string * string * (string * float) list) list;
      (* (title, unit, points): ASCII bars appended after the table *)
}

let table ?(plots = []) title header rows = { title; header; rows; plots }

let render t =
  Printf.sprintf "== %s ==\n%s%s" t.title
    (Dlearn_relation.Text_table.render ~header:t.header t.rows)
    (String.concat ""
       (List.map
          (fun (title, unit_label, points) ->
            "\n" ^ Ascii_plot.series ~title ~unit_label points)
          t.plots))

let f2 x = Printf.sprintf "%.2f" x
let secs x = Printf.sprintf "%.1fs" x

(* ------------------------------------------------------------------ *)

let md_workloads ?n () =
  [
    Imdb_omdb.generate ?n `One_md;
    Imdb_omdb.generate ?n `Three_mds;
    Walmart_amazon.generate ?n ();
    Dblp_scholar.generate ?n ();
  ]

let table4 ?folds ?n () =
  let rows =
    List.concat_map
      (fun w ->
        let base_systems =
          [ Baselines.Castor_nomd; Baselines.Castor_exact; Baselines.Castor_clean ]
        in
        let base_runs =
          List.map (fun s -> evaluate ?folds s w) base_systems
        in
        (* The paper sweeps km = 2/5/10; its km = 10 column is also its
           most expensive by far (285 minutes on IMDB+OMDB 3 MDs). At our
           budget we sweep km = 1/2/5, which exhibits the same trend. *)
        let dlearn_runs =
          List.map
            (fun km -> evaluate ?folds Baselines.Dlearn (with_km w km))
            [ 1; 2; 5 ]
        in
        let metric name f =
          (w.Workload.name ^ " " ^ name)
          :: List.map f (base_runs @ dlearn_runs)
        in
        [
          metric "F1" (fun r -> f2 r.f1);
          metric "Time" (fun r -> secs r.seconds);
        ])
      (md_workloads ?n ())
  in
  table "Table 4: learning over all datasets with MDs"
    [
      "Dataset / Metric"; "Castor-NoMD"; "Castor-Exact"; "Castor-Clean";
      "DLearn km=1"; "DLearn km=2"; "DLearn km=5";
    ]
    rows

(* The paper runs Table 5 at km = 10 (Walmart, DBLP) and km = 5 (IMDB);
   the CFD-vs-repair comparison is the signal, and km = 2 keeps the sweep
   tractable at our scale. *)
let cfd_workloads ?n () =
  [
    (Imdb_omdb.generate ?n `Three_mds, 2);
    (Walmart_amazon.generate ?n (), 2);
    (Dblp_scholar.generate ?n (), 2);
  ]

let table5 ?folds ?n () =
  let ps = [ 0.05; 0.10; 0.20 ] in
  let rows =
    List.concat_map
      (fun (w, km) ->
        let w = with_km w km in
        let runs system =
          List.map
            (fun p ->
              let w' =
                Workload.inject_violations w ~p
                  ~seed:w.Workload.config.Config.seed
              in
              evaluate ?folds system w')
            ps
        in
        let cfd_runs = runs Baselines.Dlearn_cfd in
        let rep_runs = runs Baselines.Dlearn_repaired in
        [
          (w.Workload.name ^ " F1")
          :: (List.map (fun r -> f2 r.f1) cfd_runs
             @ List.map (fun r -> f2 r.f1) rep_runs);
          (w.Workload.name ^ " Time")
          :: (List.map (fun r -> secs r.seconds) cfd_runs
             @ List.map (fun r -> secs r.seconds) rep_runs);
        ])
      (cfd_workloads ?n ())
  in
  table "Table 5: learning with MDs and CFD violations (rate p)"
    [
      "Dataset / Metric"; "CFD p=.05"; "CFD p=.10"; "CFD p=.20";
      "Rep p=.05"; "Rep p=.10"; "Rep p=.20";
    ]
    rows

(* Example-count sweep used by Table 6 and Figure 1 (left): fractions of
   the paper's 100/200 ... 2000/4000 ladder, scaled to the generated
   workload. *)
let example_ladder (w : Workload.t) =
  let np = List.length w.Workload.pos in
  List.filter_map
    (fun frac ->
      let p = max 5 (int_of_float (frac *. float_of_int np)) in
      if p > np then None else Some (p, 2 * p))
    [ 0.25; 0.5; 0.75; 1.0 ]

let table6 ?folds ?n () =
  let w = Imdb_omdb.generate ?n `Three_mds in
  let w =
    Workload.inject_violations w ~p:0.10 ~seed:w.Workload.config.Config.seed
  in
  (* The paper contrasts km = 5 with km = 2 here; we contrast km = 2 with
     km = 1 — same qualitative comparison (the larger km is the slower)
     within this machine's budget. *)
  let sweep km =
    List.map
      (fun (np, nn) ->
        let w' =
          Workload.with_examples (with_km w km) ~pos:np ~neg:nn
            ~seed:w.Workload.config.Config.seed
        in
        ((np, nn), evaluate ?folds Baselines.Dlearn_cfd w'))
      (example_ladder w)
  in
  let k5 = sweep 2 and k2 = sweep 1 in
  let header =
    "Metric"
    :: (List.map (fun ((p, n), _) -> Printf.sprintf "km=2 %d/%d" p n) k5
       @ List.map (fun ((p, n), _) -> Printf.sprintf "km=1 %d/%d" p n) k2)
  in
  let rows =
    [
      "F1" :: List.map (fun (_, r) -> f2 r.f1) (k5 @ k2);
      "Time" :: List.map (fun (_, r) -> secs r.seconds) (k5 @ k2);
    ]
  in
  table "Table 6: IMDB+OMDB (3 MDs, CFD violations) scaling #examples (#P/#N)"
    header rows

let table7 ?folds ?n () =
  let w = Imdb_omdb.generate ?n `Three_mds in
  let w =
    Workload.inject_violations w ~p:0.10 ~seed:w.Workload.config.Config.seed
  in
  let w = with_km w 5 in
  let runs =
    List.map (fun d -> (d, evaluate ?folds Baselines.Dlearn_cfd (with_depth w d)))
      [ 2; 3; 4; 5 ]
  in
  table "Table 7: effect of the number of iterations d (km=5)"
    ("Metric" :: List.map (fun (d, _) -> Printf.sprintf "d=%d" d) runs)
    [
      "F1" :: List.map (fun (_, r) -> f2 r.f1) runs;
      "Time" :: List.map (fun (_, r) -> secs r.seconds) runs;
    ]
    ~plots:
      [
        ( "F1 vs iteration depth", "F1",
          List.map (fun (d, r) -> (Printf.sprintf "d=%d" d, r.f1)) runs );
        ( "learning time vs iteration depth", "seconds",
          List.map (fun (d, r) -> (Printf.sprintf "d=%d" d, r.seconds)) runs );
      ]

let figure1_examples ?folds ?n () =
  let w = Imdb_omdb.generate ?n `Three_mds in
  let w = with_km w 2 in
  let runs =
    List.map
      (fun (np, nn) ->
        let w' =
          Workload.with_examples w ~pos:np ~neg:nn
            ~seed:w.Workload.config.Config.seed
        in
        ((np, nn), evaluate ?folds Baselines.Dlearn w'))
      (example_ladder w)
  in
  table "Figure 1 (left): F1 and time vs #examples (km=2, 3 MDs)"
    ("Metric"
    :: List.map (fun ((p, n), _) -> Printf.sprintf "%d/%d" p n) runs)
    [
      "F1" :: List.map (fun (_, r) -> f2 r.f1) runs;
      "Time" :: List.map (fun (_, r) -> secs r.seconds) runs;
    ]
    ~plots:
      [
        ( "F1 vs #examples", "F1",
          List.map (fun ((p, n), r) -> (Printf.sprintf "%d/%d" p n, r.f1)) runs );
        ( "learning time vs #examples", "seconds",
          List.map
            (fun ((p, n), r) -> (Printf.sprintf "%d/%d" p n, r.seconds))
            runs );
      ]

let figure1_sample_size ?folds ?n ~km () =
  let w = with_km (Imdb_omdb.generate ?n `Three_mds) km in
  let runs =
    List.map
      (fun s -> (s, evaluate ?folds Baselines.Dlearn (with_sample_size w s)))
      [ 5; 10; 15; 20 ]
  in
  table
    (Printf.sprintf "Figure 1 (%s): F1 and time vs sample size (km=%d, 3 MDs)"
       (if km = 2 then "middle" else "right")
       km)
    ("Metric" :: List.map (fun (s, _) -> Printf.sprintf "sample=%d" s) runs)
    [
      "F1" :: List.map (fun (_, r) -> f2 r.f1) runs;
      "Time" :: List.map (fun (_, r) -> secs r.seconds) runs;
    ]
    ~plots:
      [
        ( "F1 vs sample size", "F1",
          List.map (fun (s, r) -> (Printf.sprintf "sample=%d" s, r.f1)) runs );
        ( "learning time vs sample size", "seconds",
          List.map (fun (s, r) -> (Printf.sprintf "sample=%d" s, r.seconds)) runs );
      ]

let qualitative_definitions ?n () =
  let w = Walmart_amazon.generate ?n () in
  let buf = Buffer.create 1024 in
  List.iter
    (fun system ->
      let ctx =
        Baselines.make_context system w.Workload.config w.Workload.db
          w.Workload.mds w.Workload.cfds
      in
      let result =
        Learner.learn ctx ~pos:w.Workload.pos ~neg:w.Workload.neg
      in
      Buffer.add_string buf
        (Printf.sprintf "--- %s over %s ---\n" (Baselines.name system)
           w.Workload.name);
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "%s\n(positive covered=%d, negative covered=%d)\n\n"
               (Dlearn_logic.Clause.to_string s.Learner.clause)
               s.Learner.pos_covered s.Learner.neg_covered))
        result.Learner.stats;
      if result.Learner.stats = [] then Buffer.add_string buf "(empty definition)\n\n")
    [ Baselines.Dlearn; Baselines.Castor_clean ];
  Buffer.contents buf
