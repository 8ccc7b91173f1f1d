(* The dlearn command-line interface: generate the paper's workloads, run
   any of the compared systems on them, inspect bottom clauses, and export
   the generated data. *)

open Cmdliner
open Dlearn_relation
open Dlearn_core
open Dlearn_eval
open Dlearn_query

(* An unusable argument: one line on stderr naming it, then exit 1, the
   status [check] exits with when it finds errors. *)
let input_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("dlearn: " ^ msg);
      exit 1)
    fmt

let dataset_names = [ "imdb1"; "imdb3"; "walmart"; "dblp" ]

let make_dataset ?n name =
  match name with
  | "imdb1" -> Imdb_omdb.generate ?n `One_md
  | "imdb3" -> Imdb_omdb.generate ?n `Three_mds
  | "walmart" -> Walmart_amazon.generate ?n ()
  | "dblp" -> Dblp_scholar.generate ?n ()
  | other ->
      input_error "--dataset %S: unknown dataset (expected %s)" other
        (String.concat ", " dataset_names)

let systems =
  [
    ("dlearn", Baselines.Dlearn);
    ("nomd", Baselines.Castor_nomd);
    ("exact", Baselines.Castor_exact);
    ("clean", Baselines.Castor_clean);
    ("cfd", Baselines.Dlearn_cfd);
    ("repaired", Baselines.Dlearn_repaired);
  ]

let system_of_string name =
  match List.assoc_opt name systems with
  | Some system -> system
  | None ->
      input_error "--system %S: unknown system (expected %s)" name
        (String.concat ", " (List.map fst systems))

let parse_clause text =
  match Dlearn_logic.Parser.clause text with
  | Ok c -> c
  | Error msg -> input_error "--clause %S: parse error %s" text msg

let positive_example w index =
  let pos = w.Workload.pos in
  let count = List.length pos in
  if index < 0 || index >= count then
    input_error "--example %d is out of range: %d positive examples (0..%d)"
      index count (count - 1)
  else List.nth pos index

(* Shared options. *)
let dataset_arg =
  let doc = "Workload: imdb1, imdb3, walmart or dblp." in
  Arg.(value & opt string "imdb1" & info [ "dataset"; "d" ] ~docv:"NAME" ~doc)

let n_arg =
  let doc = "Scale: number of underlying entities to generate." in
  Arg.(value & opt (some int) None & info [ "n"; "size" ] ~docv:"N" ~doc)

let km_arg =
  let doc = "Top similarity matches considered per value (km)." in
  Arg.(value & opt (some int) None & info [ "km" ] ~docv:"K" ~doc)

let depth_arg =
  let doc = "Bottom-clause construction iterations (d)." in
  Arg.(value & opt (some int) None & info [ "depth" ] ~docv:"D" ~doc)

let p_arg =
  let doc = "CFD-violation injection rate." in
  Arg.(value & opt float 0.0 & info [ "p" ] ~docv:"P" ~doc)

let jobs_arg =
  let doc =
    Printf.sprintf
      "Domains to fan coverage checks and cross-validation folds out over, \
       1 to %d (1 = sequential; default: the machine's recommended domain \
       count, also settable via DLEARN_NUM_DOMAINS)."
      Config.max_domains
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* Checked before any workload is generated: a pool wider than
   [Config.max_domains] fails to spawn its workers mid-run. *)
let check_jobs = function
  | Some j when j < 1 || j > Config.max_domains ->
      input_error "--jobs %d: expected 1..%d domains" j Config.max_domains
  | Some _ | None -> ()

let trace_arg =
  let doc =
    "Record the run and write a Chrome trace-event JSON to $(docv) \
     (loadable in Perfetto or chrome://tracing); also settable via \
     DLEARN_TRACE. Tracing never changes what is learned — see \
     docs/OBSERVABILITY.md."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let report_arg =
  let doc =
    "Print the per-stage observability report (span durations, counters) \
     after the run."
  in
  Arg.(value & flag & info [ "report" ] ~doc)

let verbose_arg =
  let doc = "Log learner progress." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.App))

let apply_overrides w km depth p =
  let w = match km with Some k -> Experiment.with_km w k | None -> w in
  let w = match depth with Some d -> Experiment.with_depth w d | None -> w in
  if p > 0.0 then
    Workload.inject_violations w ~p ~seed:w.Workload.config.Config.seed
  else w

(* dlearn datasets *)
let datasets_cmd =
  let run () =
    List.iter
      (fun name ->
        let w = make_dataset name in
        Printf.printf "%-8s %s\n" name (Workload.describe w))
      dataset_names
  in
  Cmd.v (Cmd.info "datasets" ~doc:"List the available workloads.")
    Term.(const run $ const ())

(* dlearn learn *)
let learn_cmd =
  let system_arg =
    let doc = "System: dlearn, nomd, exact, clean, cfd or repaired." in
    Arg.(value & opt string "dlearn" & info [ "system"; "s" ] ~docv:"SYS" ~doc)
  in
  let folds_arg =
    let doc = "Cross-validation folds." in
    Arg.(value & opt int 5 & info [ "folds" ] ~docv:"K" ~doc)
  in
  let run dataset system n km depth p folds jobs trace report verbose =
    setup_logs verbose;
    let system = system_of_string system in
    check_jobs jobs;
    if folds < 2 then
      input_error "--folds %d: cross-validation needs at least 2 folds" folds;
    let w = apply_overrides (make_dataset ?n dataset) km depth p in
    let npos = List.length w.Workload.pos
    and nneg = List.length w.Workload.neg in
    if npos < folds || nneg < folds then
      input_error
        "--folds %d: %d positive and %d negative examples, and every fold \
         needs at least one of each"
        folds npos nneg;
    let w = match jobs with Some j -> Experiment.with_jobs w j | None -> w in
    let w =
      match trace with Some t -> Experiment.with_trace w (Some t) | None -> w
    in
    (* Spans short-circuit by default; the report needs their histograms
       fed throughout the run. *)
    if report then Dlearn_obs.Obs.set_metrics true;
    Printf.printf "%s\n" (Workload.describe w);
    let r = Experiment.evaluate ~folds system w in
    Printf.printf "%s: F1=%.2f (+/-%.2f) precision=%.2f recall=%.2f %.1fs/fold\n"
      (Baselines.name system) r.Experiment.f1 r.Experiment.f1_std
      r.Experiment.precision r.Experiment.recall r.Experiment.seconds;
    if report then print_string (Dlearn_obs.Obs.report ())
  in
  Cmd.v
    (Cmd.info "learn" ~doc:"Cross-validate a system on a workload.")
    Term.(
      const run $ dataset_arg $ system_arg $ n_arg $ km_arg $ depth_arg $ p_arg
      $ folds_arg $ jobs_arg $ trace_arg $ report_arg $ verbose_arg)

(* dlearn show *)
let show_cmd =
  let index_arg =
    let doc = "Index of the positive example to inspect." in
    Arg.(value & opt int 0 & info [ "example"; "e" ] ~docv:"I" ~doc)
  in
  let ground_arg =
    let doc = "Show the ground bottom clause instead of the variable one." in
    Arg.(value & flag & info [ "ground" ] ~doc)
  in
  let run dataset n km depth p index ground =
    setup_logs false;
    let w = apply_overrides (make_dataset ?n dataset) km depth p in
    let e = positive_example w index in
    let ctx =
      Context.create w.Workload.config w.Workload.db w.Workload.mds
        w.Workload.cfds
    in
    Printf.printf "example: %s\n\n" (Tuple.to_string e);
    let mode = if ground then Bottom_clause.Ground else Bottom_clause.Variable in
    let c = Bottom_clause.build ctx mode e in
    print_endline (Dlearn_logic.Clause.to_string c)
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"Print the bottom clause the learner builds for an example.")
    Term.(
      const run $ dataset_arg $ n_arg $ km_arg $ depth_arg $ p_arg $ index_arg
      $ ground_arg)

(* dlearn query *)
let query_cmd =
  let clause_arg =
    let doc =
      "The clause to evaluate, e.g. 'q(x) <- imdb_movies(x, t, y), t ~ t2, \
       omdb_movies(o, t2, y2)'."
    in
    Arg.(required & opt (some string) None & info [ "clause"; "c" ] ~docv:"CLAUSE" ~doc)
  in
  let limit_arg =
    let doc = "Maximum number of answers." in
    Arg.(value & opt int 25 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let run dataset n p clause limit =
    let c = parse_clause clause in
    let w = apply_overrides (make_dataset ?n dataset) None None p in
    let oracle = Conjunctive.oracle_of_spec w.Workload.config.Config.sim in
    let rows = Conjunctive.answers ~limit w.Workload.db oracle c in
    if rows = [] then print_endline "(no answers)"
    else
      Text_table.print
        ~header:
          (List.init
             (Tuple.arity (List.hd rows))
             (fun i -> Printf.sprintf "col%d" i))
        (List.map
           (fun t ->
             List.init (Tuple.arity t) (fun i ->
                 Value.to_string (Tuple.get t i)))
           rows)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a conjunctive query over a workload.")
    Term.(const run $ dataset_arg $ n_arg $ p_arg $ clause_arg $ limit_arg)

(* dlearn explain *)
let explain_cmd =
  let clause_arg =
    let doc = "The clause whose coverage to explain." in
    Arg.(required & opt (some string) None & info [ "clause"; "c" ] ~docv:"CLAUSE" ~doc)
  in
  let example_arg =
    let doc = "Index of the positive example to explain." in
    Arg.(value & opt int 0 & info [ "example"; "e" ] ~docv:"I" ~doc)
  in
  let run dataset n km depth p clause index =
    setup_logs false;
    let c = parse_clause clause in
    let w = apply_overrides (make_dataset ?n dataset) km depth p in
    let e = positive_example w index in
    let ctx =
      Context.create w.Workload.config w.Workload.db w.Workload.mds
        w.Workload.cfds
    in
    Printf.printf "example: %s\n" (Tuple.to_string e);
    match Explain.positive ctx c e with
    | Some explanation -> print_endline explanation
    | None -> print_endline "the clause does not cover this example"
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain why a clause covers (or fails to cover) an example.")
    Term.(
      const run $ dataset_arg $ n_arg $ km_arg $ depth_arg $ p_arg $ clause_arg
      $ example_arg)

(* dlearn profile *)
let profile_cmd =
  let pair_arg =
    let doc = "Two relation names to profile for matching dependencies." in
    Arg.(value & opt (some (pair string string)) None & info [ "match" ] ~docv:"R1,R2" ~doc)
  in
  let run dataset n pair =
    let w = make_dataset ?n dataset in
    let db = w.Workload.db in
    (match pair with
    | Some (left, right) ->
        Printf.printf "MD candidates between %s and %s:\n" left right;
        List.iter
          (fun (md, stats) ->
            Printf.printf "  %s (coverage %.2f, ambiguity %.2f)\n"
              (Dlearn_constraints.Md.to_string md)
              stats.Dlearn_profiling.Md_discovery.coverage
              stats.Dlearn_profiling.Md_discovery.ambiguity)
          (Dlearn_profiling.Md_discovery.discover db left right)
    | None -> ());
    print_endline "Functional dependencies (lhs of size 1):";
    List.iter
      (fun r ->
        List.iter
          (fun fd ->
            Printf.printf "  %s: %s -> %s\n" (Relation.name r)
              (String.concat "," fd.Dlearn_profiling.Fd_discovery.lhs)
              fd.Dlearn_profiling.Fd_discovery.rhs)
          (Dlearn_profiling.Fd_discovery.discover ~max_lhs:1 r))
      (Database.relations db)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Discover matching dependencies and FDs in a workload.")
    Term.(const run $ dataset_arg $ n_arg $ pair_arg)

(* dlearn check *)
let check_cmd =
  let clause_arg =
    let doc = "A clause to lint and typecheck (repeatable)." in
    Arg.(value & opt_all string [] & info [ "clause"; "c" ] ~docv:"CLAUSE" ~doc)
  in
  let json_arg =
    let doc = "Print diagnostics as a JSON array." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let bad_cfd_arg =
    let doc =
      "Seed a deliberately unsatisfiable CFD pair into the constraint set \
       (two constant right-hand sides over the same column), to \
       demonstrate the analyzer."
    in
    Arg.(value & flag & info [ "seed-bad-cfd" ] ~doc)
  in
  let inconsistent_pair db =
    (* Two CFDs forcing one column to equal two distinct constants. *)
    let rel =
      match
        List.find_opt
          (fun r -> Schema.arity (Relation.schema r) >= 2)
          (Database.relations db)
      with
      | Some r -> r
      | None -> raise (Invalid_argument "no relation with arity >= 2")
    in
    let schema = Relation.schema rel in
    let lhs_attr = Schema.attr_name schema 0 in
    let rhs_attr = Schema.attr_name schema 1 in
    let open Dlearn_constraints in
    List.map
      (fun (id, const) ->
        Cfd.make ~id ~relation:(Relation.name rel)
          ~lhs:[ (lhs_attr, Cfd.Wildcard) ]
          ~rhs:(rhs_attr, Cfd.Const (Value.String const)))
      [ ("bad_cfd_a", "b1"); ("bad_cfd_b", "b2") ]
  in
  let run dataset n clauses json bad_cfd =
    let open Dlearn_analysis in
    let w = make_dataset ?n dataset in
    let cfds =
      if bad_cfd then w.Workload.cfds @ inconsistent_pair w.Workload.db
      else w.Workload.cfds
    in
    let target = w.Workload.config.Config.target in
    let constraint_ds =
      Analyzer.check_constraints w.Workload.db ~mds:w.Workload.mds ~cfds
    in
    let clause_ds =
      List.concat_map
        (fun text ->
          match Dlearn_logic.Parser.clause text with
          | Error msg ->
              [
                Diagnostic.error ~code:"DL001" ~subject:Diagnostic.General
                  ~witness:text ("clause does not parse: " ^ msg);
              ]
          | Ok c -> Analyzer.check_clause w.Workload.db ~target c)
        clauses
    in
    let diagnostics = constraint_ds @ clause_ds in
    if json then print_endline (Diagnostic.report_to_json diagnostics)
    else print_endline (Diagnostic.report_to_string diagnostics);
    if Diagnostic.has_errors diagnostics then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyse a workload's constraints (and optional \
          clauses); exit 1 when any DL0xx error is found.")
    Term.(
      const run $ dataset_arg $ n_arg $ clause_arg $ json_arg $ bad_cfd_arg)

(* dlearn genscale *)
let genscale_cmd =
  let dir_arg =
    let doc = "Directory to write the dataset into (manifest + CSVs)." in
    Arg.(value & opt string "scale-data" & info [ "out"; "o" ] ~docv:"DIR" ~doc)
  in
  let tuples_arg =
    let doc = "Rows per relation." in
    Arg.(
      value
      & opt int Scale_gen.default.Scale_gen.tuples
      & info [ "tuples"; "t" ] ~docv:"N" ~doc)
  in
  let dirt_arg =
    let doc = "Per-field corruption probability, in [0, 1]." in
    Arg.(
      value
      & opt float Scale_gen.default.Scale_gen.dirt_rate
      & info [ "dirt" ] ~docv:"P" ~doc)
  in
  let dup_arg =
    let doc = "Probability a row duplicates the previous entity." in
    Arg.(
      value
      & opt float Scale_gen.default.Scale_gen.duplicate_rate
      & info [ "duplicates" ] ~docv:"P" ~doc)
  in
  let zipf_arg =
    let doc = "Zipf exponent for brand / head-noun skew." in
    Arg.(
      value
      & opt float Scale_gen.default.Scale_gen.zipf_s
      & info [ "zipf" ] ~docv:"S" ~doc)
  in
  let vocab_arg =
    let doc = "Distinct nouns in the title vocabulary (>= 16)." in
    Arg.(
      value
      & opt int Scale_gen.default.Scale_gen.vocab
      & info [ "vocab" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "RNG seed; equal configs produce byte-identical datasets." in
    Arg.(
      value
      & opt int Scale_gen.default.Scale_gen.seed
      & info [ "seed" ] ~docv:"N" ~doc)
  in
  let run dir tuples dirt_rate duplicate_rate zipf_s vocab seed =
    let config =
      {
        Scale_gen.tuples;
        dirt_rate;
        duplicate_rate;
        zipf_s;
        vocab;
        seed;
      }
    in
    (match Scale_gen.validate config with
    | Ok () -> ()
    | Error msg -> input_error "genscale: %s" msg);
    let t0 = Unix.gettimeofday () in
    let summary = Scale_gen.generate ~config dir in
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "%a@." Scale_gen.pp_summary summary;
    Printf.printf "generated in %.2fs (%.0f rows/s)\n" dt
      (float_of_int (2 * tuples) /. dt)
  in
  Cmd.v
    (Cmd.info "genscale"
       ~doc:
         "Generate a deterministic scaled entity-matching dataset \
          (src_products / dst_products) straight to disk — see \
          docs/SCALE.md.")
    Term.(
      const run $ dir_arg $ tuples_arg $ dirt_arg $ dup_arg $ zipf_arg
      $ vocab_arg $ seed_arg)

(* dlearn scan *)
let scan_cmd =
  let dir_arg =
    let doc = "Dataset directory (manifest + CSVs), e.g. from genscale." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let relation_arg =
    let doc =
      "Relation to scan; default: every relation in the manifest."
    in
    Arg.(value & opt (some string) None & info [ "relation"; "r" ] ~docv:"NAME" ~doc)
  in
  let run dir relation =
    let stored =
      try List.map Schema.name (Storage.manifest dir)
      with Sys_error msg ->
        input_error "%s: not a dataset directory (%s)" dir msg
    in
    let names =
      match relation with
      | None -> stored
      | Some name when List.mem name stored -> [ name ]
      | Some name ->
          input_error "--relation %S: not in %s (expected %s)" name dir
            (String.concat ", " stored)
    in
    List.iter
      (fun name ->
        let bytes0 =
          Dlearn_obs.Obs.value (Dlearn_obs.Obs.counter "storage.bytes_streamed")
        in
        let t0 = Unix.gettimeofday () in
        let rows =
          Storage.scan dir name ~init:0 ~f:(fun acc _tu -> acc + 1)
        in
        let dt = Unix.gettimeofday () -. t0 in
        let bytes =
          Dlearn_obs.Obs.value (Dlearn_obs.Obs.counter "storage.bytes_streamed")
          - bytes0
        in
        Printf.printf "%s: %d rows, %d bytes in %.2fs (%.0f rows/s, %.1f MB/s)\n"
          name rows bytes dt
          (float_of_int rows /. dt)
          (float_of_int bytes /. (dt *. 1048576.0)))
      names;
    match Dlearn_obs.Obs.peak_rss_kb () with
    | Some kb -> Printf.printf "peak rss: %d kB\n" kb
    | None -> ()
  in
  Cmd.v
    (Cmd.info "scan"
       ~doc:
         "Stream a stored dataset's tuples off disk without materializing \
          any relation, reporting row/byte throughput and peak RSS.")
    Term.(const run $ dir_arg $ relation_arg)

(* dlearn export *)
let export_cmd =
  let dir_arg =
    let doc = "Directory to write one CSV per relation into." in
    Arg.(value & opt string "." & info [ "out"; "o" ] ~docv:"DIR" ~doc)
  in
  let run dataset n p dir =
    let w = apply_overrides (make_dataset ?n dataset) None None p in
    Storage.mkdir_p dir;
    List.iter
      (fun r ->
        let path = Filename.concat dir (Relation.name r ^ ".csv") in
        Csv.save r path;
        Printf.printf "wrote %s (%d tuples)\n" path (Relation.cardinality r))
      (Database.relations w.Workload.db)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a generated workload as CSV files.")
    Term.(const run $ dataset_arg $ n_arg $ p_arg $ dir_arg)

(* dlearn serve *)
let socket_arg =
  let doc = "Unix-domain socket path the server listens on." in
  Arg.(
    value
    & opt string "dlearn.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let run dataset n km depth p jobs trace verbose socket =
    setup_logs verbose;
    check_jobs jobs;
    let w = apply_overrides (make_dataset ?n dataset) km depth p in
    let w = match jobs with Some j -> Experiment.with_jobs w j | None -> w in
    (match trace with
    | Some _ ->
        Dlearn_obs.Obs.set_metrics true;
        Dlearn_obs.Obs.start_recording ()
    | None -> ());
    let state = Dlearn_serve.Server.create w in
    (* SIGINT/SIGTERM stop the accept loop so the trace still lands. *)
    let request_stop _ = Dlearn_serve.Server.stop state in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop)
     with Invalid_argument _ -> ());
    Printf.printf "serving %s on %s\n%!" w.Workload.name socket;
    Dlearn_serve.Server.run state ~socket_path:socket;
    (match trace with
    | Some path ->
        Dlearn_obs.Obs.write_trace path;
        Printf.printf "wrote %s\n" path
    | None -> ());
    print_endline "server stopped"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a workload over a Unix socket: concurrent learn / coverage \
          / query / insert requests against one warm learning state — see \
          docs/SERVE.md.")
    Term.(
      const run $ dataset_arg $ n_arg $ km_arg $ depth_arg $ p_arg $ jobs_arg
      $ trace_arg $ verbose_arg $ socket_arg)

(* dlearn client *)
let client_cmd =
  let request_arg =
    let doc =
      "The request to send, as a JSON object with an \"op\" field, e.g. \
       '{\"op\":\"status\"}' or \
       '{\"op\":\"insert\",\"relation\":\"imdb_movies\",\"values\":[...]}'."
    in
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"REQUEST" ~doc)
  in
  let wait_arg =
    let doc = "Keep retrying the connection until the server is up." in
    Arg.(value & flag & info [ "wait" ] ~doc)
  in
  let run socket wait request =
    let open Dlearn_serve in
    (* A write to a socket the server has closed then fails with EPIPE,
       reported below, instead of killing the client. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let req =
      try Json.of_string request
      with Json.Parse_error msg ->
        input_error "REQUEST %S: not valid JSON (%s)" request msg
    in
    let c =
      try if wait then Client.connect_retry socket else Client.connect socket
      with Unix.Unix_error (err, _, _) ->
        input_error "--socket %S: cannot connect (%s)" socket
          (Unix.error_message err)
    in
    let resp =
      try Client.request c req with
      | End_of_file ->
          input_error "--socket %S: the server closed the connection without \
             replying"
            socket
      | Unix.Unix_error (err, _, _) ->
          input_error "--socket %S: request failed (%s)" socket
            (Unix.error_message err)
      | Protocol.Protocol_error msg ->
          input_error "--socket %S: malformed response (%s)" socket msg
    in
    Client.close c;
    print_endline (Json.to_string resp);
    if not (Protocol.is_ok resp) then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one JSON request to a running dlearn server and print the \
          response; exit 1 on an {\"ok\":false} response.")
    Term.(const run $ socket_arg $ wait_arg $ request_arg)

let main =
  let info =
    Cmd.info "dlearn" ~version:"1.0.0"
      ~doc:"Learning over dirty data without cleaning (SIGMOD 2020)."
  in
  Cmd.group info
    [
      datasets_cmd; learn_cmd; show_cmd; query_cmd; explain_cmd; profile_cmd;
      check_cmd; genscale_cmd; scan_cmd; export_cmd; serve_cmd; client_cmd;
    ]

let () = exit (Cmd.eval main)
