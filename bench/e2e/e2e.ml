(* The repository benchmark: cold learns, similarity matching and the
   warm serve loop, measured end to end and decomposed by layer. See
   README.md in this directory for the workloads, metrics and bounds.

   e2e.exe --workload NAME --seed N --seconds S --trace 0|1
     one run of one workload in this process; the last line of standard
     output is the run's JSON result.
   e2e.exe run [--seed N] [--repeat R] [--seconds S] [--out FILE]
     R untraced runs of every workload, round-robin, each in a child
     process, then one traced run each; prints every metric and writes
     the result file.
   e2e.exe compare OLD.json NEW.json [--benchmark FILE]
     medians side by side against the bounds of BENCHMARK.json; exits 1
     on any regression. *)

module Json = Dlearn_serve.Json

let workloads =
  [
    ("learn_imdb3", Learn_workload.run Learn_workload.imdb3);
    ("learn_walmart", Learn_workload.run Learn_workload.walmart);
    ("sim_topk", Sim_workload.topk);
    ("sim_match", Sim_workload.matching);
    ("serve_delta", Serve_workload.run);
  ]

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       e2e.exe run [--seed N] [--repeat R] [--seconds S] [--out FILE]\n\
    \       e2e.exe compare OLD.json NEW.json [--benchmark FILE]";
  exit 2

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch = ".bench_e2e"

(* {2 One run} *)

let measure ~workload ~seed ~seconds ~trace =
  match List.assoc_opt workload workloads with
  | None ->
      prerr_endline ("e2e: unknown workload " ^ workload);
      exit 2
  | Some run ->
      let dir = Filename.concat scratch (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
      Dlearn_relation.Storage.mkdir_p dir;
      Fun.protect
        ~finally:(fun () ->
          remove_tree dir;
          try Sys.rmdir scratch with Sys_error _ -> ())
        (fun () -> run { Harness.seed; seconds = float_of_int seconds; trace; dir })

(* {2 [run]: many runs, each in a child process} *)

let deadline_s = 120.

(* Run one child to completion or to the deadline; its standard output
   comes back as lines, [None] when it was killed or exited non-zero. *)
let child args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let stop = Unix.gettimeofday () +. deadline_s in
  let rec drain () =
    let left = stop -. Unix.gettimeofday () in
    if left <= 0. then false
    else
      match Unix.select [ out_r ] [] [] left with
      | [], _, _ -> false
      | _ -> (
          match Unix.read out_r chunk 0 (Bytes.length chunk) with
          | 0 -> true
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  let finished = drain () in
  if not finished then begin
    prerr_endline ("e2e: child over the deadline, killed: " ^ String.concat " " args);
    Unix.kill pid Sys.sigkill
  end;
  Unix.close out_r;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED 0 when finished ->
      Some (String.split_on_char '\n' (String.trim (Buffer.contents buf)))
  | _ -> None

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable runs : (string * float) list list;  (** untraced, newest first *)
  mutable layers : (string * float) list;
  digests : (string, string) Hashtbl.t;  (** learner seed -> digest *)
}

let result_of_line line =
  let j = Json.of_string line in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
        List.map
          (fun (k, v) ->
            match Json.member "value" v with
            | Some (Json.Float f) -> (k, f)
            | Some (Json.Int i) -> (k, float_of_int i)
            | _ -> invalid_arg "metric without a value")
          kvs
    | _ -> invalid_arg "result without metrics"
  in
  ( Json.member "correct" j = Some (Json.Bool true),
    Option.value ~default:0 (Json.int_field "attempted" j),
    Option.value ~default:0 (Json.int_field "failed" j),
    metrics )

(* Definition digests printed by the learn workloads; the same learner
   seed must learn the same definition in every run. *)
let check_digests t lines =
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | "definition" :: seed :: digest :: _ -> (
          match Hashtbl.find_opt t.digests seed with
          | Some d when d <> digest ->
              prerr_endline ("e2e: definition changed between runs at " ^ seed);
              t.attempted <- t.attempted + 1;
              t.failed <- t.failed + 1
          | Some _ -> ()
          | None -> Hashtbl.add t.digests seed digest)
      | _ -> ())
    lines

let one_run t ~name ~seed ~seconds ~trace =
  let args =
    [
      "--workload"; name; "--seed"; string_of_int seed; "--seconds";
      string_of_int seconds; "--trace"; (if trace then "1" else "0");
    ]
  in
  let lost reason =
    prerr_endline ("e2e: " ^ reason ^ " from " ^ name);
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1
  in
  match child args with
  | None -> lost "no result"
  | Some lines -> (
      check_digests t lines;
      match result_of_line (List.nth lines (List.length lines - 1)) with
      | correct, attempted, failed, metrics ->
          t.attempted <- t.attempted + attempted;
          (* An incorrect run counts at least once even if no single
             operation failed (e.g. an unbalanced trace). *)
          t.failed <- t.failed + if correct || failed > 0 then failed else 1;
          if trace then t.layers <- metrics else t.runs <- metrics :: t.runs
      | exception (Json.Parse_error _ | Invalid_argument _) -> lost "unreadable result")

(* BENCHMARK.json must list exactly the workloads and metrics this
   program prints, so that its readers, [compare] and the code agree. *)
let check_benchmark_file () =
  if Sys.file_exists "BENCHMARK.json" then begin
    let j = Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
    let pairs key =
      List.map
        (fun m -> (Json.string_field "name" m, Json.string_field "unit" m))
        (Option.value ~default:[] (Json.list_field key j))
    in
    let expected l = List.map (fun (n, u) -> (Some n, Some u)) l in
    let workload_names =
      List.map (Json.string_field "name") (Option.value ~default:[] (Json.list_field "workloads" j))
    in
    if
      pairs "end_to_end" <> expected Harness.end_to_end_names
      || pairs "per_layer" <> expected Harness.per_layer_names
      || workload_names <> List.map (fun (n, _) -> Some n) workloads
    then begin
      prerr_endline "e2e: BENCHMARK.json lists other workloads or metrics than this program";
      exit 1
    end
  end

let print_workload (w : Report.workload) =
  Printf.printf "== %s (attempted %d, failed %d, error_rate %.4f)\n" w.name w.attempted
    w.failed (Report.error_rate w);
  List.iter
    (fun (m, unit, runs) ->
      if runs = [] then Printf.printf "  %-36s no successful run\n" m
      else
        Printf.printf "  %-36s %14.6g %-8s spread %s  runs: %s\n" m (Stats.median runs) unit
          (if List.length runs < 2 then "-" else Printf.sprintf "%.3f" (Stats.spread runs))
          (String.concat " " (List.map (Printf.sprintf "%.6g") runs)))
    w.end_to_end;
  List.iter (fun (m, unit, v) -> Printf.printf "  %-36s %14.6g %s\n" m v unit) w.per_layer

let run_all ~seed ~repeat ~seconds ~out =
  check_benchmark_file ();
  let tallies =
    List.map
      (fun (name, _) ->
        (name, { attempted = 0; failed = 0; runs = []; layers = []; digests = Hashtbl.create 16 }))
      workloads
  in
  (* Round-robin, so drift of the machine hits every workload alike. *)
  for rep = 1 to repeat do
    List.iter
      (fun (name, t) ->
        Printf.printf "run %d/%d %s\n%!" rep repeat name;
        one_run t ~name ~seed ~seconds ~trace:false)
      tallies
  done;
  List.iter
    (fun (name, t) ->
      Printf.printf "traced run %s\n%!" name;
      one_run t ~name ~seed ~seconds ~trace:true)
    tallies;
  let values names metrics =
    List.filter_map
      (fun (m, unit) -> Option.map (fun v -> (m, unit, v)) (List.assoc_opt m metrics))
      names
  in
  let report =
    {
      Report.seconds;
      seed;
      workloads =
        List.map
          (fun (name, t) ->
            let runs = List.rev t.runs in
            {
              Report.name;
              attempted = t.attempted;
              failed = t.failed;
              end_to_end =
                List.map
                  (fun (m, unit) -> (m, unit, List.filter_map (List.assoc_opt m) runs))
                  Harness.end_to_end_names;
              per_layer = values Harness.per_layer_names t.layers;
            })
          tallies;
    }
  in
  List.iter print_workload report.workloads;
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Json.to_string (Report.to_json report));
      output_char oc '\n');
  Printf.printf "wrote %s\n" out;
  if List.exists (fun w -> w.Report.failed > 0) report.workloads then exit 1

let read_json path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)

let compare_files ~benchmark old_path new_path =
  let bounds = Report.bounds_of_benchmark (read_json benchmark) in
  let rows =
    Report.compare bounds
      ~old:(Report.of_json (read_json old_path))
      ~current:(Report.of_json (read_json new_path))
  in
  print_string (Report.render rows);
  if List.exists (fun r -> r.Report.regressed) rows then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--workload"; workload; "--seed"; seed; "--seconds"; seconds; "--trace"; trace ] ->
      measure ~workload ~seed:(int_of_string seed) ~seconds:(int_of_string seconds)
        ~trace:(trace = "1")
  | "run" :: opts ->
      let seed = ref 1 and repeat = ref 3 and seconds = ref 10 in
      let out = ref "e2e-results.json" in
      let rec parse = function
        | [] -> ()
        | "--seed" :: v :: rest ->
            seed := int_of_string v;
            parse rest
        | "--repeat" :: v :: rest ->
            repeat := int_of_string v;
            parse rest
        | "--seconds" :: v :: rest ->
            seconds := int_of_string v;
            parse rest
        | "--out" :: v :: rest ->
            out := v;
            parse rest
        | _ -> usage ()
      in
      parse opts;
      run_all ~seed:!seed ~repeat:!repeat ~seconds:!seconds ~out:!out
  | [ "compare"; old_path; new_path ] ->
      compare_files ~benchmark:"BENCHMARK.json" old_path new_path
  | [ "compare"; old_path; new_path; "--benchmark"; benchmark ] ->
      compare_files ~benchmark old_path new_path
  | _ -> usage ()
