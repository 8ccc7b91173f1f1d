(* The parallel-vs-sequential equivalence suite.

   The pool promises bit-for-bit the sequential results (pool.mli); the
   coverage engine promises that fanning out over domains never changes a
   verdict (coverage.mli). Both promises are checked here: pool unit
   tests against the stdlib sequential combinators, a QCheck property
   comparing [Coverage.coverage] at num_domains ∈ {2, 4, 8} against the
   num_domains = 1 path on random clauses and example multisets (MD and
   CFD repair literals both exercised), and stress tests that hammer the
   shared memo cells from many domains to catch races that a single
   deterministic interleaving would miss. *)

open Dlearn_relation
open Dlearn_constraints
open Dlearn_logic
open Dlearn_core
module Pool = Dlearn_parallel.Pool
module Memo = Dlearn_parallel.Memo

let sv s = Value.String s

(* Force every parallel-eligible batch down the fan-out path with the
   smallest chunks, then restore the default cost model. The equivalence
   and stress suites run under this so the toy workloads (whose batches
   the adaptive model would keep inline) actually reach the workers. *)
let with_forced_fanout f =
  Pool.set_cost_model ~fanout_threshold:0 ~min_chunk:0 ();
  Fun.protect ~finally:Pool.reset_cost_model f

(* Busy-wait, so per-item cost is controllable without releasing the
   domain (Unix.sleepf would let every other participant run for free
   and hide skew). *)
let spin_ns ns =
  let stop = Unix.gettimeofday () +. (float_of_int ns /. 1e9) in
  while Unix.gettimeofday () < stop do
    ignore (Sys.opaque_identity 0)
  done

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let pool_sizes = [ 1; 2; 4; 8 ]

(* Fans a batch out whose closure captures a fresh array, and leaves a
   weak pointer to it in [weak]. Kept out of line so no register or
   stack slot of the caller still holds the array. *)
let[@inline never] fan_out_capturing weak =
  let big = Array.make 100_000 1 in
  Weak.set weak 0 (Some big);
  ignore (Pool.map (Pool.get 2) (fun i -> i + big.(i)) (Array.init 64 Fun.id))

let pool_tests =
  [
    Alcotest.test_case "map equals Array.map at every size" `Quick (fun () ->
        List.iter
          (fun n ->
            let pool = Pool.get n in
            List.iter
              (fun len ->
                let arr = Array.init len (fun i -> i) in
                let expected = Array.map (fun x -> (x * 7) + 3) arr in
                let got = Pool.map pool (fun x -> (x * 7) + 3) arr in
                Alcotest.(check (array int))
                  (Printf.sprintf "pool %d, len %d" n len)
                  expected got)
              [ 0; 1; 2; 7; 64; 257 ])
          pool_sizes);
    Alcotest.test_case "map_list preserves input order" `Quick (fun () ->
        let pool = Pool.get 4 in
        let l = List.init 100 (fun i -> 99 - i) in
        Alcotest.(check (list int))
          "same order" (List.map succ l)
          (Pool.map_list pool succ l));
    Alcotest.test_case "exceptions propagate to the submitter" `Quick
      (fun () ->
        (* Forced fan-out exercises the job-failure path; the n = 1 pool
           still covers the direct inline raise. *)
        with_forced_fanout (fun () ->
            List.iter
              (fun n ->
                let pool = Pool.get n in
                let raised =
                  try
                    ignore
                      (Pool.map pool
                         (fun x -> if x = 61 then failwith "boom" else x)
                         (Array.init 100 (fun i -> i)));
                    false
                  with Failure msg -> msg = "boom"
                in
                Alcotest.(check bool)
                  (Printf.sprintf "pool %d re-raises" n)
                  true raised;
                (* The pool survives a failed batch. *)
                Alcotest.(check (array int)) "still works"
                  (Array.init 100 succ)
                  (Pool.map pool succ (Array.init 100 (fun i -> i))))
              pool_sizes));
    Alcotest.test_case "nested submission falls back sequentially" `Quick
      (fun () ->
        with_forced_fanout (fun () ->
            let pool = Pool.get 4 in
            let inner = Array.init 20 (fun i -> i) in
            let got =
              Pool.map pool
                (fun x ->
                  Array.fold_left ( + ) 0 (Pool.map pool (fun y -> x * y) inner))
                (Array.init 30 (fun i -> i))
            in
            let expected =
              Array.init 30 (fun x ->
                  Array.fold_left ( + ) 0 (Array.map (fun y -> x * y) inner))
            in
            Alcotest.(check (array int)) "no deadlock, same result" expected got));
    Alcotest.test_case "stats counters advance on fan-out" `Quick (fun () ->
        with_forced_fanout (fun () ->
            let pool = Pool.get 2 in
            let before = Pool.stats pool in
            ignore (Pool.map pool succ (Array.init 64 (fun i -> i)));
            let after = Pool.stats pool in
            Alcotest.(check int) "domains" 2 after.Pool.domains;
            Alcotest.(check bool) "one more task" true
              (after.Pool.tasks = before.Pool.tasks + 1);
            (* [map] computes item 0 inline to seed the result array and
               counts it with the 63 that go through chunks. *)
            Alcotest.(check int) "items counted" (before.Pool.items + 64)
              after.Pool.items;
            Alcotest.(check bool) "chunks counted" true
              (after.Pool.chunks > before.Pool.chunks);
            Alcotest.(check int) "busy slots" 2
              (Array.length after.Pool.busy_seconds)));
    Alcotest.test_case "a fan-out adds no chunk_size row to the report"
      `Quick (fun () ->
        (* A chunk size is not a duration; [pool.<n>.chunks] already
           counts the chunks. *)
        with_forced_fanout (fun () ->
            let pool = Pool.get 2 in
            let before = (Pool.stats pool).Pool.tasks in
            ignore (Pool.map pool succ (Array.init 64 Fun.id));
            Alcotest.(check int) "fanned out" (before + 1)
              (Pool.stats pool).Pool.tasks);
        let report = Dlearn_obs.Obs.report () in
        let has sub =
          let n = String.length sub in
          let rec at i =
            i + n <= String.length report
            && (String.sub report i n = sub || at (i + 1))
          in
          at 0
        in
        Alcotest.(check bool) "no chunk_size row" false (has "chunk_size"));
    Alcotest.test_case "a drained batch releases its closure" `Quick
      (fun () ->
        let weak = Weak.create 1 in
        with_forced_fanout (fun () -> fan_out_capturing weak);
        (* A worker may still be leaving [participate] with the job on its
           stack, so give the collection up to a second. *)
        let deadline = Unix.gettimeofday () +. 1.0 in
        let rec collected () =
          Gc.full_major ();
          Option.is_none (Weak.get weak 0)
          || Unix.gettimeofday () < deadline
             && begin
                  Unix.sleepf 0.01;
                  collected ()
                end
        in
        Alcotest.(check bool) "captured array collected" true (collected ()));
    Alcotest.test_case "DLEARN_NUM_DOMAINS past 128 keeps the default" `Quick
      (fun () ->
        let domains v =
          let saved = Sys.getenv_opt "DLEARN_NUM_DOMAINS" in
          Unix.putenv "DLEARN_NUM_DOMAINS" v;
          Fun.protect
            ~finally:(fun () ->
              Unix.putenv "DLEARN_NUM_DOMAINS" (Option.value saved ~default:""))
            (fun () ->
              (Config.default ~target:(Schema.string_attrs "t" [ "a" ]))
                .Config.num_domains)
        in
        let default = Domain.recommended_domain_count () in
        Alcotest.(check int) "128 is kept" 128 (domains "128");
        Alcotest.(check int) "129 falls back" default (domains "129");
        Alcotest.(check int) "0 falls back" default (domains "0"));
    Alcotest.test_case "get shares one pool per size" `Quick (fun () ->
        Alcotest.(check bool) "same pool" true (Pool.get 4 == Pool.get 4);
        Alcotest.(check int) "size respected" 4 (Pool.num_domains (Pool.get 4));
        Alcotest.(check int) "sequential pool" 1 (Pool.num_domains (Pool.get 1)));
    Alcotest.test_case "a batch submitted while another is in flight runs inline"
      `Quick (fun () ->
        (* The first batch's one chunk cannot finish before the second
           batch does, as when its chunk waits on a Memo cell the second
           submitter is computing: a second submitter that waited for the
           pool would deadlock. *)
        with_forced_fanout (fun () ->
            let pool = Pool.get 2 in
            let in_flight = Atomic.make false in
            let second_done = Atomic.make false in
            let first =
              Domain.spawn (fun () ->
                  Pool.map pool
                    (fun i ->
                      if i > 0 then begin
                        Atomic.set in_flight true;
                        while not (Atomic.get second_done) do
                          Domain.cpu_relax ()
                        done
                      end;
                      i)
                    [| 0; 1 |])
            in
            while not (Atomic.get in_flight) do
              Domain.cpu_relax ()
            done;
            let before = Pool.stats pool in
            let second = Pool.map pool succ (Array.init 8 Fun.id) in
            let after = Pool.stats pool in
            Atomic.set second_done true;
            Alcotest.(check (array int)) "second batch" (Array.init 8 succ)
              second;
            Alcotest.(check int) "finished inline"
              (before.Pool.inline_batches + 1)
              after.Pool.inline_batches;
            Alcotest.(check int) "no second task" before.Pool.tasks
              after.Pool.tasks;
            Alcotest.(check (array int)) "first batch" [| 0; 1 |]
              (Domain.join first)));
  ]

(* ------------------------------------------------------------------ *)
(* Memo stress                                                         *)
(* ------------------------------------------------------------------ *)

let memo_tests =
  [
    Alcotest.test_case "concurrent force runs the thunk once" `Quick (fun () ->
        for _round = 1 to 20 do
          let runs = Atomic.make 0 in
          let cell =
            Memo.make (fun () ->
                Atomic.incr runs;
                (* widen the race window *)
                ignore (Sys.opaque_identity (Array.make 1000 0));
                ref 42)
          in
          let domains =
            List.init 8 (fun _ -> Domain.spawn (fun () -> Memo.force cell))
          in
          let results = List.map Domain.join domains in
          Alcotest.(check int) "thunk ran once" 1 (Atomic.get runs);
          let first = List.hd results in
          List.iter
            (fun r ->
              Alcotest.(check bool) "physically equal" true (r == first))
            results
        done);
    Alcotest.test_case "raised thunks cache the exception" `Quick (fun () ->
        let runs = Atomic.make 0 in
        let cell =
          Memo.make (fun () ->
              Atomic.incr runs;
              failwith "memo-boom")
        in
        let attempt () =
          try Memo.force cell
          with Failure msg when msg = "memo-boom" -> 0
        in
        ignore (attempt ());
        ignore (attempt ());
        Alcotest.(check int) "thunk ran once" 1 (Atomic.get runs);
        Alcotest.(check bool) "is_forced after raise" true (Memo.is_forced cell));
    Alcotest.test_case "a table computes each key once" `Quick (fun () ->
        let module T = Memo.Table (Int) in
        let table = T.create 8 in
        let runs = Array.init 4 (fun _ -> Atomic.make 0) in
        let get k =
          T.find_or_add table k (fun () ->
              Atomic.incr runs.(k);
              ref k)
        in
        (* Domain [i] asks for the keys in the order i, i + 1, ... *)
        let results =
          List.init 8 (fun i ->
              Domain.spawn (fun () ->
                  Array.init 4 (fun k -> get ((k + i) mod 4))))
          |> List.map Domain.join
        in
        Array.iteri
          (fun k r ->
            Alcotest.(check int) (Printf.sprintf "key %d ran once" k) 1
              (Atomic.get r))
          runs;
        let first = List.hd results in
        List.iteri
          (fun i r ->
            Array.iteri
              (fun j v ->
                Alcotest.(check bool) "physically equal" true
                  (v == first.((j + i) mod 4)))
              r)
          results;
        Alcotest.(check (list int)) "computed keys" [ 0; 1; 2; 3 ]
          (List.sort compare (List.map fst (T.computed table)));
        T.remove table 2;
        Alcotest.(check bool) "a removed key computes afresh" false
          (get 2 == first.(2));
        Alcotest.(check int) "key 2 ran twice" 2 (Atomic.get runs.(2)));
  ]

(* ------------------------------------------------------------------ *)
(* Toy workload (mirrors test_core.ml)                                 *)
(* ------------------------------------------------------------------ *)

let toy_db () =
  let db = Database.create () in
  let movies =
    Database.create_relation db
      (Schema.string_attrs "imdb_movies" [ "id"; "title"; "year" ])
  in
  Relation.insert_all movies
    [
      Tuple.of_strings [ "m1"; "Superbad (2007)"; "y2007" ];
      Tuple.of_strings [ "m2"; "Zoolander (2001)"; "y2001" ];
      Tuple.of_strings [ "m3"; "The Orphanage (2007)"; "y2007" ];
      Tuple.of_strings [ "m4"; "Alien (1979)"; "y1979" ];
    ];
  let genres =
    Database.create_relation db
      (Schema.string_attrs "imdb_genres" [ "id"; "genre" ])
  in
  Relation.insert_all genres
    [
      Tuple.of_strings [ "m1"; "comedy" ];
      Tuple.of_strings [ "m2"; "comedy" ];
      Tuple.of_strings [ "m3"; "drama" ];
      Tuple.of_strings [ "m4"; "scifi" ];
    ];
  let ratings =
    Database.create_relation db
      (Schema.string_attrs "bom_ratings" [ "title"; "rating" ])
  in
  Relation.insert_all ratings
    [
      Tuple.of_strings [ "Superbad [2007]"; "R" ];
      Tuple.of_strings [ "Zoolander [2001]"; "PG-13" ];
      Tuple.of_strings [ "The Orphanage [2007]"; "R" ];
      Tuple.of_strings [ "Alien [1979]"; "R" ];
    ];
  db

(* A locale relation violating a CFD, so CFD repair literals appear in
   the bottom clauses (see test_core.ml's cfd suite). *)
let violating_db () =
  let db = toy_db () in
  let locale =
    Database.create_relation db
      (Schema.string_attrs "locale" [ "id"; "language"; "country" ])
  in
  Relation.insert_all locale
    [
      Tuple.of_strings [ "m1"; "English"; "USA" ];
      Tuple.of_strings [ "m1"; "English"; "Ireland" ];
      Tuple.of_strings [ "m2"; "English"; "USA" ];
    ];
  db

let phi =
  Cfd.make ~id:"phi" ~relation:"locale"
    ~lhs:[ ("id", Cfd.Wildcard); ("language", Cfd.Const (sv "English")) ]
    ~rhs:("country", Cfd.Wildcard)

let md_title =
  Md.make ~id:"title_md" ~left:"imdb_movies" ~right:"bom_ratings"
    ~compared:[ ("title", "title") ] ~unified:("title", "title") ()

let target = Schema.string_attrs "restricted" [ "id" ]

let toy_config ~jobs ~threshold =
  {
    (Config.default ~target) with
    Config.constant_attrs =
      [ ("bom_ratings", "rating"); ("imdb_genres", "genre") ];
    sim = { Md.default_sim with Md.threshold };
    min_pos = 2;
    sample_positives = 4;
    num_domains = jobs;
  }

let ex id = Tuple.of_strings [ id ]
let examples = [| ex "m1"; ex "m2"; ex "m3"; ex "m4" |]

let hand_clause () =
  let v0 = Term.var "x0" and vt = Term.var "xt" and vy = Term.var "xy" in
  let vt2 = Term.var "xt2" in
  let r0 = Term.var "rr0" and r1 = Term.var "rr1" in
  let sim = Literal.Sim (vt, vt2) in
  let mk_repair subject replacement =
    Literal.Repair
      {
        origin = Literal.From_md "title_md";
        group = 0;
        cond = [ Cond.Csim (vt, vt2) ];
        subject;
        replacement;
        drops = [ sim ];
      }
  in
  Clause.make
    ~head:(Literal.rel "restricted" [ v0 ])
    [
      Literal.rel "imdb_movies" [ v0; vt; vy ];
      Literal.rel "bom_ratings" [ vt2; Term.str "R" ];
      sim;
      mk_repair vt r0;
      mk_repair vt2 r1;
      Literal.Eq (r0, r1);
    ]

(* Three workload variants: the strict MD-only setting, the loose
   threshold that opens the spurious-repair space, and a CFD-violating
   database. Each variant carries one context per domain count, sharing
   its ground-clause caches across all 500 QCheck cases. *)
type variant = {
  name : string;
  ctxs : (int * Context.t) list;  (** num_domains -> context *)
  clauses : Clause.t array;
}

let domain_counts = [ 1; 2; 4; 8 ]

let make_variant name ~threshold ~db ~cfds =
  let ctxs =
    List.map
      (fun jobs ->
        ( jobs,
          Context.create (toy_config ~jobs ~threshold) (db ()) [ md_title ]
            cfds ))
      domain_counts
  in
  let seq = List.assoc 1 ctxs in
  let bottoms =
    List.map
      (fun id -> Bottom_clause.build seq Bottom_clause.Variable (ex id))
      [ "m1"; "m3"; "m4" ]
  in
  let armgs =
    List.filter_map
      (fun (seed, towards) ->
        let bottom = Bottom_clause.build seq Bottom_clause.Variable (ex seed) in
        Generalization.armg seq bottom (ex towards))
      [ ("m1", "m3"); ("m4", "m3"); ("m1", "m4") ]
  in
  { name; ctxs; clauses = Array.of_list ((hand_clause () :: bottoms) @ armgs) }

let variants =
  lazy
    [
      make_variant "strict" ~threshold:0.7 ~db:toy_db ~cfds:[];
      make_variant "loose" ~threshold:0.6 ~db:toy_db ~cfds:[];
      make_variant "cfd" ~threshold:0.7 ~db:violating_db ~cfds:[ phi ];
    ]

(* ------------------------------------------------------------------ *)
(* QCheck equivalence property                                         *)
(* ------------------------------------------------------------------ *)

type scenario = {
  variant_i : int;
  clause_i : int;
  pos : Tuple.t list;
  neg : Tuple.t list;
}

let scenario_gen =
  let open QCheck.Gen in
  let example_list =
    list_size (0 -- 8) (map (fun i -> examples.(i)) (0 -- 3))
  in
  let* variant_i = 0 -- 2 in
  let variant = List.nth (Lazy.force variants) variant_i in
  let* clause_i = 0 -- (Array.length variant.clauses - 1) in
  let* pos = example_list in
  let* neg = example_list in
  return { variant_i; clause_i; pos; neg }

let scenario_print s =
  let variant = List.nth (Lazy.force variants) s.variant_i in
  Printf.sprintf "variant=%s clause=%d pos=[%s] neg=[%s]" variant.name
    s.clause_i
    (String.concat ";" (List.map Tuple.to_string s.pos))
    (String.concat ";" (List.map Tuple.to_string s.neg))

let scenario_arb = QCheck.make ~print:scenario_print scenario_gen

let coverage_in ctx clause ~pos ~neg =
  let prep = Coverage.prepare ctx clause in
  Coverage.coverage ctx prep ~pos ~neg

let equivalence_test jobs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "coverage with %d domains equals sequential" jobs)
       ~count:500 scenario_arb
       (fun s ->
         with_forced_fanout @@ fun () ->
         let variant = List.nth (Lazy.force variants) s.variant_i in
         let clause = variant.clauses.(s.clause_i) in
         let seq = List.assoc 1 variant.ctxs in
         let par = List.assoc jobs variant.ctxs in
         let p0, n0 = coverage_in seq clause ~pos:s.pos ~neg:s.neg in
         let p1, n1 = coverage_in par clause ~pos:s.pos ~neg:s.neg in
         if (p0, n0) <> (p1, n1) then
           QCheck.Test.fail_reportf "sequential (%d, %d) <> %d-domain (%d, %d)"
             p0 n0 jobs p1 n1;
         (* The batch predicates must agree element-wise too. *)
         let prep_s = Coverage.prepare seq clause in
         let prep_p = Coverage.prepare par clause in
         List.for_all2 Bool.equal
           (Coverage.covers_positive_batch seq prep_s s.pos)
           (Coverage.covers_positive_batch par prep_p s.pos)
         && List.for_all2 Bool.equal
              (Coverage.covers_negative_batch seq prep_s s.neg)
              (Coverage.covers_negative_batch par prep_p s.neg)))

let equivalence_tests = List.map equivalence_test [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Ground-entry stress: many domains, one shared entry                 *)
(* ------------------------------------------------------------------ *)

let ground_entry_stress () =
  for _round = 1 to 10 do
    (* A fresh context each round so every memo cell starts cold. *)
    let ctx =
      Context.create
        (toy_config ~jobs:1 ~threshold:0.7)
        (violating_db ()) [ md_title ] [ phi ]
    in
    let e = ex "m1" in
    let results =
      List.init 8 (fun i ->
          Domain.spawn (fun () ->
              let entry = Coverage.ground ctx e in
              (* Vary the first field per domain so different memo cells
                 race on being forced first. *)
              (match i mod 4 with
              | 0 -> ignore (Memo.force entry.Context.repairs)
              | 1 -> ignore (Memo.force entry.Context.target)
              | 2 -> ignore (Memo.force entry.Context.prefilter_target)
              | _ -> ignore (Memo.force entry.Context.repair_targets));
              ( entry,
                Memo.force entry.Context.repairs,
                Memo.force entry.Context.target,
                Memo.force entry.Context.repair_targets,
                Memo.force entry.Context.prefilter_target )))
      |> List.map Domain.join
    in
    let entry0, repairs0, target0, rts0, pf0 = List.hd results in
    List.iter
      (fun (entry, repairs, target, rts, pf) ->
        Alcotest.(check bool) "one cache entry" true (entry == entry0);
        Alcotest.(check bool) "one repairs list" true (repairs == repairs0);
        Alcotest.(check bool) "one target" true (target == target0);
        Alcotest.(check bool) "one repair-target list" true (rts == rts0);
        Alcotest.(check bool) "one prefilter target" true (pf == pf0))
      results
  done

(* Eight domains generalize one parent towards one example on a cold
   context: the ARMG memo computes once and hands every domain the same
   result. *)
let armg_stress () =
  let computed = Dlearn_obs.Obs.counter "armg.computed" in
  for _round = 1 to 10 do
    let ctx =
      Context.create
        (toy_config ~jobs:1 ~threshold:0.7)
        (violating_db ()) [ md_title ] [ phi ]
    in
    let parent = Bottom_clause.build ctx Bottom_clause.Variable (ex "m1") in
    let before = Dlearn_obs.Obs.value computed in
    let results =
      List.init 8 (fun _ ->
          Domain.spawn (fun () -> Generalization.armg ctx parent (ex "m3")))
      |> List.map Domain.join
    in
    Alcotest.(check int) "computed once" 1
      (Dlearn_obs.Obs.value computed - before);
    let first = List.hd results in
    Alcotest.(check bool) "a generalization" true (Option.is_some first);
    List.iter
      (fun r -> Alcotest.(check bool) "physically equal" true (r == first))
      results
  done

(* The pool's adaptive cost model replaced the old parallel_min_batch
   cutover: the probe keeps cheap batches on the submitting domain (zero
   fan-out overhead) and hands expensive ones to the workers; verdicts
   are identical whichever way a batch falls. *)
let cost_model_tests =
  [
    Alcotest.test_case "a huge fan-out threshold pins batches inline" `Quick
      (fun () ->
        Pool.set_cost_model ~fanout_threshold:max_int ();
        Fun.protect ~finally:Pool.reset_cost_model (fun () ->
            let pool = Pool.get 2 in
            let before = (Pool.stats pool).Pool.tasks in
            let arr = Array.init 512 (fun i -> i) in
            Alcotest.(check (array int))
              "inline result identical" (Array.map succ arr)
              (Pool.map pool succ arr);
            Alcotest.(check int) "no pool task" before
              ((Pool.stats pool).Pool.tasks)));
    Alcotest.test_case "tiny cheap batches degrade to inline execution"
      `Quick (fun () ->
        Pool.reset_cost_model ();
        let pool = Pool.get 2 in
        (* Warm-up so domain spawning is not measured by the probe. *)
        ignore (Pool.map pool succ (Array.init 8 (fun i -> i)));
        let before = (Pool.stats pool).Pool.tasks in
        for _ = 1 to 20 do
          let arr = Array.init 10 (fun i -> i) in
          Alcotest.(check (array int))
            "result" (Array.map succ arr) (Pool.map pool succ arr)
        done;
        let after = (Pool.stats pool).Pool.tasks in
        (* The probe finishes 10 trivial items well inside its budget; a
           rare preemption mid-probe may push a batch over the threshold,
           so allow a small number of strays. *)
        Alcotest.(check bool)
          (Printf.sprintf "tiny batches stay off the pool (%d tasks)"
             (after - before))
          true
          (after - before <= 2));
    Alcotest.test_case "expensive batches fan out to the workers" `Quick
      (fun () ->
        (* Under the default model the fan-out verdict also depends on the
           host: with no spare hardware parallelism even expensive batches
           stay inline (fanning out could only add overhead). Pin both
           sides of that rule. *)
        Pool.reset_cost_model ();
        let pool = Pool.get 2 in
        let before = Pool.stats pool in
        let arr = Array.init 32 (fun i -> i) in
        let f x =
          spin_ns 100_000;
          x * 2
        in
        Alcotest.(check (array int))
          "result" (Array.map (fun x -> x * 2) arr)
          (Pool.map pool f arr);
        let after = Pool.stats pool in
        if Domain.recommended_domain_count () > 1 then begin
          Alcotest.(check bool) "pool task submitted" true
            (after.Pool.tasks > before.Pool.tasks);
          Alcotest.(check bool) "chunks claimed" true
            (after.Pool.chunks > before.Pool.chunks)
        end
        else
          Alcotest.(check int) "single-core host stays inline"
            before.Pool.tasks after.Pool.tasks);
    Alcotest.test_case "batch verdicts identical regardless of batch size"
      `Quick (fun () ->
        let ctx =
          Context.create
            (toy_config ~jobs:2 ~threshold:0.7)
            (toy_db ()) [ md_title ] []
        in
        let prep = Coverage.prepare ctx (hand_clause ()) in
        let batch_of n = List.init n (fun i -> examples.(i mod 4)) in
        let small = Coverage.covers_positive_batch ctx prep (batch_of 15) in
        let large = Coverage.covers_positive_batch ctx prep (batch_of 16) in
        Alcotest.(check (list bool))
          "identical verdicts on both paths" small
          (List.filteri (fun i _ -> i < 15) large));
  ]

(* ------------------------------------------------------------------ *)
(* Determinism under randomized claim order                             *)
(* ------------------------------------------------------------------ *)

let claim_gen =
  let open QCheck.Gen in
  let* jobs = oneofl [ 2; 4; 8 ] in
  let* delays_us = list_size (8 -- 32) (0 -- 100) in
  return (jobs, delays_us)

let claim_print (jobs, delays_us) =
  Printf.sprintf "jobs=%d delays_us=[%s]" jobs
    (String.concat ";" (List.map string_of_int delays_us))

(* Small chunks plus random per-item delays randomize which domain claims
   which chunk from the cursor; the map must be byte-identical to the
   sequential reference and call [f] exactly once per item. *)
let claim_once_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:
         "pool map is deterministic under randomized delays and runs each \
          item once"
       ~count:60
       (QCheck.make ~print:claim_print claim_gen)
       (fun (jobs, delays_us) ->
         with_forced_fanout (fun () ->
             let arr = Array.of_list delays_us in
             let calls = Array.map (fun _ -> Atomic.make 0) arr in
             let reference = Array.map (fun d -> (d * 31) + 7) arr in
             let got =
               Pool.map (Pool.get jobs)
                 (fun i ->
                   Atomic.incr calls.(i);
                   spin_ns (arr.(i) * 1000);
                   (arr.(i) * 31) + 7)
                 (Array.init (Array.length arr) Fun.id)
             in
             got = reference
             && Array.for_all (fun c -> Atomic.get c = 1) calls)))

let stress_tests =
  [
    Alcotest.test_case "shared ground entry memoizes once across domains"
      `Quick ground_entry_stress;
    Alcotest.test_case "concurrent ARMG of one pair computes once" `Quick
      armg_stress;
    Alcotest.test_case "learner result is identical across domain counts"
      `Quick (fun () ->
        (* Forced fan-out: ARMG generation, bottom-clause similarity
           search and coverage all reach the workers even on this toy
           workload; the learned definition must be byte-identical at
           every domain count. *)
        with_forced_fanout (fun () ->
            let pos = [ ex "m1"; ex "m3"; ex "m4" ] and neg = [ ex "m2" ] in
            let learn jobs =
              let ctx =
                Context.create
                  (toy_config ~jobs ~threshold:0.7)
                  (toy_db ()) [ md_title ] []
              in
              let r = Learner.learn ctx ~pos ~neg in
              Definition.to_string r.Learner.definition
            in
            let seq = learn 1 in
            List.iter
              (fun jobs ->
                Alcotest.(check string)
                  (Printf.sprintf "%d domains" jobs)
                  seq (learn jobs))
              [ 2; 4; 8 ]))
  ]

let () =
  Alcotest.run "parallel"
    [
      ("pool", pool_tests);
      ("memo", memo_tests);
      ("equivalence", equivalence_tests);
      ("cost model", cost_model_tests);
      ("stealing", [ claim_once_test ]);
      ("stress", stress_tests);
    ]
