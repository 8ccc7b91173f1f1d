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
module Deque = Dlearn_parallel.Deque
module Memo = Dlearn_parallel.Memo

let sv s = Value.String s

(* Force every parallel-eligible batch down the fan-out path with
   single-item chunks — maximum stealing — then restore the default cost
   model. The equivalence and stress suites run under this so the toy
   workloads (whose batches the adaptive model would keep inline)
   actually exercise the deques. *)
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
    Alcotest.test_case "filter_count equals sequential count" `Quick (fun () ->
        List.iter
          (fun n ->
            let pool = Pool.get n in
            let arr = Array.init 1000 (fun i -> i) in
            let p x = x mod 3 = 0 in
            let expected =
              Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 arr
            in
            Alcotest.(check int)
              (Printf.sprintf "pool %d" n)
              expected
              (Pool.filter_count pool p arr))
          pool_sizes);
    Alcotest.test_case "iter visits every element once" `Quick (fun () ->
        let pool = Pool.get 4 in
        let counters = Array.init 500 (fun _ -> Atomic.make 0) in
        Pool.iter pool
          (fun i -> Atomic.incr counters.(i))
          (Array.init 500 (fun i -> i));
        Alcotest.(check bool) "each exactly once" true
          (Array.for_all (fun c -> Atomic.get c = 1) counters));
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
                Alcotest.(check int) "still works" 10
                  (Pool.filter_count pool
                     (fun x -> x < 10)
                     (Array.init 100 (fun i -> i))))
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
            (* [map] computes item 0 inline to seed the result array; the
               remaining 63 go through chunks. *)
            Alcotest.(check bool) "items counted" true
              (after.Pool.items >= before.Pool.items + 63);
            Alcotest.(check bool) "chunks counted" true
              (after.Pool.chunks > before.Pool.chunks);
            Alcotest.(check int) "busy slots" 2
              (Array.length after.Pool.busy_seconds)));
    Alcotest.test_case "fill packs predicate bits identically at every size"
      `Quick (fun () ->
        let p i = i mod 3 = 0 || i mod 7 = 1 in
        List.iter
          (fun n ->
            List.iter
              (fun len ->
                let packed = Pool.fill (Pool.get n) ~n:len p in
                Alcotest.(check int)
                  (Printf.sprintf "pool %d, len %d: length" n len)
                  ((len + 7) / 8) (Bytes.length packed);
                for i = 0 to len - 1 do
                  let bit =
                    (Char.code (Bytes.get packed (i lsr 3)) lsr (i land 7))
                    land 1
                  in
                  if (bit = 1) <> p i then
                    Alcotest.failf "pool %d, len %d: bit %d is %d" n len i bit
                done;
                (* trailing padding bits stay clear *)
                if len land 7 <> 0 && len > 0 then begin
                  let last = Char.code (Bytes.get packed (Bytes.length packed - 1)) in
                  Alcotest.(check int)
                    (Printf.sprintf "pool %d, len %d: padding" n len)
                    0
                    (last lsr (len land 7))
                end)
              [ 0; 1; 7; 8; 9; 15; 16; 64; 257; 1000 ])
          pool_sizes);
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
    Alcotest.test_case "get shares one pool per size" `Quick (fun () ->
        Alcotest.(check bool) "same pool" true (Pool.get 4 == Pool.get 4);
        Alcotest.(check int) "size respected" 4 (Pool.num_domains (Pool.get 4));
        Alcotest.(check int) "sequential pool" 1 (Pool.num_domains (Pool.get 1)));
  ]

(* ------------------------------------------------------------------ *)
(* Deque invariants                                                    *)
(* ------------------------------------------------------------------ *)

let deque_tests =
  [
    Alcotest.test_case "owner pops LIFO, then permanently empty" `Quick
      (fun () ->
        let d = Deque.make 0 10 in
        for expected = 9 downto 0 do
          Alcotest.(check (option int))
            "pop order" (Some expected) (Deque.pop d)
        done;
        Alcotest.(check (option int)) "drained" None (Deque.pop d);
        Alcotest.(check bool) "is_empty" true (Deque.is_empty d);
        Alcotest.(check bool) "steal sees empty" true (Deque.steal d = Deque.Empty));
    Alcotest.test_case "thieves steal FIFO" `Quick (fun () ->
        let d = Deque.make 3 8 in
        for expected = 3 to 7 do
          match Deque.steal d with
          | Deque.Stolen i -> Alcotest.(check int) "steal order" expected i
          | Deque.Empty | Deque.Lost -> Alcotest.fail "unexpected empty/lost"
        done;
        Alcotest.(check bool) "drained" true (Deque.steal d = Deque.Empty));
    Alcotest.test_case "pop and steal partition the range" `Quick (fun () ->
        let d = Deque.make 0 20 in
        let claimed = Array.make 20 0 in
        for _ = 1 to 10 do
          (match Deque.pop d with
          | Some i -> claimed.(i) <- claimed.(i) + 1
          | None -> ());
          match Deque.steal d with
          | Deque.Stolen i -> claimed.(i) <- claimed.(i) + 1
          | Deque.Empty | Deque.Lost -> ()
        done;
        while not (Deque.is_empty d) do
          match Deque.pop d with
          | Some i -> claimed.(i) <- claimed.(i) + 1
          | None -> ()
        done;
        Alcotest.(check bool) "every index exactly once" true
          (Array.for_all (fun c -> c = 1) claimed));
    Alcotest.test_case "concurrent owner + thieves claim each index once"
      `Quick (fun () ->
        for _round = 1 to 5 do
          let n = 10_000 in
          let d = Deque.make 0 n in
          let claims = Array.init n (fun _ -> Atomic.make 0) in
          let thieves =
            List.init 3 (fun _ ->
                Domain.spawn (fun () ->
                    let continue = ref true in
                    while !continue do
                      match Deque.steal d with
                      | Deque.Stolen i -> Atomic.incr claims.(i)
                      | Deque.Lost -> ()
                      | Deque.Empty -> continue := false
                    done))
          in
          let rec drain () =
            match Deque.pop d with
            | Some i ->
                Atomic.incr claims.(i);
                drain ()
            | None -> ()
          in
          drain ();
          List.iter Domain.join thieves;
          Alcotest.(check bool) "each index exactly once" true
            (Array.for_all (fun c -> Atomic.get c = 1) claims)
        done);
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
              let entry = Bottom_clause.ground ctx e in
              (* Vary the first accessor per domain so different memo
                 fields race on being forced first. *)
              (match i mod 4 with
              | 0 -> ignore (Coverage.ground_repairs ctx entry)
              | 1 -> ignore (Coverage.ground_target ctx entry)
              | 2 -> ignore (Coverage.prefilter_target ctx entry)
              | _ -> ignore (Coverage.ground_repair_targets ctx entry));
              ( entry,
                Coverage.ground_repairs ctx entry,
                Coverage.ground_target ctx entry,
                Coverage.ground_repair_targets ctx entry,
                Coverage.prefilter_target ctx entry )))
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
            before.Pool.tasks after.Pool.tasks;
        Alcotest.(check bool) "per-item cost was measured" true
          (Pool.last_item_cost_ns () > 0));
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
(* Determinism under stealing                                          *)
(* ------------------------------------------------------------------ *)

let steal_gen =
  let open QCheck.Gen in
  let* jobs = oneofl [ 2; 4; 8 ] in
  let* delays_us = list_size (8 -- 32) (0 -- 100) in
  return (jobs, delays_us)

let steal_print (jobs, delays_us) =
  Printf.sprintf "jobs=%d delays_us=[%s]" jobs
    (String.concat ";" (List.map string_of_int delays_us))

(* Single-item chunks plus random per-item sleeps randomize which domain
   ends up computing which item (owner pops race thief steals); the map
   must be byte-identical to the sequential reference regardless. *)
let steal_equivalence_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"pool map is deterministic under randomized steal interleavings"
       ~count:60
       (QCheck.make ~print:steal_print steal_gen)
       (fun (jobs, delays_us) ->
         with_forced_fanout (fun () ->
             let arr = Array.of_list delays_us in
             let reference = Array.map (fun d -> (d * 31) + 7) arr in
             let got =
               Pool.map (Pool.get jobs)
                 (fun d ->
                   spin_ns (d * 1000);
                   (d * 31) + 7)
                 arr
             in
             got = reference)))

let steal_counter_test =
  Alcotest.test_case "skewed chunks are stolen across deques" `Quick
    (fun () ->
      with_forced_fanout (fun () ->
          let pool = Pool.get 4 in
          let before = (Pool.stats pool).Pool.steals in
          (* Item 0 (and every multiple of 8) is slow: whichever deque
             holds those chunks falls behind and the other participants
             steal from it. 20 rounds make at least one steal all but
             certain on any scheduler. *)
          for _round = 1 to 20 do
            ignore
              (Pool.map pool
                 (fun i ->
                   if i mod 8 = 0 then spin_ns 200_000;
                   i + 1)
                 (Array.init 64 (fun i -> i)))
          done;
          let after = (Pool.stats pool).Pool.steals in
          Alcotest.(check bool) "steals observed" true (after > before)))

let stress_tests =
  [
    Alcotest.test_case "shared ground entry memoizes once across domains"
      `Quick ground_entry_stress;
    Alcotest.test_case "learner result is identical across domain counts"
      `Quick (fun () ->
        (* Forced fan-out: ARMG generation, bottom-clause similarity
           search and coverage all hit the deques even on this toy
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
      ("deque", deque_tests);
      ("memo", memo_tests);
      ("equivalence", equivalence_tests);
      ("cost model", cost_model_tests);
      ("stealing", steal_equivalence_test :: [ steal_counter_test ]);
      ("stress", stress_tests);
    ]
