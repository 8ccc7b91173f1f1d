open Dlearn_relation
open Dlearn_logic

let src = Logs.Src.create "dlearn.learner"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Dlearn_obs.Obs

type clause_stats = {
  clause : Clause.t;
  pos_covered : int;
  neg_covered : int;
}

type result = {
  definition : Definition.t;
  stats : clause_stats list;
  seconds : float;
  seeds_skipped : int;
}

let sample rng n l =
  if List.length l <= n then l
  else begin
    let arr = Array.of_list l in
    for i = Array.length arr - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list (Array.sub arr 0 n)
  end

(* Hill-climb: repeatedly generalise against sampled positives, keeping the
   best-scoring candidate, until the score stops improving (§4.2).

   The parent clause's covered positives thread through the climb: ARMG
   only drops body literals, so a candidate covers everything its parent
   covers and only the residue is tested; the negative sweep stops early
   once a candidate provably cannot reach the best score seen in the
   batch (see docs/COVERAGE.md — pruned candidates can never beat or tie
   the batch winner, so the climb's decisions are those of scoring every
   candidate in full). *)
let refine ctx ~uncovered ~neg clause =
  let config = ctx.Context.config in
  (* Candidates are scored against a bounded sample of the negatives; the
     acceptance decision below re-scores the winner on the full set. *)
  let neg = sample ctx.Context.rng config.Config.climb_neg_cap neg in
  let rec climb clause prepared parent_cov (p, n) =
    let score = p - n in
    let sample_pos =
      sample ctx.Context.rng config.Config.sample_positives uncovered
    in
    let candidates =
      (* ARMG candidates are independent per sampled positive (the ground
         entry, subsumption target and beam search are all read-only over
         the context), so generation fans out across the pool. [map_list]
         preserves input order, so the arrival indexes — and therefore
         every downstream tie-break — match the sequential path. *)
      let raw =
        Obs.span "learn.armg" (fun () ->
            Dlearn_parallel.Pool.map_list (Context.pool ctx)
              (fun e' -> Generalization.armg ctx clause e')
              sample_pos
            |> List.filter_map Fun.id
            |> List.filter (fun c -> not (Clause.equal c clause)))
      in
      (* Distinct sampled positives often yield the same generalisation;
         score each candidate once — dedup on the prepared record's
         normalized clause, so whole alpha-classes merge into one solve.
         The retained representative is the member the full sort below
         would rank first (smallest body, then arrival), carrying its own
         arrival index, so the climb picks the same winner whether or not
         its class mates were scored. *)
      let dedup = Cover_set.Clause_tbl.create 16 in
      List.iteri
        (fun idx c ->
          let prep = Coverage.prepare ctx c in
          let key = prep.Coverage.clause in
          match Cover_set.Clause_tbl.find_opt dedup key with
          | None -> Cover_set.Clause_tbl.add dedup key (c, prep, idx)
          | Some (c0, _, _) ->
              if Clause.body_size c < Clause.body_size c0 then
                Cover_set.Clause_tbl.replace dedup key (c, prep, idx))
        raw;
      Cover_set.Clause_tbl.fold (fun _ cand acc -> cand :: acc) dedup []
      |> List.sort (fun (_, _, i1) (_, _, i2) -> Int.compare i1 i2)
    in
    (* Candidates are scored across the domain pool; a worker's nested
       coverage fan-out runs sequentially in place, so the parallelism is
       one level deep whichever side has more work. Scores and ordering
       are identical to the sequential path. *)
    let bound = Atomic.make score in
    let scored =
      Obs.span "learn.score_batch"
        ~args:[ ("candidates", string_of_int (List.length candidates)) ]
        (fun () ->
          Dlearn_parallel.Pool.map_list (Context.pool ctx)
            (fun (c, prep, idx) ->
              let cp, cn, cov, _complete =
                Coverage.score_candidate ctx prep ~assume:parent_cov
                  ~pos:uncovered ~neg ~bound
              in
              (c, prep, idx, cov, (cp, cn)))
            candidates)
    in
    (* Higher score first; on ties the smaller clause — the more general
       one — so the climb keeps shedding redundant literals even when the
       training score has saturated. Last tie-break: ARMG arrival order,
       i.e. the order the pre-dedup stable sort used. *)
    match
      List.stable_sort
        (fun (c1, _, i1, _, (p1, n1)) (c2, _, i2, _, (p2, n2)) ->
          match Int.compare (p2 - n2) (p1 - n1) with
          | 0 -> (
              match
                Int.compare (Clause.body_size c1) (Clause.body_size c2)
              with
              | 0 -> Int.compare i1 i2
              | c -> c)
          | c -> c)
        scored
    with
    | (best, best_prep, _, best_cov, (bp, bn)) :: _
      when bp - bn > score
           || (bp - bn = score && Clause.body_size best < Clause.body_size clause)
      ->
        Log.debug (fun m ->
            m "refined clause: score %d -> %d (%d literals)" score (bp - bn)
              (Clause.body_size best));
        climb best best_prep best_cov (bp, bn)
    | _ -> (clause, prepared, (p, n))
  in
  let prepared = Coverage.prepare ctx clause in
  (* The bottom clause covers its seed and (being maximally specific)
     essentially nothing else (Prop. 4.3); starting the climb from score
     (1, 0) avoids an expensive full sweep with the raw clause. The empty
     inherited set is the matching under-approximation: first-round
     candidates test every positive. *)
  Obs.span "learn.refine" (fun () ->
      climb clause prepared Coverage.Bitset.empty (1, 0))

(* Static preflight (§3–§4 preconditions): the covering loop below only
   makes sense over satisfiable CFD sets and well-formed MDs, so check
   them before building the first bottom clause instead of dying
   mid-epoch on a malformed constraint. *)
let preflight ctx =
  let config = ctx.Context.config in
  if not config.Config.allow_dirty_constraints then begin
    let diagnostics =
      Dlearn_analysis.Analyzer.check_constraints ctx.Context.db
        ~mds:ctx.Context.mds ~cfds:ctx.Context.cfds
    in
    if Dlearn_analysis.Diagnostic.has_errors diagnostics then begin
      Log.err (fun m ->
          m "constraint preflight failed:@,%a"
            Dlearn_analysis.Diagnostic.pp_report diagnostics);
      raise (Dlearn_analysis.Analyzer.Rejected diagnostics)
    end
  end

let learn ctx ~pos ~neg =
  Obs.span "learn"
    ~args:
      [
        ("pos", string_of_int (List.length pos));
        ("neg", string_of_int (List.length neg));
      ]
  @@ fun () ->
  preflight ctx;
  let config = ctx.Context.config in
  let target = Schema.name config.Config.target in
  let started = Obs.now_ns () in
  let rec cover uncovered acc skipped =
    match uncovered with
    | [] -> (List.rev acc, skipped)
    | seed :: rest ->
        if List.length acc >= config.Config.max_clauses then
          (List.rev acc, skipped + List.length uncovered)
        else begin
          let bottom =
            Obs.span "learn.bottom_clause" (fun () ->
                Bottom_clause.build ctx Bottom_clause.Variable seed)
          in
          Log.info (fun m ->
              m "seed %s: bottom clause with %d literals"
                (Tuple.to_string seed) (Clause.body_size bottom));
          let clause, prepared, (p, _) =
            refine ctx ~uncovered ~neg bottom
          in
          (* Re-score on the full negative set for the acceptance test,
             reusing the winner's climb-time verdicts on the sampled
             negatives and testing only the rest. *)
          let n = snd (Coverage.coverage ctx prepared ~pos:[] ~neg) in
          let precision =
            if p + n = 0 then 0.0 else float_of_int p /. float_of_int (p + n)
          in
          if p >= config.Config.min_pos && precision >= config.Config.min_precision
          then begin
            (* The winner was scored over [uncovered] ⊇ [rest], so these
               are almost all cache hits. *)
            let pbits, _ =
              Coverage.coverage_sets ctx prepared ~pos:rest ~neg:[]
            in
            let still_uncovered =
              List.filter
                (fun e ->
                  not (Coverage.Bitset.mem pbits (Context.example_id ctx e)))
                rest
            in
            Log.info (fun m ->
                m "accepted clause covering %d+/%d- (%d uncovered left)" p n
                  (List.length still_uncovered));
            cover still_uncovered ((clause, p, n) :: acc) skipped
          end
          else begin
            Log.info (fun m ->
                m "skipping seed %s (best clause %d+/%d-)" (Tuple.to_string seed)
                  p n);
            cover rest acc (skipped + 1)
          end
        end
  in
  let accepted, skipped = cover pos [] 0 in
  let definition =
    List.fold_left
      (fun d (c, _, _) -> Definition.add d c)
      (Definition.empty target) accepted
  in
  (* Report per-clause coverage over the full training set. *)
  let stats =
    List.map
      (fun (c, _, _) ->
        let prep = Coverage.prepare ctx c in
        let p, n = Coverage.coverage ctx prep ~pos ~neg in
        { clause = c; pos_covered = p; neg_covered = n })
      accepted
  in
  let cs = ctx.Context.cover_stats in
  Log.info (fun m ->
      m
        "incremental coverage: %d verdicts tested, %d inherited from \
         parents, %d cache hits, %d candidates pruned by score bound"
        (Obs.value cs.Context.tested)
        (Obs.value cs.Context.inherited)
        (Obs.value cs.Context.cache_hits)
        (Obs.value cs.Context.pruned));
  let count name = Obs.value (Obs.counter name) in
  let seconds name = float_of_int (count name) /. 1e9 in
  Log.info (fun m ->
      m
        "csp kernel: %d solves, %d nodes, %d propagations, %d domain \
         wipeouts, %.3fs setup, %.3fs search"
        (count "subsumption.solves") (count "subsumption.nodes")
        (count "subsumption.propagations") (count "subsumption.wipeouts")
        (seconds "subsumption.setup_ns") (seconds "subsumption.search_ns"));
  Log.info (fun m ->
      m
        "sat rescue: %d solves, %d conflicts, %d learned clauses"
        (count "sat.solves") (count "sat.conflicts")
        (count "sat.learned_clauses"));
  {
    definition;
    stats;
    seconds = float_of_int (Obs.now_ns () - started) /. 1e9;
    seeds_skipped = skipped;
  }

let predictor ctx definition =
  let prepared =
    List.map (Coverage.prepare ctx) definition.Definition.clauses
  in
  fun e -> List.exists (fun p -> Coverage.covers_positive ctx p e) prepared

let predict ctx definition e = predictor ctx definition e
