(* Reference learner: Algorithm 1 over raw clauses with every coverage
   verdict decided from scratch. It is [Learner.learn] without any of the
   coverage machinery layered on it: no clause normalization, no cover
   cache, no verdict inheritance from the ARMG parent, no score-bound
   pruning and no skeleton prefilter. Candidates are deduplicated on
   [Clause.canonical] (smallest body, then earliest arrival), the context
   RNG is drawn exactly as [Learner] draws it, and a verdict is Def 4.4
   against the example's ground bottom clause, then Def 3.4 (positives)
   or Def 3.6 (negatives) over repaired clauses at the configured caps.
   [Learner.learn] must learn the same definition with the same
   per-clause stats. Slow; tests only. *)

open Dlearn_relation
open Dlearn_logic
open Dlearn_core

(* A clause with its repaired clauses, enumerated on first use. *)
type hypothesis = { clause : Clause.t; repairs : Clause.t list Lazy.t }

let hypothesis (ctx : Context.t) clause =
  let config = ctx.Context.config in
  {
    clause;
    repairs =
      lazy
        (Clause_repair.repaired_clauses
           ~state_cap:config.Config.repair_state_cap
           ~result_cap:config.Config.repair_result_cap clause);
  }

let subsumes (ctx : Context.t) ?repair_connectivity c target =
  Subsumption.subsumes_target_bool
    ~budget:ctx.Context.config.Config.subsumption_budget ?repair_connectivity
    c target

(* Some repaired clause of the ground bottom clause is subsumed by [cr];
   both sides are repair-free, so connectivity is vacuous. *)
let subsumes_some_repair ctx entry cr =
  List.exists
    (subsumes ctx ~repair_connectivity:false cr)
    (Dlearn_parallel.Memo.force entry.Context.repair_targets)

(* Def 4.4 against the ground bottom clause (sound by Thm 4.6); failing
   that, Def 3.4: every repaired clause subsumes some repaired ground
   clause. *)
let covers_positive ctx h e =
  let entry = Coverage.ground ctx e in
  subsumes ctx h.clause (Dlearn_parallel.Memo.force entry.Context.target)
  ||
  let crs = Lazy.force h.repairs in
  crs <> [] && List.for_all (subsumes_some_repair ctx entry) crs

(* Def 3.6: some repaired clause subsumes some repaired ground clause. *)
let covers_negative ctx h e =
  let entry = Coverage.ground ctx e in
  List.exists (subsumes_some_repair ctx entry) (Lazy.force h.repairs)

let count pred l = List.length (List.filter pred l)

(* Covered positives and negatives, each occurrence of a duplicate tuple
   counted. *)
let coverage ctx clause ~pos ~neg =
  let h = hypothesis ctx clause in
  (count (covers_positive ctx h) pos, count (covers_negative ctx h) neg)

(* [Learner]'s sampler: the same draws from the same stream. *)
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

(* One candidate per [Clause.canonical] class, in arrival order: the member
   with the smallest body, then the earliest. *)
let dedup candidates =
  let beats (c', i') (c, i) =
    Clause.body_size c' < Clause.body_size c
    || (Clause.body_size c' = Clause.body_size c && i' < i)
  in
  List.filter
    (fun (c, i) ->
      let key = Clause.canonical c in
      not
        (List.exists
           (fun (c', i') ->
             Clause.equal (Clause.canonical c') key && beats (c', i') (c, i))
           candidates))
    candidates

(* Hill-climb (§4.2) from score (1, 0): score every distinct ARMG
   candidate in full and move to the best one — higher score first, then
   the smaller body, then ARMG arrival — while it improves the score or
   keeps it with a smaller body. *)
let refine ctx ~uncovered ~neg clause =
  let config = ctx.Context.config in
  let neg = sample ctx.Context.rng config.Config.climb_neg_cap neg in
  let rec climb clause (p, n) =
    let sample_pos =
      sample ctx.Context.rng config.Config.sample_positives uncovered
    in
    let candidates =
      List.filter_map (Generalization.armg ctx clause) sample_pos
      |> List.filter (fun c -> not (Clause.equal c clause))
      |> List.mapi (fun i c -> (c, i))
      |> dedup
    in
    let scored =
      List.map
        (fun (c, i) -> (c, i, coverage ctx c ~pos:uncovered ~neg))
        candidates
    in
    let order (c1, i1, (p1, n1)) (c2, i2, (p2, n2)) =
      compare
        (p2 - n2, Clause.body_size c1, i1)
        (p1 - n1, Clause.body_size c2, i2)
    in
    match List.sort order scored with
    | (best, _, (bp, bn)) :: _
      when bp - bn > p - n
           || (bp - bn = p - n && Clause.body_size best < Clause.body_size clause)
      ->
        climb best (bp, bn)
    | _ -> (clause, (p, n))
  in
  climb clause (1, 0)

(* The covering loop of Algorithm 1. Returns the definition and, per
   accepted clause, its coverage over the full training set. *)
let learn ctx ~pos ~neg =
  let config = ctx.Context.config in
  let rec cover uncovered acc =
    match uncovered with
    | [] -> List.rev acc
    | _ when List.length acc >= config.Config.max_clauses -> List.rev acc
    | seed :: rest ->
        let bottom = Bottom_clause.build ctx Bottom_clause.Variable seed in
        let clause, (p, _) = refine ctx ~uncovered ~neg bottom in
        let _, n = coverage ctx clause ~pos:[] ~neg in
        let precision =
          if p + n = 0 then 0.0 else float_of_int p /. float_of_int (p + n)
        in
        if
          p >= config.Config.min_pos
          && precision >= config.Config.min_precision
        then
          let h = hypothesis ctx clause in
          cover
            (List.filter (fun e -> not (covers_positive ctx h e)) rest)
            (clause :: acc)
        else cover rest acc
  in
  let accepted = cover pos [] in
  let definition =
    List.fold_left Definition.add
      (Definition.empty (Schema.name config.Config.target))
      accepted
  in
  let stats =
    List.map
      (fun clause ->
        let pos_covered, neg_covered = coverage ctx clause ~pos ~neg in
        { Learner.clause; pos_covered; neg_covered })
      accepted
  in
  (definition, stats)
