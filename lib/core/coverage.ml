open Dlearn_logic
module Memo = Dlearn_parallel.Memo
module Pool = Dlearn_parallel.Pool
module Obs = Dlearn_obs.Obs

module Bitset = Cover_set.Bitset

type prepared = {
  clause : Clause.t;
  cfd_apps : Clause.t list Memo.t;
  repairs : Clause.t list Memo.t;
  skeleton : Clause.t Memo.t;
      (* head + schema atoms with every occurrence of a repairable term
         (subject or replacement of some repair literal) wildcarded *)
}

(* Repair enumeration at the configured caps. It is most of a cold
   learn's coverage work; one span names it at every site, the [site] arg
   telling them apart. *)
let enumerate (ctx : Context.t) site
    (f : ?state_cap:int -> ?result_cap:int -> Clause.t -> Clause.t list) c =
  let config = ctx.Context.config in
  Obs.span "coverage.repair_enum" ~args:[ ("site", site) ] (fun () ->
      f ~state_cap:config.Config.repair_state_cap
        ~result_cap:config.Config.repair_result_cap c)

(* The relational skeleton of a clause: head and schema atoms only, with
   every occurrence of a term that some repair literal may rewrite
   replaced by a fresh variable. Used as a necessary condition: if some
   repaired clause of C subsumes some repaired clause of Ge, then the
   skeleton subsumes Ge's relational part modulo Ge's potential merges. *)
let skeleton_of (clause : Clause.t) =
  let repairable =
    List.filter_map
      (function
        | Literal.Repair { subject; replacement; _ } ->
            Some [ subject; replacement ]
        | _ -> None)
      clause.Clause.body
    |> List.concat
  in
  let gen = Term.Fresh.make "w" in
  let wildcard t =
    if List.exists (Term.equal t) repairable then Term.Fresh.next gen else t
  in
  let rewrite = function
    | Literal.Rel { pred; args } ->
        Literal.Rel { pred; args = Array.map wildcard args }
    | l -> l
  in
  Clause.make ~head:(rewrite clause.Clause.head)
    (List.map rewrite (Clause.rel_body clause))

(* Normalization is idempotent, so the normalized clause is its own
   canonical form: the key of the cross-seed cover cache, under which
   alpha-variants share one entry. *)
let prepare ctx clause =
  let clause =
    Obs.span "learn.normalize" (fun () -> Clause_norm.normalize clause)
  in
  {
    clause;
    cfd_apps =
      Memo.make (fun () ->
          enumerate ctx "clause_cfd" Clause_repair.cfd_applications clause);
    repairs =
      Memo.make (fun () ->
          enumerate ctx "clause" Clause_repair.repaired_clauses clause);
    skeleton = Memo.make (fun () -> skeleton_of clause);
  }

let has_cfd_repairs (c : Clause.t) =
  List.exists
    (function
      | Literal.Repair { origin = Literal.From_cfd _; _ } -> true
      | _ -> false)
    c.Clause.body

(* The per-entry caches below memoize under the entry's lock so that
   concurrent coverage checks of one example from several domains compute
   each object once and share it. The [_unlocked] variants exist for the
   accessors that need one another (repair targets need the repairs):
   stdlib mutexes are not reentrant, so only the outermost accessor
   locks. *)

let ground_cfd_apps ctx (entry : Context.ground_entry) =
  Mutex.protect entry.Context.lock (fun () ->
      match entry.Context.cfd_apps with
      | Some apps -> apps
      | None ->
          let apps =
            enumerate ctx "ground_cfd" Clause_repair.cfd_applications
              entry.Context.ground
          in
          entry.Context.cfd_apps <- Some apps;
          apps)

(* Target-side normalization: ground bottom clauses only admit exact
   duplicate removal (their restriction literals are closure data, see
   Clause_norm.dedup_target); it shrinks the candidate tables
   Subsumption.prepare builds. *)
let prepare_target c = Subsumption.prepare (Clause_norm.dedup_target c)

let ground_target (_ : Context.t) (entry : Context.ground_entry) =
  Mutex.protect entry.Context.lock (fun () ->
      match entry.Context.target with
      | Some t -> t
      | None ->
          let t = prepare_target entry.Context.ground in
          entry.Context.target <- Some t;
          t)

let ground_repairs_unlocked ctx (entry : Context.ground_entry) =
  match entry.Context.repairs with
  | Some rs -> rs
  | None ->
      let rs =
        enumerate ctx "ground" Clause_repair.repaired_clauses
          entry.Context.ground
      in
      entry.Context.repairs <- Some rs;
      rs

let ground_repairs ctx (entry : Context.ground_entry) =
  Mutex.protect entry.Context.lock (fun () -> ground_repairs_unlocked ctx entry)

(* Fast path: Definition 4.4 subsumption against the ground bottom clause
   is sound for coverage (Theorem 4.6). When it fails, decide Definition
   3.4 directly: every repaired clause of C must subsume some repaired
   clause of Ge — the repairs of Ge stand in for the repairs of the
   database by Theorem 4.11. Both sides are repair-free there, so the
   connectivity condition is vacuous. *)
let ground_repair_targets ctx (entry : Context.ground_entry) =
  Mutex.protect entry.Context.lock (fun () ->
      match entry.Context.repair_targets with
      | Some ts -> ts
      | None ->
          let ts =
            List.map
              prepare_target
              (ground_repairs_unlocked ctx entry)
          in
          entry.Context.repair_targets <- Some ts;
          ts)

(* Ge's relational part, with equality literals unioning every pair of
   terms some repair group might make identical — the over-approximation
   of all possible merges that the skeleton is matched against. *)
let prefilter_target (_ : Context.t) (entry : Context.ground_entry) =
  Mutex.protect entry.Context.lock (fun () ->
      match entry.Context.prefilter_target with
      | Some t -> t
      | None ->
          let ge = entry.Context.ground in
          let merge_eqs =
            List.filter_map
              (function
                | Literal.Repair { subject; replacement; _ } ->
                    Some (Literal.Eq (subject, replacement))
                | _ -> None)
              ge.Clause.body
          in
          let target_clause =
            Clause.make ~head:ge.Clause.head (Clause.rel_body ge @ merge_eqs)
          in
          let t = prepare_target target_clause in
          entry.Context.prefilter_target <- Some t;
          t)

let passes_prefilter ctx prepared entry =
  let budget = ctx.Context.config.Config.subsumption_budget in
  Subsumption.subsumes_target_bool ~budget ~repair_connectivity:false
    (Memo.force prepared.skeleton)
    (prefilter_target ctx entry)

let covers_positive ctx prepared e =
  let budget = ctx.Context.config.Config.subsumption_budget in
  let entry = Bottom_clause.ground ctx e in
  if
    Subsumption.subsumes_target_bool ~budget prepared.clause
      (ground_target ctx entry)
  then true
  else if not (passes_prefilter ctx prepared entry) then false
  else begin
    let crs = Memo.force prepared.repairs in
    let grs = ground_repair_targets ctx entry in
    crs <> []
    && List.for_all
         (fun cr ->
           List.exists
             (fun gr ->
               Subsumption.subsumes_target_bool ~budget
                 ~repair_connectivity:false cr gr)
             grs)
         crs
  end

let covers_negative ctx prepared e =
  let budget = ctx.Context.config.Config.subsumption_budget in
  let entry = Bottom_clause.ground ctx e in
  if not (passes_prefilter ctx prepared entry) then false
  else
  let crs = Memo.force prepared.repairs in
  let grs = ground_repair_targets ctx entry in
  List.exists
    (fun cr ->
      List.exists
        (fun gr ->
          Subsumption.subsumes_target_bool ~budget
            ~repair_connectivity:false cr gr)
        grs)
    crs

(* The paper's §4.3 intermediate procedure: apply only the CFD groups on
   both sides and keep MD repair literals as atoms (Theorem 4.9). Exposed
   for the ablation benchmark comparing it with the full enumeration.
   The skeleton prefilter is the same necessary condition as for the full
   enumeration — a CFD application only rewrites repairable-term
   occurrences, all of which the skeleton wildcards and the prefilter
   target's merge equalities cover — so it gates this branch too;
   [~prefilter:false] preserves the unfiltered path for the regression
   test pinning their equivalence. *)
let covers_positive_cfd_split ?(prefilter = true) ctx prepared e =
  let budget = ctx.Context.config.Config.subsumption_budget in
  let entry = Bottom_clause.ground ctx e in
  let ge = entry.Context.ground in
  if Subsumption.subsumes_bool ~budget prepared.clause ge then true
  else if prefilter && not (passes_prefilter ctx prepared entry) then false
  else if not (has_cfd_repairs prepared.clause || has_cfd_repairs ge) then
    false
  else begin
    let cas = Memo.force prepared.cfd_apps in
    let gas = ground_cfd_apps ctx entry in
    cas <> []
    && List.for_all
         (fun ca ->
           List.exists
             (fun ga -> Subsumption.subsumes_bool ~budget ca ga)
             gas)
         cas
  end

(* Whether a batch actually fans out is the pool's call now: its adaptive
   cost model probes the first items inline and keeps cheap batches on
   the submitting domain, so tiny batches never pay full fan-out
   overhead. The results are identical either way. *)
let covers_positive_batch ctx prepared es =
  Pool.map_list (Context.pool ctx) (covers_positive ctx prepared) es

let covers_negative_batch ctx prepared es =
  Pool.map_list (Context.pool ctx) (covers_negative ctx prepared) es

(* ------------------------------------------------------------------ *)
(* Incremental engine: dense-id verdict bitsets, cross-seed cache,
   generalization-monotone inheritance and score-bound pruning. See
   docs/COVERAGE.md for the layout and the soundness argument. *)

let bump counter k = if k <> 0 then Obs.add counter k

(* Resolve the verdicts of [prepared] over [tuples] for one polarity.
   Each distinct example id is decided by, in order: the [assume] set
   (ids whose positive coverage is inherited from the ARMG parent — only
   ever non-empty for positives), the cross-seed cache, and finally an
   actual predicate run over the residue, fanned out through [Pool.fill].
   New verdicts (and the inherited claims) merge monotonically into the
   cache entry under its lock; the predicates run outside any lock, so
   two domains racing on one residue id at worst duplicate idempotent
   work. Returns the interned ids (aligned with [tuples]) and the covered
   set restricted to this universe. *)
let resolve ctx prepared ~negative ~assume tuples =
  let ids = List.map (fun e -> Context.example_id ctx e) tuples in
  if tuples = [] then (ids, Bitset.empty)
  else
    Obs.span "coverage.resolve"
      ~args:[ ("polarity", if negative then "neg" else "pos") ]
    @@ fun () ->
    begin
    let stats = ctx.Context.cover_stats in
    let entry = Context.cover_entry ctx prepared.clause in
    let tested, covered =
      Mutex.protect entry.Cover_set.lock (fun () ->
          if negative then
            (entry.Cover_set.neg_tested, entry.Cover_set.neg_covered)
          else (entry.Cover_set.pos_tested, entry.Cover_set.pos_covered))
    in
    let seen = Hashtbl.create 16 in
    let inherited = ref [] and cached = ref [] and residue = ref [] in
    List.iter2
      (fun id e ->
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          if Bitset.mem assume id then inherited := id :: !inherited
          else if Bitset.mem tested id then begin
            bump stats.Context.cache_hits 1;
            if Bitset.mem covered id then cached := id :: !cached
          end
          else residue := (id, e) :: !residue
        end)
      ids tuples;
    bump stats.Context.inherited (List.length !inherited);
    let residue_arr = Array.of_list (List.rev !residue) in
    let nres = Array.length residue_arr in
    let new_tested, new_covered =
      if nres = 0 then ([], [])
      else begin
        let pred = if negative then covers_negative else covers_positive in
        let packed =
          let p i = pred ctx prepared (snd residue_arr.(i)) in
          Pool.fill (Context.pool ctx) ~n:nres p
        in
        bump stats.Context.tested nres;
        let tested_ids = ref [] and covered_ids = ref [] in
        Array.iteri
          (fun i (id, _) ->
            tested_ids := id :: !tested_ids;
            if Bitset.test_packed packed i then covered_ids := id :: !covered_ids)
          residue_arr;
        (!tested_ids, !covered_ids)
      end
    in
    if new_tested <> [] || !inherited <> [] then
      Mutex.protect entry.Cover_set.lock (fun () ->
          if negative then begin
            entry.Cover_set.neg_tested <-
              Bitset.add_list entry.Cover_set.neg_tested new_tested;
            entry.Cover_set.neg_covered <-
              Bitset.add_list entry.Cover_set.neg_covered new_covered
          end
          else begin
            entry.Cover_set.pos_tested <-
              Bitset.add_list entry.Cover_set.pos_tested
                (!inherited @ new_tested);
            entry.Cover_set.pos_covered <-
              Bitset.add_list entry.Cover_set.pos_covered
                (!inherited @ new_covered)
          end);
    (ids, Bitset.of_list (!inherited @ !cached @ new_covered))
  end

let coverage_sets ctx prepared ~pos ~neg =
  let _, pc = resolve ctx prepared ~negative:false ~assume:Bitset.empty pos in
  let _, nc = resolve ctx prepared ~negative:true ~assume:Bitset.empty neg in
  (pc, nc)

(* Counts with multiplicity: a universe may contain duplicate tuples, and
   each occurrence counts, so bitset cardinality is not the count. *)
let count_ids covered ids =
  List.fold_left (fun acc id -> if Bitset.mem covered id then acc + 1 else acc) 0 ids

let count_covered ctx covered tuples =
  count_ids covered (List.map (fun e -> Context.example_id ctx e) tuples)

(* Raise [bound] to [s] unless it is already higher (lock-free max). *)
let rec raise_bound bound s =
  let cur = Atomic.get bound in
  if s > cur && not (Atomic.compare_and_set bound cur s) then raise_bound bound s

(* Score one climb candidate. Positives resolve through [resolve] with
   the parent's covered set as [assume]; the negative sweep is sequential
   (candidate scoring already fans out over the pool, so this runs inside
   a worker) and stops as soon as [p - n_so_far] drops strictly below
   [bound] — at that point the candidate cannot reach the bound, and
   since [bound] only ever holds the parent's score or a fully-evaluated
   candidate's score, a pruned candidate can never sort above (or tie
   with) the batch winner. Returns [(p, n, pos_covered, complete)];
   [n] is a lower bound when [complete] is false. Verdicts computed
   before pruning still merge into the cache — each is individually
   correct. *)
let score_candidate ctx prepared ~assume ~pos ~neg ~bound =
  Obs.span "coverage.score_candidate" @@ fun () ->
  let stats = ctx.Context.cover_stats in
  let pids, pcov = resolve ctx prepared ~negative:false ~assume pos in
  let p = count_ids pcov pids in
  let entry = Context.cover_entry ctx prepared.clause in
  let tested, covered =
    Mutex.protect entry.Cover_set.lock (fun () ->
        (entry.Cover_set.neg_tested, entry.Cover_set.neg_covered))
  in
  let new_tested = ref [] and new_covered = ref [] in
  let merge () =
    if !new_tested <> [] then
      Mutex.protect entry.Cover_set.lock (fun () ->
          entry.Cover_set.neg_tested <-
            Bitset.add_list entry.Cover_set.neg_tested !new_tested;
          entry.Cover_set.neg_covered <-
            Bitset.add_list entry.Cover_set.neg_covered !new_covered)
  in
  let fresh = Hashtbl.create 16 in
  let rec sweep n = function
    | [] ->
        merge ();
        raise_bound bound (p - n);
        (p, n, pcov, true)
    | e :: rest ->
        if p - n < Atomic.get bound then begin
          merge ();
          bump stats.Context.pruned 1;
          (p, n, pcov, false)
        end
        else begin
          let id = Context.example_id ctx e in
          let verdict =
            if Hashtbl.mem fresh id then Hashtbl.find fresh id
            else if Bitset.mem tested id then begin
              bump stats.Context.cache_hits 1;
              Bitset.mem covered id
            end
            else begin
              let v = covers_negative ctx prepared e in
              bump stats.Context.tested 1;
              Hashtbl.add fresh id v;
              new_tested := id :: !new_tested;
              if v then new_covered := id :: !new_covered;
              v
            end
          in
          sweep (if verdict then n + 1 else n) rest
        end
  in
  sweep 0 neg

let coverage ctx prepared ~pos ~neg =
  Obs.span "coverage.batch" @@ fun () ->
  let pids, pc = resolve ctx prepared ~negative:false ~assume:Bitset.empty pos in
  let nids, nc = resolve ctx prepared ~negative:true ~assume:Bitset.empty neg in
  (count_ids pc pids, count_ids nc nids)
