open Dlearn_relation
open Dlearn_constraints
module Obs = Dlearn_obs.Obs

module Memo = Dlearn_parallel.Memo
module Clause_memo = Cover_set.Clause_memo

type ground_entry = {
  ground : Dlearn_logic.Clause.t;
  target : Dlearn_logic.Subsumption.target Memo.t;
  repairs : Dlearn_logic.Clause.t list Memo.t;
  repair_targets : Dlearn_logic.Subsumption.target list Memo.t;
  prefilter_target : Dlearn_logic.Subsumption.target Memo.t;
  cfd_apps : Dlearn_logic.Clause.t list Memo.t;
  armg : Dlearn_logic.Clause.t option Clause_memo.t;
}

(* Incremental-coverage counters on the Obs registry ([coverage.*]
   names): bumped from inside parallel fills via the registry's
   per-domain shards, read merged by the learner's logging. The registry
   is process-wide, so contexts share the counters; readers interested in
   one run diff values around it (as the learner and tests do). *)
type cover_stats = {
  tested : Obs.counter; (* verdicts computed by running a predicate *)
  inherited : Obs.counter; (* positives inherited from the ARMG parent *)
  cache_hits : Obs.counter; (* verdicts found in the cross-seed cache *)
  pruned : Obs.counter; (* candidates cut short by the score bound *)
}

module Example_memo = Memo.Table (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

module Attr_memo = Memo.Table (struct
  type t = string * int

  let equal (r1, p1) (r2, p2) = String.equal r1 r2 && Int.equal p1 p2
  let hash = Hashtbl.hash
end)

type tables = {
  sim_indexes : Dlearn_similarity.Sim_index.t Attr_memo.t;
  (* Dense example ids: every pos/neg tuple the coverage engine sees is
     interned once; bitsets are indexed by these ids. One shared space for
     positives and negatives — an id identifies a tuple, not a polarity. *)
  example_ids : int Example_memo.t;
  next_id : int Atomic.t;
  grounds : ground_entry Example_memo.t;
  (* canonical clause -> known coverage verdicts, shared across seeds *)
  cover : Cover_set.entry Clause_memo.t;
  (* clause as given -> its normal form. Normalization reads no data, so
     no write invalidates an entry. *)
  normal_forms : Dlearn_logic.Clause.t Clause_memo.t;
}

type t = {
  config : Config.t;
  db : Database.t;
  mds : Md.t list;
  cfds : Cfd.t list;
  mutable rng : Random.State.t;
  cover_stats : cover_stats;
  tables : tables;
}

let create config db mds cfds =
  let target_name = Schema.name config.Config.target in
  List.iter
    (fun (md : Md.t) ->
      if Md.mentions md target_name then
        invalid_arg
          (Printf.sprintf
             "Context.create: MD %s mentions the target relation %s"
             md.Md.id target_name);
      List.iter
        (fun rel ->
          if not (Database.mem db rel) then
            invalid_arg
              (Printf.sprintf "Context.create: MD %s mentions unknown relation %s"
                 md.Md.id rel))
        [ md.Md.left_rel; md.Md.right_rel ])
    mds;
  {
    config;
    db;
    mds;
    cfds;
    rng = Random.State.make [| config.Config.seed |];
    cover_stats =
      {
        tested = Obs.counter "coverage.tested";
        inherited = Obs.counter "coverage.inherited";
        cache_hits = Obs.counter "coverage.cache_hits";
        pruned = Obs.counter "coverage.pruned";
      };
    tables =
      {
        sim_indexes = Attr_memo.create 8;
        example_ids = Example_memo.create 256;
        next_id = Atomic.make 0;
        grounds = Example_memo.create 256;
        cover = Clause_memo.create 256;
        normal_forms = Clause_memo.create 64;
      };
  }

let pool t = Dlearn_parallel.Pool.get t.config.Config.num_domains

(* Rewind the sampling stream to the seed. A long-lived context (the
   serve loop) calls this at the start of every learn request so a warm
   learn draws exactly the samples a cold run would — byte-identical
   definitions. *)
let reset_rng t = t.rng <- Random.State.make [| t.config.Config.seed |]

let sim_index t rel pos =
  Attr_memo.find_or_add t.tables.sim_indexes (rel, pos) (fun () ->
      let relation = Database.find t.db rel in
      Dlearn_similarity.Sim_index.of_values
        ~measure:t.config.Config.sim.Md.measure
        ~jobs:t.config.Config.num_domains
        (Relation.distinct_values relation pos))

let example_key e = Tuple.to_string e

(* Each key's thunk runs once, so the counter hands out dense ids in the
   order examples are first interned; duplicates of one tuple share an
   id. *)
let example_id t e =
  Example_memo.find_or_add t.tables.example_ids (example_key e) (fun () ->
      Atomic.fetch_and_add t.tables.next_id 1)

let example_count t = Atomic.get t.tables.next_id

let ground t e build =
  Example_memo.find_or_add t.tables.grounds (example_key e) build

(* Callers must key on the prepared record's normalized clause
   (alpha-variants share an entry). *)
let cover_entry t clause =
  Clause_memo.find_or_add t.tables.cover clause Cover_set.entry

let normalize t clause =
  Clause_memo.find_or_add t.tables.normal_forms clause (fun () ->
      Obs.span "learn.normalize" (fun () ->
          Dlearn_logic.Clause_norm.normalize clause))

let is_searchable_attr t rel pos =
  match t.config.Config.searchable_attrs with
  | [] -> true
  | declared -> (
      match Database.find_opt t.db rel with
      | None -> false
      | Some relation ->
          let schema = Relation.schema relation in
          pos < Schema.arity schema
          && List.exists
               (fun (r, a) ->
                 String.equal r rel
                 && String.equal a (Schema.attr_name schema pos))
               declared)

(* {2 Monotone cache invalidation}

   A written tuple delta must not rebuild the context: only the
   examples whose bottom clauses could change re-resolve. An example is
   {e affected} by a changed tuple iff the tuple could enter (or leave)
   its bottom clause, and every route in — the exact index search on a
   clause constant, or an MD similarity search driven by one — starts
   from a constant already present in the cached ground clause (the
   ground clause keeps every gathered value, including the example's
   own). Exact searches probe any attribute; similarity searches run
   only over MD-compared attribute pairs, each under that MD's effective
   spec. So the sound over-approximation is: some changed tuple value is
   equal to some constant of the cached ground clause, or — at a
   position some MD compares — similar to one under that MD's operator.
   Affected examples lose their ground
   entries (with the ARMG results memoized in them) and their bits in
   every cover-cache entry ([Cover_set.invalidate]); similarity indexes
   over changed relations are dropped (their distinct-value sets changed)
   and rebuild lazily. Everything else — unaffected verdicts, the
   surviving examples' ground entries with their repair enumerations,
   prepared targets and ARMG results, every normal form — carries across
   the write.
   docs/SERVE.md states the soundness argument in full. *)

let delta_commits_c = Obs.counter "delta.commits"
let delta_invalidated_c = Obs.counter "delta.invalidated_examples"
let delta_sim_dropped_c = Obs.counter "delta.sim_indexes_dropped"

(* The specs under which a changed value at [(rel, pos)] can
   similarity-match a clause constant: the effective specs of the MDs
   comparing that attribute (bottom-clause gather's only similarity
   searches run over MD-compared pairs under exactly those specs). A
   value at a position no MD compares can enter a bottom clause only
   through the exact index search, so equality alone covers it — this is
   what keeps a new tuple's year or id from invalidating every example
   whose year is one edit away. *)
let specs_by_pos t rel =
  match Database.find_opt t.db rel with
  | None -> [||]
  | Some relation ->
      let schema = Relation.schema relation in
      Array.init (Schema.arity schema) (fun pos ->
          let attr = Schema.attr_name schema pos in
          List.filter_map
            (fun (md : Md.t) ->
              let compared_here =
                (String.equal md.Md.left_rel rel
                && List.exists
                     (fun (a, _) -> String.equal a attr)
                     md.Md.compared)
                || String.equal md.Md.right_rel rel
                   && List.exists
                        (fun (_, b) -> String.equal b attr)
                        md.Md.compared
              in
              if compared_here then
                Some (Md.effective_spec md t.config.Config.sim)
              else None)
            t.mds)

(* All constants of a clause, including inside repair conditions and
   drops, each expanded to its merge components (a merged value v_{a,b}
   joins new data through its base strings). *)
let clause_constants clause =
  let acc = ref [] in
  let collect term =
    (match term with
    | Dlearn_logic.Term.Const v ->
        acc := v :: !acc;
        if Md.Merge.is_merged v then
          List.iter
            (fun s -> acc := Value.String s :: !acc)
            (Md.Merge.components v)
    | Dlearn_logic.Term.Var _ -> ());
    term
  in
  ignore (Dlearn_logic.Clause.map_terms collect clause);
  !acc

let value_touches consts (v, specs) =
  List.exists
    (fun c ->
      Value.equal c v || List.exists (fun spec -> Md.similar spec c v) specs)
    consts

let apply_delta t changes =
  Obs.span "delta.apply" @@ fun () ->
  Obs.incr delta_commits_c;
  let changed_rels = List.map fst changes in
  (* Changed relations' similarity indexes are stale (their distinct
     values changed): drop them, they rebuild lazily on next use. *)
  let stale =
    List.filter
      (fun ((rel, _), _) -> List.exists (String.equal rel) changed_rels)
      (Attr_memo.computed t.tables.sim_indexes)
  in
  List.iter (fun (key, _) -> Attr_memo.remove t.tables.sim_indexes key) stale;
  Obs.add delta_sim_dropped_c (List.length stale);
  let changed_values =
    List.concat_map
      (fun (rel, tuples) ->
        let specs = specs_by_pos t rel in
        List.concat_map
          (fun tu ->
            List.filter_map
              (fun pos ->
                let v = Tuple.get tu pos in
                if Value.is_null v then None
                else
                  Some
                    ( v,
                      if pos < Array.length specs then specs.(pos) else [] ))
              (List.init (Tuple.arity tu) Fun.id))
          tuples)
      changes
  in
  (* Affected examples: scan the cached ground clauses. Every example the
     coverage engine ever tested has one (coverage always grounds first),
     so the scan covers every recorded verdict. Dropping the entry drops
     the example's ARMG results with it. *)
  let affected =
    List.filter_map
      (fun (key, entry) ->
        let consts = clause_constants entry.ground in
        if List.exists (value_touches consts) changed_values then Some key
        else None)
      (Example_memo.computed t.tables.grounds)
  in
  List.iter (Example_memo.remove t.tables.grounds) affected;
  let ids =
    List.filter_map (Example_memo.find_opt t.tables.example_ids) affected
  in
  if ids <> [] then begin
    let mask = Cover_set.Bitset.of_list ids in
    List.iter
      (fun (_, e) -> Cover_set.invalidate e mask)
      (Clause_memo.computed t.tables.cover)
  end;
  Obs.add delta_invalidated_c (List.length affected);
  List.length affected

let is_constant_attr t rel pos =
  match Database.find_opt t.db rel with
  | None -> false
  | Some relation ->
      let schema = Relation.schema relation in
      pos < Schema.arity schema
      && List.exists
           (fun (r, a) ->
             String.equal r rel && String.equal a (Schema.attr_name schema pos))
           t.config.Config.constant_attrs
