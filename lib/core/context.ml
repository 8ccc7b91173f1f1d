open Dlearn_relation
open Dlearn_constraints
module Obs = Dlearn_obs.Obs

type ground_entry = {
  ground : Dlearn_logic.Clause.t;
  lock : Mutex.t;
      (* guards every mutable field below: the lazily-memoized caches are
         hit concurrently when coverage fans out over domains *)
  mutable cfd_apps : Dlearn_logic.Clause.t list option;
  mutable repairs : Dlearn_logic.Clause.t list option;
  mutable target : Dlearn_logic.Subsumption.target option;
  mutable repair_targets : Dlearn_logic.Subsumption.target list option;
  mutable prefilter_target : Dlearn_logic.Subsumption.target option;
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

type t = {
  config : Config.t;
  db : Database.t;
  mds : Md.t list;
  cfds : Cfd.t list;
  mutable rng : Random.State.t;
  sim_indexes : (string * int, Dlearn_similarity.Sim_index.t) Hashtbl.t;
  sim_lock : Mutex.t;
  ground_cache : (string, ground_entry) Hashtbl.t;
  ground_lock : Mutex.t;
  (* Dense example ids: every pos/neg tuple the coverage engine sees is
     interned once; bitsets are indexed by these ids. One shared space for
     positives and negatives — an id identifies a tuple, not a polarity. *)
  example_ids : (string, int) Hashtbl.t;
  example_lock : Mutex.t;
  (* canonical clause -> known coverage verdicts, shared across seeds *)
  cover_cache : Cover_set.entry Cover_set.Clause_tbl.t;
  cover_lock : Mutex.t;
  cover_stats : cover_stats;
  (* example key -> parent clause -> ARMG result. ARMG is deterministic
     in (parent clause, the example's ground entry), so entries stay
     valid exactly as long as the ground entry does; [apply_delta] drops
     an affected example's inner table alongside its ground entry. *)
  armg_cache :
    (string, Dlearn_logic.Clause.t option Cover_set.Clause_tbl.t) Hashtbl.t;
  armg_lock : Mutex.t;
  (* clause as given -> its normal form. Normalization reads no data, so
     no write invalidates an entry. *)
  norm_cache : Dlearn_logic.Clause.t Cover_set.Clause_tbl.t;
  norm_lock : Mutex.t;
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
    sim_indexes = Hashtbl.create 8;
    sim_lock = Mutex.create ();
    ground_cache = Hashtbl.create 256;
    ground_lock = Mutex.create ();
    example_ids = Hashtbl.create 256;
    example_lock = Mutex.create ();
    cover_cache = Cover_set.Clause_tbl.create 256;
    cover_lock = Mutex.create ();
    armg_cache = Hashtbl.create 64;
    armg_lock = Mutex.create ();
    norm_cache = Cover_set.Clause_tbl.create 64;
    norm_lock = Mutex.create ();
    cover_stats =
      {
        tested = Obs.counter "coverage.tested";
        inherited = Obs.counter "coverage.inherited";
        cache_hits = Obs.counter "coverage.cache_hits";
        pruned = Obs.counter "coverage.pruned";
      };
  }

let pool t = Dlearn_parallel.Pool.get t.config.Config.num_domains

(* Rewind the sampling stream to the seed. A long-lived context (the
   serve loop) calls this at the start of every learn request so a warm
   learn draws exactly the samples a cold run would — byte-identical
   definitions. *)
let reset_rng t = t.rng <- Random.State.make [| t.config.Config.seed |]

(* Building an index is expensive but happens once per (relation,
   attribute); holding the lock across the build deduplicates the work
   when several domains miss simultaneously. *)
let sim_index t rel pos =
  Mutex.protect t.sim_lock (fun () ->
      match Hashtbl.find_opt t.sim_indexes (rel, pos) with
      | Some idx -> idx
      | None ->
          let relation = Database.find t.db rel in
          let values = Relation.distinct_values relation pos in
          let idx =
            Dlearn_similarity.Sim_index.of_values
              ~measure:t.config.Config.sim.Md.measure
              ~jobs:t.config.Config.num_domains values
          in
          Hashtbl.add t.sim_indexes (rel, pos) idx;
          idx)

let example_key e = Tuple.to_string e

(* Intern a tuple into the dense id space. Ids are assigned in first-seen
   order; duplicates of one tuple share an id. *)
let example_id t e =
  let key = example_key e in
  Mutex.protect t.example_lock (fun () ->
      match Hashtbl.find_opt t.example_ids key with
      | Some id -> id
      | None ->
          let id = Hashtbl.length t.example_ids in
          Hashtbl.add t.example_ids key id;
          id)

let example_count t =
  Mutex.protect t.example_lock (fun () -> Hashtbl.length t.example_ids)

(* The cache entry of a clause, created on first use. Callers must key on
   the prepared record's normalized clause (alpha-variants share an
   entry); the entry's own lock guards its bitsets, this lookup only
   guards the table. *)
let cover_entry t clause =
  Mutex.protect t.cover_lock (fun () ->
      match Cover_set.Clause_tbl.find_opt t.cover_cache clause with
      | Some e -> e
      | None ->
          let e = Cover_set.entry () in
          Cover_set.Clause_tbl.add t.cover_cache clause e;
          e)

let armg_hits_c = Obs.counter "armg.cache_hits"
let armg_computed_c = Obs.counter "armg.computed"

(* Memoize one ARMG generalization, keyed on the parent clause itself:
   ARMG walks the body in order, so a reordered parent is another key.
   Concurrent misses on one key may both run [compute]; the function is
   deterministic, so the duplicate write is harmless. *)
let armg_cached t e' parent compute =
  let ekey = example_key e' in
  match
    Mutex.protect t.armg_lock (fun () ->
        match Hashtbl.find_opt t.armg_cache ekey with
        | None -> None
        | Some inner -> Cover_set.Clause_tbl.find_opt inner parent)
  with
  | Some r ->
      Obs.incr armg_hits_c;
      r
  | None ->
      let r = compute () in
      Obs.incr armg_computed_c;
      Mutex.protect t.armg_lock (fun () ->
          let inner =
            match Hashtbl.find_opt t.armg_cache ekey with
            | Some inner -> inner
            | None ->
                let inner = Cover_set.Clause_tbl.create 8 in
                Hashtbl.add t.armg_cache ekey inner;
                inner
          in
          Cover_set.Clause_tbl.replace inner parent r);
      r

(* Normalize through the memo. A miss runs outside the lock; when two
   domains miss on one clause, the first insert wins and both return it,
   so every caller of one clause shares one physical normal form. *)
let normalize t clause =
  match
    Mutex.protect t.norm_lock (fun () ->
        Cover_set.Clause_tbl.find_opt t.norm_cache clause)
  with
  | Some n -> n
  | None ->
      let n =
        Obs.span "learn.normalize" (fun () ->
            Dlearn_logic.Clause_norm.normalize clause)
      in
      Mutex.protect t.norm_lock (fun () ->
          match Cover_set.Clause_tbl.find_opt t.norm_cache clause with
          | Some first -> first
          | None ->
              Cover_set.Clause_tbl.add t.norm_cache clause n;
              n)

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
   entries and their bits in every cover-cache entry
   ([Cover_set.invalidate]); similarity indexes over changed relations
   are dropped (their distinct-value sets changed) and rebuild lazily.
   Everything else — unaffected verdicts, the surviving examples' ground
   entries with their repair enumerations and prepared targets, memoized
   ARMG results, every normal form — carries across the write.
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
  Mutex.protect t.sim_lock (fun () ->
      let stale =
        Hashtbl.fold
          (fun (rel, pos) _ acc ->
            if List.exists (String.equal rel) changed_rels then
              (rel, pos) :: acc
            else acc)
          t.sim_indexes []
      in
      List.iter (fun key -> Hashtbl.remove t.sim_indexes key) stale;
      Obs.add delta_sim_dropped_c (List.length stale));
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
     so the scan covers every recorded verdict. *)
  let affected =
    Mutex.protect t.ground_lock (fun () ->
        Hashtbl.fold
          (fun key entry acc ->
            let consts = clause_constants entry.ground in
            if List.exists (value_touches consts) changed_values then
              key :: acc
            else acc)
          t.ground_cache [])
  in
  Mutex.protect t.ground_lock (fun () ->
      List.iter (fun key -> Hashtbl.remove t.ground_cache key) affected);
  (* ARMG results are functions of the ground entry: same lifetime. *)
  Mutex.protect t.armg_lock (fun () ->
      List.iter (fun key -> Hashtbl.remove t.armg_cache key) affected);
  let ids =
    Mutex.protect t.example_lock (fun () ->
        List.filter_map (fun key -> Hashtbl.find_opt t.example_ids key) affected)
  in
  if ids <> [] then begin
    let mask = Cover_set.Bitset.of_list ids in
    let entries =
      Mutex.protect t.cover_lock (fun () ->
          Cover_set.Clause_tbl.fold (fun _ e acc -> e :: acc) t.cover_cache [])
    in
    List.iter (fun e -> Cover_set.invalidate e mask) entries
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
