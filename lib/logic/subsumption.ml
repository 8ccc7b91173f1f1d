let src = Logs.Src.create "dlearn.subsumption"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Dlearn_obs.Obs

type outcome =
  | Subsumed of Substitution.t
  | Not_subsumed
  | Budget_exhausted

exception Exhausted

module IntSet = Set.Make (Int)

(* The target clause D, preprocessed for fast candidate enumeration. *)
type target = {
  d_literals : Literal.t array; (* index 0 is the head *)
  rels_by_pred : (string, int list) Hashtbl.t;
  repairs_by_origin : (string, int list) Hashtbl.t;
  sim_ids : int list;
  env : Clause_env.t;
  attached_repairs : IntSet.t array;
      (* for each non-repair literal id, the ids of D repair literals
         connected to it per Definition 4.4's connectivity *)
  term_tab : Term.t array;
      (* D's terms interned to dense ids; the CSP kernel's binding array
         holds indexes into this table *)
  key_tids : int array array;
      (* per D literal, its key terms (arguments; subject/replacement for
         repairs) as term ids — the kernel matches on these ints and never
         re-reads the literals *)
}

let literal_key_terms = function
  | Literal.Repair { subject; replacement; _ } -> [ subject; replacement ]
  | l -> Literal.terms l

(* Connectivity of repair literals (Def. 4.4): a repair literal is
   connected to a non-repair literal L when its subject or replacement
   occurs in L, or occurs in the arguments of a repair literal connected
   to L — i.e. the union of the repair-graph components (edges: shared
   key terms) that touch L directly. Computed on interned term ids with a
   union-find over the repair literals, linear-ish in clause size, rather
   than the old per-literal fixpoint that rescanned the full repair list
   quadratically. [prepare] runs once per ground bottom clause per
   coverage call, so this is on the hot path. *)
let repair_connectivity_sets d_literals =
  let n = Array.length d_literals in
  let repair_ids = ref [] in
  for id = n - 1 downto 0 do
    match d_literals.(id) with
    | Literal.Repair _ -> repair_ids := id :: !repair_ids
    | _ -> ()
  done;
  match !repair_ids with
  | [] -> Array.make n IntSet.empty
  | repair_ids ->
      let reps = Array.of_list repair_ids in
      let nrep = Array.length reps in
      (* term id -> positions (into reps) of the repairs keyed by it *)
      let term_ids : int Term.Tbl.t = Term.Tbl.create (4 * nrep) in
      let nterms = ref 0 in
      let tid t =
        match Term.Tbl.find_opt term_ids t with
        | Some i -> i
        | None ->
            let i = !nterms in
            incr nterms;
            Term.Tbl.add term_ids t i;
            i
      in
      let key_tids =
        Array.map
          (fun id -> List.map tid (literal_key_terms d_literals.(id)))
          reps
      in
      let by_tid = Array.make !nterms [] in
      Array.iteri
        (fun pos tids -> List.iter (fun t -> by_tid.(t) <- pos :: by_tid.(t)) tids)
        key_tids;
      (* union-find over repair positions: shared key term => same cluster *)
      let parent = Array.init nrep Fun.id in
      let rec find i =
        if parent.(i) = i then i
        else begin
          let r = find parent.(i) in
          parent.(i) <- r;
          r
        end
      in
      let union a b =
        let ra = find a and rb = find b in
        if ra <> rb then parent.(ra) <- rb
      in
      Array.iter
        (function
          | [] -> ()
          | first :: rest -> List.iter (fun p -> union first p) rest)
        by_tid;
      (* root -> the D literal ids of its cluster *)
      let clusters = Hashtbl.create 8 in
      Array.iteri
        (fun pos id ->
          let root = find pos in
          let cur =
            Option.value ~default:IntSet.empty (Hashtbl.find_opt clusters root)
          in
          Hashtbl.replace clusters root (IntSet.add id cur))
        reps;
      Array.init n (fun id ->
          match d_literals.(id) with
          | Literal.Repair _ -> IntSet.empty
          | l ->
              List.fold_left
                (fun acc t ->
                  match Term.Tbl.find_opt term_ids t with
                  | None -> acc
                  | Some ti ->
                      List.fold_left
                        (fun acc pos ->
                          IntSet.union acc
                            (Hashtbl.find clusters (find pos)))
                        acc by_tid.(ti))
                IntSet.empty (Literal.terms l))

let prepare (d : Clause.t) =
  let d_literals = Array.of_list (d.head :: d.body) in
  let n = Array.length d_literals in
  let rels_by_pred = Hashtbl.create 16 in
  let repairs_by_origin = Hashtbl.create 16 in
  let sim_ids = ref [] in
  (* Cons per literal, one reversal per bucket afterwards: buckets come
     out in ascending literal id, i.e. candidates enumerate in the target
     clause's body order (head first) — pinned by a test. The old scheme
     re-read each bucket through the table on every push. *)
  let push tbl key id =
    match Hashtbl.find_opt tbl key with
    | Some ids -> ids := id :: !ids
    | None -> Hashtbl.add tbl key (ref [ id ])
  in
  let staged_rels = Hashtbl.create 16 in
  let staged_repairs = Hashtbl.create 16 in
  for id = 0 to n - 1 do
    match d_literals.(id) with
    | Literal.Rel { pred; _ } -> push staged_rels pred id
    | Literal.Repair r -> push staged_repairs (Literal.origin_to_string r.origin) id
    | Literal.Sim _ -> sim_ids := id :: !sim_ids
    | Literal.Eq _ | Literal.Neq _ -> ()
  done;
  Hashtbl.iter (fun k ids -> Hashtbl.replace rels_by_pred k (List.rev !ids)) staged_rels;
  Hashtbl.iter
    (fun k ids -> Hashtbl.replace repairs_by_origin k (List.rev !ids))
    staged_repairs;
  sim_ids := List.rev !sim_ids;
  (* Intern D's key terms once: targets are prepared once and matched
     against many clauses, so the kernel never hashes a D term again. *)
  let term_ids : int Term.Tbl.t = Term.Tbl.create (4 * n) in
  let terms_rev = ref [] in
  let nterms = ref 0 in
  let tid t =
    match Term.Tbl.find_opt term_ids t with
    | Some i -> i
    | None ->
        let i = !nterms in
        incr nterms;
        Term.Tbl.add term_ids t i;
        terms_rev := t :: !terms_rev;
        i
  in
  let key_tids =
    Array.map
      (fun l -> Array.of_list (List.map tid (literal_key_terms l)))
      d_literals
  in
  {
    d_literals;
    rels_by_pred;
    repairs_by_origin;
    sim_ids = !sim_ids;
    env = Clause_env.of_body (d.head :: d.body);
    attached_repairs = repair_connectivity_sets d_literals;
    term_tab = Array.of_list (List.rev !terms_rev);
    key_tids;
  }

(* A constant of C matches a term of D when they are equal, or when D's
   equality literals identify them — ground bottom clauses relate split
   occurrences of one value through explicit equality literals. *)
let unify_term env theta c_term d_term =
  match c_term with
  | Term.Const _ ->
      if Clause_env.eq env c_term d_term then Some theta else None
  | Term.Var v -> Substitution.bind theta v d_term

let unify_args env theta c_args d_args =
  if Array.length c_args <> Array.length d_args then None
  else
    let rec go theta i =
      if i >= Array.length c_args then Some theta
      else
        match unify_term env theta c_args.(i) d_args.(i) with
        | Some theta' -> go theta' (i + 1)
        | None -> None
    in
    go theta 0

(* Candidate (θ', image-id option) extensions for one literal of C. *)
let candidates target budget theta literal =
  let spend n =
    budget := !budget - n;
    if !budget < 0 then raise Exhausted
  in
  match literal with
  | Literal.Rel { pred; args } ->
      let ids = Option.value ~default:[] (Hashtbl.find_opt target.rels_by_pred pred) in
      spend (List.length ids);
      List.filter_map
        (fun id ->
          match target.d_literals.(id) with
          | Literal.Rel { args = dargs; _ } ->
              Option.map (fun th -> (th, Some id)) (unify_args target.env theta args dargs)
          | _ -> None)
        ids
  | Literal.Repair r ->
      let key = Literal.origin_to_string r.origin in
      let ids =
        Option.value ~default:[] (Hashtbl.find_opt target.repairs_by_origin key)
      in
      spend (List.length ids);
      List.filter_map
        (fun id ->
          match target.d_literals.(id) with
          | Literal.Repair dr -> (
              match unify_term target.env theta r.subject dr.subject with
              | None -> None
              | Some th -> (
                  match unify_term target.env th r.replacement dr.replacement with
                  | None -> None
                  | Some th' -> Some (th', Some id)))
          | _ -> None)
        ids
  | Literal.Sim (x, y) ->
      let tx = Substitution.apply_term theta x
      and ty = Substitution.apply_term theta y in
      let via_env =
        if Term.is_var tx || Term.is_var ty then []
        else if Clause_env.sim target.env tx ty then [ (theta, None) ]
        else []
      in
      spend (List.length target.sim_ids);
      let via_literals =
        List.concat_map
          (fun id ->
            match target.d_literals.(id) with
            | Literal.Sim (dx, dy) ->
                let attempt a b =
                  match unify_term target.env theta x a with
                  | None -> None
                  | Some th -> (
                      match unify_term target.env th y b with
                      | None -> None
                      | Some th' -> Some (th', Some id))
                in
                List.filter_map Fun.id [ attempt dx dy; attempt dy dx ]
            | _ -> [])
          target.sim_ids
      in
      via_env @ via_literals
  | Literal.Eq _ | Literal.Neq _ -> assert false (* handled as checks *)

(* Resolve Eq/Neq check literals once every generative literal is mapped.
   Unbound variables are grouped by the Eq literals and each group bound
   to its bound member, or to a fresh constant distinct from everything. *)
let resolve_checks target theta checks =
  let module UF = Hashtbl in
  let parent : (string, string) UF.t = UF.create 8 in
  let rec find v =
    match UF.find_opt parent v with
    | None -> v
    | Some p ->
        let r = find p in
        UF.replace parent v r;
        r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then UF.replace parent ra rb
  in
  (* A term's status under θ: [`Img] is a fixed term of D — a constant,
     or a variable of D standing as the image of a bound C variable,
     which only the env closure can relate to anything — while
     [`Unbound] is a C variable θ left free, which the class scheme may
     set to any value. Distinguishing the two by θ-membership (not by
     whether the applied term is a variable) keeps the verdict
     independent of how the checks were grouped into components. *)
  let classify t =
    match t with
    | Term.Var v when not (Substitution.mem theta v) -> `Unbound v
    | _ -> `Img (Substitution.apply_term theta t)
  in
  (* First pass: union unbound variables related by Eq checks. *)
  List.iter
    (function
      | Literal.Eq (x, y) -> (
          match (classify x, classify y) with
          | `Unbound u, `Unbound v -> union u v
          | _ -> ())
      | _ -> ())
    checks;
  (* Second pass: bind each class — to a bound member's image if an Eq
     check links it to one, otherwise to a fresh constant. *)
  let class_binding : (string, Term.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (function
      | Literal.Eq (x, y) -> (
          match (classify x, classify y) with
          | `Unbound u, `Img t | `Img t, `Unbound u ->
              Hashtbl.replace class_binding (find u) t
          | _ -> ())
      | _ -> ())
    checks;
  let fresh_counter = ref 0 in
  let resolve term =
    match classify term with
    | `Img t -> t
    | `Unbound v -> (
        let root = find v in
        match Hashtbl.find_opt class_binding root with
        | Some t -> t
        | None ->
            incr fresh_counter;
            let c =
              Term.Const
                (Dlearn_relation.Value.String
                   (Printf.sprintf "\xe2\x8a\xa5fresh:%s" root))
            in
            Hashtbl.replace class_binding root c;
            c)
  in
  List.for_all
    (function
      | Literal.Eq (x, y) -> Clause_env.eq target.env (resolve x) (resolve y)
      | Literal.Neq (x, y) -> Clause_env.neq target.env (resolve x) (resolve y)
      | _ -> true)
    checks

let check_repair_connectivity target image =
  (* Every D repair literal attached to a mapped non-repair literal must be
     mapped itself. The head of D (id 0) is always mapped. *)
  let mapped_non_repair = ref (IntSet.singleton 0) in
  let mapped_repairs = ref IntSet.empty in
  IntSet.iter
    (fun id ->
      match target.d_literals.(id) with
      | Literal.Repair _ -> mapped_repairs := IntSet.add id !mapped_repairs
      | _ -> mapped_non_repair := IntSet.add id !mapped_non_repair)
    image;
  IntSet.for_all
    (fun id -> IntSet.subset target.attached_repairs.(id) !mapped_repairs)
    !mapped_non_repair

(* Exhaustive chronological search with the repair-connectivity
   condition enforced at every complete assignment — the search of the
   [subsumes_naive] oracle. It backtracks *through* the check instead of
   post-filtering a first witness, which is what completeness under the
   global connectivity condition needs. The CSP kernel commits each
   independent fragment's first solution instead, complete for plain
   satisfiability but not under that condition (a rejected image might
   have been fixed by a different solution of an already-committed
   sibling fragment); it hands those instances to the SAT rescue, which
   decides them much faster than this search, and the differential tests
   check both against this one.

   Body order is kept as-is: C's relational literals carry the join
   variables, so they prune hardest; hoisting the repair literals to the
   front (to finalize the mapped-repair set early) was measured to
   enumerate near-cartesian repair placements before any rel constrains
   the shared subject variables — far slower on the bottom-clause
   workloads that actually trigger the fallback.

   Instead, connectivity is propagated as an achievability bound: at
   each node the obligations accumulated so far (attached repairs of
   every mapped non-repair literal, plus the head's) must be coverable
   by the repairs already placed together with what the *remaining*
   repair literals could still place — per-suffix unions of their
   static candidate buckets, computed once up front. A branch that maps
   a rel whose attached repairs can no longer all be placed dies
   immediately instead of at full assignment; in particular a candidate
   with no repair literals at all refutes in one step per branch. *)
let search_exhaustive target budget ~repair_connectivity (c : Clause.t) theta0 =
  let gens, checks =
    List.partition
      (function
        | Literal.Rel _ | Literal.Repair _ | Literal.Sim _ -> true
        | Literal.Eq _ | Literal.Neq _ -> false)
      c.body
  in
  (* suffix_placeable.(i): every D repair id some repair literal among
     gens[i..] could still map to, ignoring bindings — a sound
     overapproximation (candidate buckets only shrink under theta). *)
  let suffix_placeable =
    if not repair_connectivity then [||]
    else begin
      let n = List.length gens in
      let arr = Array.make (n + 1) IntSet.empty in
      List.iteri
        (fun i l ->
          let bucket =
            match l with
            | Literal.Repair { origin; _ } ->
                List.fold_left
                  (fun s id -> IntSet.add id s)
                  IntSet.empty
                  (Option.value ~default:[]
                     (Hashtbl.find_opt target.repairs_by_origin
                        (Literal.origin_to_string origin)))
            | _ -> IntSet.empty
          in
          (* filled back-to-front below; stash each bucket first *)
          arr.(i) <- bucket)
        gens;
      for i = n - 1 downto 0 do
        arr.(i) <- IntSet.union arr.(i) arr.(i + 1)
      done;
      arr
    end
  in
  let head_required =
    if repair_connectivity then target.attached_repairs.(0) else IntSet.empty
  in
  let rec search i remaining theta required placed image =
    if
      repair_connectivity
      && not (IntSet.subset required (IntSet.union placed suffix_placeable.(i)))
    then None
    else
      match remaining with
      | [] ->
          if not (resolve_checks target theta checks) then None
          else if
            repair_connectivity && not (check_repair_connectivity target image)
          then None
          else Some theta
      | l :: rest ->
          let rec try_candidates = function
            | [] -> None
            | (theta', id_opt) :: more -> (
                let required', placed', image' =
                  match id_opt with
                  | None -> (required, placed, image)
                  | Some id ->
                      let required', placed' =
                        if not repair_connectivity then (required, placed)
                        else
                          match l with
                          | Literal.Repair _ -> (required, IntSet.add id placed)
                          | _ ->
                              ( IntSet.union required
                                  target.attached_repairs.(id),
                                placed )
                      in
                      (required', placed', IntSet.add id image)
                in
                match search (i + 1) rest theta' required' placed' image' with
                | Some _ as ok -> ok
                | None -> try_candidates more)
          in
          try_candidates (candidates target budget theta l)
  in
  search 0 gens theta0 head_required IntSet.empty IntSet.empty

let is_check = function
  | Literal.Eq _ | Literal.Neq _ -> true
  | Literal.Rel _ | Literal.Sim _ | Literal.Repair _ -> false

(* ------------------------------------------------------------------ *)
(* Per-solve counters for the CSP kernel, aggregated process-wide on the
   Obs registry so the bench and the learner can report them across a
   domain pool (names under [subsumption.], see docs/OBSERVABILITY.md). *)

module Stats = struct
  let solves = Obs.counter "subsumption.solves"
  let nodes = Obs.counter "subsumption.nodes"
  let propagations = Obs.counter "subsumption.propagations"
  let wipeouts = Obs.counter "subsumption.wipeouts"
  let setup_ns = Obs.counter "subsumption.setup_ns"
  let search_ns = Obs.counter "subsumption.search_ns"
  let exhausted = Obs.counter "subsumption.exhausted"
end

(* ------------------------------------------------------------------ *)
(* The compiled problem: C against one prepared target. [compile] interns
   C's variables to dense ints, seeds them by head unification,
   precomputes each generative literal's candidate table and decides the
   checks that are ground at setup. The CSP kernel's [search] runs over a
   mutable binding array with an undo trail, forward-checks the
   candidate domains of connected literals on every assignment and
   selects by minimum remaining domain within dynamically recomputed
   components; the SAT [rescue] encodes the same problem.               *)

(* One candidate match for a generative literal: the D literal it maps to
   ([d_id] = -1 for the pseudo-candidate satisfying a similarity literal
   through the environment's closure once both sides are bound) and the
   variable bindings it entails, as (var id, term id) pairs over the
   variables unbound at setup. *)
type cand = {
  d_id : int;
  binds : (int * int) array;
}

type csp_lit = {
  lit : Literal.t;
  cands : cand array;
  lvars : int array; (* ids of this literal's setup-unbound variables *)
  env_k : int; (* index of the environment pseudo-candidate, or -1 *)
  bucket : int; (* length of the D bucket scanned for [cands] *)
}

type problem = {
  target : target;
  names : string array; (* C's variables by dense id *)
  var_ids : (string, int) Hashtbl.t;
  seeds : int array; (* var id -> term id bound by the head, or -1 *)
  lits : csp_lit array; (* the generative literals, in body order *)
  checks : Literal.t array; (* the checks left pending at setup *)
  chk_vars : int array array; (* per pending check, its unbound vars *)
  layout : int array;
      (* per body literal: generative literal j as [j], pending check ci
         as [ng + ci], a check decided at setup as -1 *)
  gen_watch : int list array; (* var id -> generative literals *)
  chk_watch : int list array; (* var id -> pending checks *)
  comps : (int list * int list) list; (* initial components *)
}

exception Reject
exception Dead

let resolve_term target var_ids binding = function
  | Term.Const _ as t -> Some t
  | Term.Var v ->
      let i = Hashtbl.find var_ids v in
      if binding.(i) >= 0 then Some target.term_tab.(binding.(i)) else None

let current_subst p binding =
  let th = ref Substitution.empty in
  Array.iteri
    (fun i v ->
      if binding.(i) >= 0 then
        th := Substitution.add !th v p.target.term_tab.(binding.(i)))
    p.names;
  !th

(* A check decides once both sides resolve to non-variable terms. An
   image that is itself a variable of D stays [`Unknown]: the naive
   search likewise leaves those to the union-find resolution of
   [resolve_checks]. *)
let eval_check target var_ids binding l =
  match l with
  | Literal.Eq (x, y) | Literal.Neq (x, y) -> (
      match
        ( resolve_term target var_ids binding x,
          resolve_term target var_ids binding y )
      with
      | Some tx, Some ty when not (Term.is_var tx || Term.is_var ty) ->
          let holds =
            match l with
            | Literal.Eq _ -> Clause_env.eq target.env tx ty
            | _ -> Clause_env.neq target.env tx ty
          in
          if holds then `Sat else `Unsat
      | _ -> `Unknown)
  | _ -> `Unknown

(* The environment branch of a similarity literal is decidable only once
   both sides resolve; a side resolving to a variable of D refutes it. *)
let eval_deferred target var_ids binding = function
  | Literal.Sim (x, y) -> (
      match
        ( resolve_term target var_ids binding x,
          resolve_term target var_ids binding y )
      with
      | Some rx, _ when Term.is_var rx -> `Unsat
      | _, Some ry when Term.is_var ry -> `Unsat
      | Some rx, Some ry ->
          if Clause_env.sim target.env rx ry then `Sat else `Unsat
      | _ -> `Unknown)
  | _ -> `Unsat

(* [None] when head unification, an empty candidate table or a check
   already false at setup refutes C. *)
let compile ~spend (c : Clause.t) (target : target) =
  let names = Array.of_list (Clause.vars c) in
  let nvars = Array.length names in
  let var_ids = Hashtbl.create (max 16 (2 * nvars)) in
  Array.iteri (fun i v -> Hashtbl.add var_ids v i) names;
  let vid v = Hashtbl.find var_ids v in
  let term_tab = target.term_tab in
  let seeds = Array.make (max nvars 1) (-1) in
  try
    (* --- head unification seeds the binding array --- *)
    (match (c.head, target.d_literals.(0)) with
    | ( Literal.Rel { pred = p1; args = a1 },
        Literal.Rel { pred = p2; args = a2 } )
      when String.equal p1 p2 && Array.length a1 = Array.length a2 ->
        let dk = target.key_tids.(0) in
        Array.iteri
          (fun i ct ->
            match ct with
            | Term.Const _ ->
                if not (Clause_env.eq target.env ct a2.(i)) then raise Reject
            | Term.Var v ->
                let iv = vid v in
                let t = dk.(i) in
                if seeds.(iv) < 0 then seeds.(iv) <- t
                else if seeds.(iv) <> t then raise Reject)
          a1
    | _ -> raise Reject);
    (* --- candidate tables ---
       C-side arguments are pre-resolved once per literal: a constant
       keeps its term (compared through the env closure), a variable
       becomes its dense id. Candidates then match descriptor against the
       target's interned key ids — pure int work per candidate. *)
    let descr (t : Term.t) =
      match t with Term.Const _ -> `C t | Term.Var v -> `V (vid v)
    in
    let unify_descr acc d dt_id =
      match d with
      | `C ct ->
          if not (Clause_env.eq target.env ct term_tab.(dt_id)) then
            raise Reject
      | `V iv ->
          if seeds.(iv) >= 0 then begin
            if seeds.(iv) <> dt_id then raise Reject
          end
          else begin
            let rec chk = function
              | [] -> acc := (iv, dt_id) :: !acc
              | (iv', t') :: rest ->
                  if iv' = iv then begin
                    if t' <> dt_id then raise Reject
                  end
                  else chk rest
            in
            chk !acc
          end
    in
    let match_keys ds dk id =
      try
        let acc = ref [] in
        for i = 0 to Array.length ds - 1 do
          unify_descr acc ds.(i) dk.(i)
        done;
        Some { d_id = id; binds = Array.of_list (List.rev !acc) }
      with Reject -> None
    in
    let charge bucket =
      let n = List.length bucket in
      spend n;
      n
    in
    (* (bucket length, candidates) *)
    let build_cands (l : Literal.t) =
      match l with
      | Literal.Rel { pred; args } ->
          let ids =
            Option.value ~default:[] (Hashtbl.find_opt target.rels_by_pred pred)
          in
          let bucket = charge ids in
          let ds = Array.map descr args in
          ( bucket,
            List.filter_map
              (fun id ->
                let dk = target.key_tids.(id) in
                if Array.length dk <> Array.length ds then None
                else match_keys ds dk id)
              ids )
      | Literal.Repair r ->
          let key = Literal.origin_to_string r.origin in
          let ids =
            Option.value ~default:[]
              (Hashtbl.find_opt target.repairs_by_origin key)
          in
          let bucket = charge ids in
          let ds = [| descr r.subject; descr r.replacement |] in
          ( bucket,
            List.filter_map (fun id -> match_keys ds target.key_tids.(id) id) ids
          )
      | Literal.Sim (x, y) ->
          let bucket = charge target.sim_ids in
          let dx = descr x and dy = descr y in
          let via_literals =
            List.concat_map
              (fun id ->
                let dk = target.key_tids.(id) in
                let attempt a b =
                  try
                    let acc = ref [] in
                    unify_descr acc dx a;
                    unify_descr acc dy b;
                    Some { d_id = id; binds = Array.of_list (List.rev !acc) }
                  with Reject -> None
                in
                List.filter_map Fun.id
                  [ attempt dk.(0) dk.(1); attempt dk.(1) dk.(0) ])
              target.sim_ids
          in
          (* The environment pseudo-candidate. Decidable at setup (both
             sides resolved): enumerate it first, like [candidates]
             does — its empty image also biases the first witness toward
             passing the connectivity check, sparing the rescue.
             Undecidable: it becomes a *deferred* branch, validated by
             forward checking as its sides bind and at the end of the
             component; it goes last so the constraining D-literal
             candidates (which bind the unbound side) are explored first
             — [candidates] offers no environment branch at all for an
             unresolved similarity at its decision point. *)
          let env_cand = { d_id = -1; binds = [||] } in
          ( bucket,
            match eval_deferred target var_ids seeds l with
            | `Sat -> env_cand :: via_literals
            | `Unsat -> via_literals
            | `Unknown -> via_literals @ [ env_cand ] )
      | Literal.Eq _ | Literal.Neq _ -> assert false
    in
    let unbound_vars l =
      List.filter_map
        (fun v ->
          let iv = vid v in
          if seeds.(iv) < 0 then Some iv else None)
        (Literal.vars l)
      |> Array.of_list
    in
    let lits =
      Array.of_list (List.filter (fun l -> not (is_check l)) c.body)
      |> Array.map (fun l ->
             match build_cands l with
             | _, [] -> raise Reject
             | bucket, cands ->
                 let cands = Array.of_list cands in
                 let env_k = ref (-1) in
                 Array.iteri (fun k cnd -> if cnd.d_id < 0 then env_k := k) cands;
                 let lvars = unbound_vars l in
                 { lit = l; cands; lvars; env_k = !env_k; bucket })
    in
    let ng = Array.length lits in
    (* --- checks: decide the ground ones now, keep the rest pending --- *)
    let layout = Array.make (List.length c.body) (-1) in
    let pending = ref [] and nchk = ref 0 and gj = ref 0 in
    List.iteri
      (fun i l ->
        if not (is_check l) then begin
          layout.(i) <- !gj;
          incr gj
        end
        else
          match eval_check target var_ids seeds l with
          | `Sat -> ()
          | `Unsat -> raise Reject
          | `Unknown ->
              pending := l :: !pending;
              layout.(i) <- ng + !nchk;
              incr nchk)
      c.body;
    let checks = Array.of_list (List.rev !pending) in
    let nchk = !nchk in
    let chk_vars = Array.map unbound_vars checks in
    (* --- var -> literal adjacency --- *)
    let gen_watch = Array.make (max nvars 1) [] in
    let chk_watch = Array.make (max nvars 1) [] in
    Array.iteri
      (fun j cl ->
        Array.iter (fun v -> gen_watch.(v) <- j :: gen_watch.(v)) cl.lvars)
      lits;
    Array.iteri
      (fun ci vs -> Array.iter (fun v -> chk_watch.(v) <- ci :: chk_watch.(v)) vs)
      chk_vars;
    Array.iteri (fun v l -> gen_watch.(v) <- List.rev l) gen_watch;
    Array.iteri (fun v l -> chk_watch.(v) <- List.rev l) chk_watch;
    (* --- initial connected-components split on the int adjacency (the
       search re-splits dynamically as bindings land) --- *)
    let nnodes = ng + nchk in
    let parent = Array.init (max nnodes 1) Fun.id in
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then parent.(ra) <- rb
    in
    let var_first = Array.make (max nvars 1) (-1) in
    let link node v =
      if var_first.(v) < 0 then var_first.(v) <- node
      else union node var_first.(v)
    in
    Array.iteri (fun j cl -> Array.iter (link j) cl.lvars) lits;
    Array.iteri (fun ci vs -> Array.iter (link (ng + ci)) vs) chk_vars;
    let comp_tbl = Hashtbl.create 8 in
    for node = nnodes - 1 downto 0 do
      let root = find node in
      let gens', chks' =
        Option.value ~default:([], []) (Hashtbl.find_opt comp_tbl root)
      in
      if node < ng then Hashtbl.replace comp_tbl root (node :: gens', chks')
      else Hashtbl.replace comp_tbl root (gens', (node - ng) :: chks')
    done;
    let first (g, c) =
      match (g, c) with
      | g :: _, _ -> g
      | [], ch :: _ -> ng + ch
      | [], [] -> 0
    in
    let comps =
      Hashtbl.fold (fun _ c acc -> c :: acc) comp_tbl []
      |> List.sort (fun ((g1, c1) as a) ((g2, c2) as b) ->
             match
               Int.compare
                 (List.length g1 + List.length c1)
                 (List.length g2 + List.length c2)
             with
             | 0 -> Int.compare (first a) (first b)
             | c -> c)
    in
    Some
      {
        target;
        names;
        var_ids;
        seeds;
        lits;
        checks;
        chk_vars;
        layout;
        gen_watch;
        chk_watch;
        comps;
      }
  with Reject -> None

type tally = {
  mutable nodes : int;
  mutable props : int;
  mutable wipes : int;
}

(* The CSP search over a compiled problem: [Some (binding, image)] for
   the first witness found — its binding array and the D literal ids it
   maps onto — or [None] when C is refuted. *)
let search ~spend tally p =
  let target = p.target and lits = p.lits and checks = p.checks in
  let ng = Array.length lits and nchk = Array.length checks in
  let binding = Array.copy p.seeds in
  let nslots = Array.length binding in
  let alive =
    Array.map (fun cl -> Array.make (Array.length cl.cands) true) lits
  in
  let alive_n = Array.map (fun cl -> Array.length cl.cands) lits in
  let chk_state = Array.make (max nchk 1) 0 in
  let nbinds = ref 0 in
  let eval_check l = eval_check target p.var_ids binding l in
  let eval_deferred j = eval_deferred target p.var_ids binding lits.(j).lit in
  let assigned = Array.make (max ng 1) (-1) in
  let tr_kind = ref (Array.make 256 0) in
  let tr_a = ref (Array.make 256 0) in
  let tr_b = ref (Array.make 256 0) in
  let tr_len = ref 0 in
  let push kind a b =
    let n = !tr_len in
    if n = Array.length !tr_kind then begin
      let grow arr =
        let bigger = Array.make (2 * n) 0 in
        Array.blit !arr 0 bigger 0 n;
        arr := bigger
      in
      grow tr_kind;
      grow tr_a;
      grow tr_b
    end;
    !tr_kind.(n) <- kind;
    !tr_a.(n) <- a;
    !tr_b.(n) <- b;
    tr_len := n + 1
  in
  let undo_to mark =
    while !tr_len > mark do
      decr tr_len;
      let i = !tr_len in
      match !tr_kind.(i) with
      | 0 -> binding.(!tr_a.(i)) <- -1
      | 1 ->
          let j = !tr_a.(i) in
          alive.(j).(!tr_b.(i)) <- true;
          alive_n.(j) <- alive_n.(j) + 1
      | 2 -> chk_state.(!tr_a.(i)) <- 0
      | _ -> assigned.(!tr_a.(i)) <- -1
    done
  in
  let kill j k =
    alive.(j).(k) <- false;
    alive_n.(j) <- alive_n.(j) - 1;
    tally.props <- tally.props + 1;
    push 1 j k;
    if alive_n.(j) = 0 then begin
      tally.wipes <- tally.wipes + 1;
      raise Dead
    end
  in
  (* Forward checking: prune the candidate domains of unassigned literals
     watching [v], and evaluate the checks that just became ground. An
     assignment to a similarity's environment branch is deferred until
     both sides resolve: [`Unsat] fails the branch, [`Sat]/[`Unknown]
     leave it pending (an [`Unknown] leftover is rejected at the end of
     the component). *)
  let propagate v =
    let t = binding.(v) in
    List.iter
      (fun j ->
        if assigned.(j) >= 0 then begin
          if lits.(j).cands.(assigned.(j)).d_id < 0 && eval_deferred j = `Unsat
          then raise Dead
        end
        else begin
          let cl = lits.(j) in
          for k = 0 to Array.length cl.cands - 1 do
            if alive.(j).(k) then begin
              spend 1;
              let cnd = cl.cands.(k) in
              if cnd.d_id >= 0 then begin
                let nb = Array.length cnd.binds in
                let rec conflict i =
                  if i >= nb then false
                  else
                    let v', t' = cnd.binds.(i) in
                    if v' = v && t' <> t then true else conflict (i + 1)
                in
                if conflict 0 then kill j k
              end
              else if eval_deferred j = `Unsat then
                (* environment pseudo-candidate now refutable *)
                kill j k
            end
          done
        end)
      p.gen_watch.(v);
    List.iter
      (fun ci ->
        if chk_state.(ci) = 0 then
          match eval_check checks.(ci) with
          | `Unsat -> raise Dead
          | `Sat ->
              chk_state.(ci) <- 1;
              push 2 ci 0
          | `Unknown -> ())
      p.chk_watch.(v)
  in
  let apply_cand j (cnd : cand) =
    if cnd.d_id < 0 then begin
      (* environment branch: decide it now if both sides are bound,
         otherwise leave it deferred *)
      if eval_deferred j = `Unsat then raise Dead
    end
    else
      Array.iter
        (fun (v, t) ->
          if binding.(v) < 0 then begin
            binding.(v) <- t;
            incr nbinds;
            push 0 v 0;
            propagate v
          end
          else if binding.(v) <> t then raise Dead)
        cnd.binds
  in
  (* Min-remaining-domain selection, lowest body index on ties.
     Similarity literals compete with the atoms: in a bottom clause they
     are the joins crossing sources, and selecting one as soon as forward
     checking has shrunk its table binds the far side — the alternative
     (all atoms first) enumerates the unconstrained side as a cross
     product. *)
  let select cgens =
    let best = ref (-1) and best_n = ref max_int in
    List.iter
      (fun j ->
        if assigned.(j) < 0 && alive_n.(j) < !best_n then begin
          best := j;
          best_n := alive_n.(j)
        end)
      cgens;
    !best
  in
  (* --- dynamic component decomposition ---
     Re-split the remaining work by shared *unbound* variables after
     every assignment: once the atoms ground the join variables, the
     similarity and repair web falls apart into small independent
     fragments, and a failure in one fragment can never be repaired by
     backtracking into another. Items are the unassigned generative
     literals, the still-pending checks, and the environment-deferred
     similarities awaiting resolution of an unbound side. *)
  let var_item = Array.make nslots (-1) in
  let var_stamp = Array.make nslots 0 in
  let stamp = ref 0 in
  let sp_cap = max ((2 * ng) + nchk) 1 in
  let sp_item = Array.make sp_cap 0 in
  let sp_parent = Array.make sp_cap 0 in
  (* Items are coded into one int space — gen j as [j], check ci as
     [ng + ci], deferred sim j as [ng + nchk + j] — and the union-find
     runs over preallocated scratch. Decided checks and fully-resolved
     deferrals carry no unbound variable and are dropped here; [finish]
     re-derives their verdicts. Returns [None] when everything still
     hangs together as one component, so the caller reuses its lists
     unchanged. *)
  let split cgens cchecks cdefers =
    let n = ref 0 in
    let add code =
      sp_item.(!n) <- code;
      incr n
    in
    List.iter add cgens;
    List.iter (fun ci -> if chk_state.(ci) = 0 then add (ng + ci)) cchecks;
    List.iter
      (fun j ->
        if Array.exists (fun v -> binding.(v) < 0) lits.(j).lvars then
          add (ng + nchk + j))
      cdefers;
    let n = !n in
    for i = 0 to n - 1 do
      sp_parent.(i) <- i
    done;
    let rec find i =
      if sp_parent.(i) = i then i
      else begin
        let r = find sp_parent.(i) in
        sp_parent.(i) <- r;
        r
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then sp_parent.(ra) <- rb
    in
    let item_vars code =
      if code < ng then lits.(code).lvars
      else if code < ng + nchk then p.chk_vars.(code - ng)
      else lits.(code - ng - nchk).lvars
    in
    incr stamp;
    for i = 0 to n - 1 do
      Array.iter
        (fun v ->
          if binding.(v) < 0 then
            if var_stamp.(v) <> !stamp then begin
              var_stamp.(v) <- !stamp;
              var_item.(v) <- i
            end
            else union i var_item.(v))
        (item_vars sp_item.(i))
    done;
    let single = ref true in
    (if n > 1 then begin
       let r0 = find 0 in
       let i = ref 1 in
       while !single && !i < n do
         if find !i <> r0 then single := false;
         incr i
       done
     end);
    if !single then None
    else begin
      let tbl = Hashtbl.create 8 in
      for i = n - 1 downto 0 do
        let r = find i in
        let g, ch, df =
          Option.value ~default:([], [], []) (Hashtbl.find_opt tbl r)
        in
        let code = sp_item.(i) in
        Hashtbl.replace tbl r
          (if code < ng then (code :: g, ch, df)
           else if code < ng + nchk then (g, (code - ng) :: ch, df)
           else (g, ch, (code - ng - nchk) :: df))
      done;
      Some
        (Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
        |> List.sort (fun (g1, c1, d1) (g2, c2, d2) ->
               let len (g, c, d) =
                 List.length g + List.length c + List.length d
               in
               let first (g, c, d) =
                 match (g, c, d) with
                 | j :: _, _, _ | _, _, j :: _ -> j
                 | [], ci :: _, [] -> ng + ci
                 | [], [], [] -> 0
               in
               match Int.compare (len (g1, c1, d1)) (len (g2, c2, d2)) with
               | 0 -> Int.compare (first (g1, c1, d1)) (first (g2, c2, d2))
               | c -> c))
    end
  in
  let finish cchecks cdefers =
    (* Nothing left that can bind a variable: any environment branch
       still deferred is unsatisfiable — sides left unresolved here can
       only be bound by resolve_checks' fresh constants, which never
       satisfy a similarity — matching the naive search's semantics. *)
    List.for_all (fun j -> eval_deferred j = `Sat) cdefers
    &&
    let pending =
      List.filter_map
        (fun ci -> if chk_state.(ci) = 0 then Some checks.(ci) else None)
        cchecks
    in
    pending = [] || resolve_checks target (current_subst p binding) pending
  in
  let rec solve cgens cchecks cdefers =
    if cgens = [] then finish cchecks cdefers
    else
      match split cgens cchecks cdefers with
      | None -> branch (cgens, cchecks, cdefers)
      | Some comps' -> List.for_all branch comps'
  and branch (cgens, cchecks, cdefers) =
    match cgens with
    | [] -> finish cchecks cdefers
    | _ ->
        let j = select cgens in
        let rest = List.filter (fun i -> i <> j) cgens in
        let cl = lits.(j) in
        let attempt k =
          tally.nodes <- tally.nodes + 1;
          spend 1;
          let mark = !tr_len in
          (* the assignment itself is trailed: sibling components solved
             between this node and a later failure leave their literals
             assigned, and the undo must roll those back too *)
          assigned.(j) <- k;
          push 3 j 0;
          let bsnap = !nbinds in
          let ok =
            try
              apply_cand j cl.cands.(k);
              true
            with Dead -> false
          in
          let cdefers' =
            if cl.cands.(k).d_id < 0 && eval_deferred j = `Unknown then
              j :: cdefers
            else cdefers
          in
          let ok =
            ok
            &&
            (* a candidate that bound nothing cannot have changed the
               component structure (a deferral keeps this literal's
               linkage alive), so skip the re-split *)
            if !nbinds = bsnap then branch (rest, cchecks, cdefers')
            else solve rest cchecks cdefers'
          in
          if ok then true
          else begin
            undo_to mark;
            false
          end
        in
        let rec try_from k skip =
          if k >= Array.length cl.cands then false
          else if k = skip || not alive.(j).(k) then try_from (k + 1) skip
          else if attempt k then true
          else try_from (k + 1) skip
        in
        (* Dynamic candidate order for the deferred environment branch:
           the naive search computes candidates at selection time, where
           a similarity whose sides are already bound takes the
           environment branch first (or rules it out). Mirror that here —
           the static table was built before any binding existed. *)
        if cl.env_k < 0 || not alive.(j).(cl.env_k) then try_from 0 (-1)
        else begin
          match eval_deferred j with
          | `Sat -> attempt cl.env_k || try_from 0 cl.env_k
          | `Unsat -> try_from 0 cl.env_k
          | `Unknown -> try_from 0 (-1)
        end
  in
  if not (List.for_all (fun (cgens, cchecks) -> solve cgens cchecks []) p.comps)
  then None
  else begin
    let image = ref IntSet.empty in
    Array.iteri
      (fun j k ->
        if k >= 0 then begin
          let id = lits.(j).cands.(k).d_id in
          if id >= 0 then image := IntSet.add id !image
        end)
      assigned;
    Some (binding, !image)
  end

(* ------------------------------------------------------------------ *)
(* The SAT rescue: the compiled problem as a CDCL instance in a fresh
   {!Sat_core} solver per call, decided by a CEGAR loop over the
   kernel's own finish logic. Selector variables are the candidate
   tables' entries, binding variables (var id, term id) pairs; see
   docs/SUBSUMPTION.md. *)

(* Obs counters under sat.* — bumped with per-call deltas of the
   solver's own counters. *)
module Sat_stats = struct
  let solves = Obs.counter "sat.solves"
  let propagations = Obs.counter "sat.propagations"
  let conflicts = Obs.counter "sat.conflicts"
  let learned = Obs.counter "sat.learned_clauses"
  let restarts = Obs.counter "sat.restarts"
  let encode_ns = Obs.counter "sat.encode_ns"
  let solve_ns = Obs.counter "sat.solve_ns"
end

(* One call's encoding: a fresh solver, dropped when the call returns. *)
type encoding = {
  solver : Sat_core.t;
  bvars : (int * int, int) Hashtbl.t; (* (var id, term id) -> sat var *)
  domains : int list array; (* var id -> its term ids so far, newest first *)
}

(* Binding variable for (v, t), created on demand. Creation appends the
   at-most-one-term clauses against the variable's known domain ("θ is
   a function"). *)
let bvar enc v t =
  match Hashtbl.find_opt enc.bvars (v, t) with
  | Some x -> x
  | None ->
      let x = Sat_core.new_var enc.solver in
      Hashtbl.add enc.bvars (v, t) x;
      List.iter
        (fun t' ->
          let x' = Hashtbl.find enc.bvars (v, t') in
          Sat_core.add_clause enc.solver [ Sat_core.neg x; Sat_core.neg x' ])
        enc.domains.(v);
      enc.domains.(v) <- t :: enc.domains.(v);
      x

(* At-most-one over selector vars: pairwise when small, a sequential
   (Sinz) ladder otherwise. *)
let at_most_one solver sels =
  let clause = Sat_core.add_clause solver in
  let n = Array.length sels in
  if n <= 1 then ()
  else if n <= 8 then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        clause [ Sat_core.neg sels.(i); Sat_core.neg sels.(j) ]
      done
    done
  else begin
    let z = Array.init (n - 1) (fun _ -> Sat_core.new_var solver) in
    for i = 0 to n - 2 do
      clause [ Sat_core.neg sels.(i); Sat_core.pos z.(i) ];
      if i > 0 then begin
        clause [ Sat_core.neg z.(i - 1); Sat_core.pos z.(i) ];
        clause [ Sat_core.neg z.(i - 1); Sat_core.neg sels.(i) ]
      end
    done;
    clause [ Sat_core.neg z.(n - 2); Sat_core.neg sels.(n - 1) ]
  end

(* Selectors for one generative literal, in candidate order: selecting a
   candidate commits its bindings, and exactly one is selected. *)
let register enc spend cl =
  spend cl.bucket;
  let solver = enc.solver in
  let sels = Array.map (fun _ -> Sat_core.new_var solver) cl.cands in
  Array.iteri
    (fun k cnd ->
      Array.iter
        (fun (v, t) ->
          Sat_core.add_clause solver
            [ Sat_core.neg sels.(k); Sat_core.pos (bvar enc v t) ])
        cnd.binds)
    cl.cands;
  Sat_core.add_clause solver (Array.to_list (Array.map Sat_core.pos sels));
  at_most_one solver sels;
  sels

(* Pair clauses for a pending check over the sides' domains registered
   so far: θ must not bind two values the check refutes. Bounded to keep
   the encoding from going quadratic on huge domains — the model checker
   covers whatever is skipped. *)
let check_pair_clauses p enc l =
  let env = p.target.env and term_tab = p.target.term_tab in
  let holds a b =
    match l with
    | Literal.Eq _ -> Clause_env.eq env a b
    | Literal.Neq _ -> Clause_env.neq env a b
    | _ -> true
  in
  let x, y =
    match l with
    | Literal.Eq (x, y) | Literal.Neq (x, y) -> (x, y)
    | _ -> assert false
  in
  let side = function
    | Term.Const _ as t -> `Fixed t
    | Term.Var v ->
        let iv = Hashtbl.find p.var_ids v in
        if p.seeds.(iv) >= 0 then `Fixed term_tab.(p.seeds.(iv))
        else `Free (iv, enc.domains.(iv))
  in
  match (side x, side y) with
  | `Fixed _, `Fixed _ -> ()
  | `Fixed tx, `Free (v, dom) | `Free (v, dom), `Fixed tx ->
      if not (Term.is_var tx) then
        List.iter
          (fun t ->
            let tv = term_tab.(t) in
            if (not (Term.is_var tv)) && not (holds tx tv) then
              Sat_core.add_clause enc.solver [ Sat_core.neg (bvar enc v t) ])
          dom
  | `Free (vx, domx), `Free (vy, domy) ->
      if List.length domx * List.length domy <= 400 then
        List.iter
          (fun tx ->
            let ttx = term_tab.(tx) in
            if not (Term.is_var ttx) then
              List.iter
                (fun ty ->
                  let tty = term_tab.(ty) in
                  if (not (Term.is_var tty)) && not (holds ttx tty) then
                    Sat_core.add_clause enc.solver
                      [
                        Sat_core.neg (bvar enc vx tx);
                        Sat_core.neg (bvar enc vy ty);
                      ])
                domy)
          domx

let rescue ~budget ~repair_connectivity p =
  Obs.span "subsumption.sat" @@ fun () ->
  let t0 = Obs.now_ns () in
  let budget = ref budget in
  let spend n =
    budget := !budget - n;
    if !budget < 0 then raise Exhausted
  in
  let target = p.target and lits = p.lits in
  let ng = Array.length lits in
  let solver = Sat_core.create () in
  let enc =
    {
      solver;
      bvars = Hashtbl.create 64;
      domains = Array.make (Array.length p.seeds) [];
    }
  in
  try
    (* the distinct body literals in body order, each registered once:
       generative literals as (j, selectors), pending checks through
       their pair clauses *)
    let seen = Hashtbl.create 32 in
    let gens = ref [] and checks = ref [] in
    Array.iter
      (fun code ->
        if code >= 0 then begin
          let l = if code < ng then lits.(code).lit else p.checks.(code - ng) in
          if not (Hashtbl.mem seen l) then begin
            Hashtbl.add seen l ();
            if code < ng then
              gens := (code, register enc spend lits.(code)) :: !gens
            else begin
              check_pair_clauses p enc l;
              checks := l :: !checks
            end
          end
        end)
      p.layout;
    let gens = List.rev !gens and checks = List.rev !checks in
    (* decision order: the selectors in body order, candidate order
       within a literal, preferred phase true — the first model follows
       the reference enumeration *)
    List.iter
      (fun (_, sels) ->
        Array.iter (fun s -> Sat_core.set_phase solver s true) sels)
      gens;
    Sat_core.set_priority solver (Array.concat (List.map snd gens));
    Obs.add Sat_stats.encode_ns (Obs.now_ns () - t0);
    let t_solve = Obs.now_ns () in
    (* Repair connectivity (Definition 4.4), encoded up front: a model
       selecting a candidate onto a non-repair D literal must also map
       every repair attached to it, and likewise for the always-mapped
       head. Without these clauses the CEGAR loop excludes
       connectivity-violating models one blocking clause at a time, which
       enumerates forever on repair-heavy targets; the model check below
       stays as a backstop. *)
    if repair_connectivity then begin
      let onto : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (j, sels) ->
          Array.iteri
            (fun k cnd ->
              if cnd.d_id >= 0 then
                match Hashtbl.find_opt onto cnd.d_id with
                | Some l -> l := sels.(k) :: !l
                | None -> Hashtbl.add onto cnd.d_id (ref [ sels.(k) ]))
            lits.(j).cands)
        gens;
      let emit prefix r =
        let onto_r =
          match Hashtbl.find_opt onto r with
          | Some l -> List.rev_map Sat_core.pos !l
          | None -> []
        in
        Sat_core.add_clause solver (prefix @ onto_r)
      in
      IntSet.iter (emit []) target.attached_repairs.(0);
      List.iter
        (fun (j, sels) ->
          Array.iteri
            (fun k cnd ->
              if cnd.d_id >= 0 then
                IntSet.iter
                  (emit [ Sat_core.neg sels.(k) ])
                  target.attached_repairs.(cnd.d_id))
            lits.(j).cands)
        gens
    end;
    let last_conflicts = ref 0 in
    let rec cegar () =
      spend 1;
      match Sat_core.solve ~conflict_limit:(max 1 !budget) solver with
      | `Limit -> raise Exhausted
      | (`Unsat | `Sat) as r -> (
          let conflicts = (Sat_core.stats solver).conflicts in
          spend (conflicts - !last_conflicts);
          last_conflicts := conflicts;
          match r with
          | `Unsat -> Not_subsumed
          | `Sat ->
              (* θ from the model: the head seeds plus the selected
                 candidates' bindings — binding variables are auxiliary
                 and never enter the witness *)
              let binding = Array.copy p.seeds in
              let selected =
                List.map
                  (fun (j, sels) ->
                    let k = ref (-1) in
                    Array.iteri
                      (fun i s ->
                        if !k < 0 && Sat_core.value solver s then k := i)
                      sels;
                    assert (!k >= 0);
                    let cnd = lits.(j).cands.(!k) in
                    Array.iter (fun (v, t) -> binding.(v) <- t) cnd.binds;
                    (j, sels.(!k), cnd.d_id))
                  gens
              in
              let theta = current_subst p binding in
              (* A lemma "θ does not bind both sides as this model does":
                 fixed sides contribute nothing, a model-bound side its
                 binding variable; an unbound side admits no sound lemma. *)
              let lemma prefix x y =
                let side = function
                  | Term.Const _ -> Some []
                  | Term.Var v ->
                      let iv = Hashtbl.find p.var_ids v in
                      if p.seeds.(iv) >= 0 then Some []
                      else if binding.(iv) >= 0 then
                        Some [ Sat_core.neg (bvar enc iv binding.(iv)) ]
                      else None
                in
                match (side x, side y) with
                | Some lx, Some ly ->
                    Sat_core.add_clause solver (prefix @ lx @ ly)
                | _ -> ()
              in
              let ok = ref true in
              (* deferred environment similarity branches *)
              List.iter
                (fun (j, sel, d_id) ->
                  if
                    d_id < 0
                    && eval_deferred target p.var_ids binding lits.(j).lit
                       <> `Sat
                  then begin
                    ok := false;
                    match lits.(j).lit with
                    | Literal.Sim (x, y) -> lemma [ Sat_core.neg sel ] x y
                    | _ -> ()
                  end)
                selected;
              (* Eq/Neq residue, exactly the kernel's resolution; the
                 individually refutable checks become lemmas *)
              if checks <> [] && not (resolve_checks target theta checks)
              then begin
                ok := false;
                List.iter
                  (fun l ->
                    match l with
                    | (Literal.Eq (x, y) | Literal.Neq (x, y))
                      when eval_check target p.var_ids binding l = `Unsat ->
                        lemma [] x y
                    | _ -> ())
                  checks
              end;
              let image =
                List.fold_left
                  (fun s (_, _, d_id) ->
                    if d_id >= 0 then IntSet.add d_id s else s)
                  IntSet.empty selected
              in
              if
                repair_connectivity
                && not (check_repair_connectivity target image)
              then ok := false;
              if !ok then Subsumed theta
              else begin
                (* block this exact selection — guarantees CEGAR progress
                   even when no reusable lemma applied *)
                Sat_core.add_clause solver
                  (List.map (fun (_, sel, _) -> Sat_core.neg sel) selected);
                cegar ()
              end)
    in
    let outcome = cegar () in
    let s = Sat_core.stats solver in
    Obs.add Sat_stats.solves s.solves;
    Obs.add Sat_stats.propagations s.propagations;
    Obs.add Sat_stats.conflicts s.conflicts;
    Obs.add Sat_stats.learned s.learned;
    Obs.add Sat_stats.restarts s.restarts;
    Obs.add Sat_stats.solve_ns (Obs.now_ns () - t_solve);
    outcome
  with Exhausted -> Budget_exhausted

(* ------------------------------------------------------------------ *)

let subsumes_target ?(budget = 200_000) ?(repair_connectivity = true)
    (c : Clause.t) (target : target) =
  let t0 = Obs.now_ns () in
  let setup_end = ref t0 in
  let tally = { nodes = 0; props = 0; wipes = 0 } in
  let budget = ref budget in
  let spend n =
    budget := !budget - n;
    if !budget < 0 then raise Exhausted
  in
  let record outcome =
    let t2 = Obs.now_ns () in
    Obs.incr Stats.solves;
    Obs.add Stats.nodes tally.nodes;
    Obs.add Stats.propagations tally.props;
    Obs.add Stats.wipeouts tally.wipes;
    Obs.add Stats.setup_ns (!setup_end - t0);
    Obs.add Stats.search_ns (t2 - !setup_end);
    (* Per-solve spans would be too hot for the histogram path, but while
       a trace is being recorded the solve's existing clock is worth an
       event; solves are the leaves every other span decomposes into. *)
    if Obs.recording () then
      Obs.emit_event
        ~args:[ ("nodes", string_of_int tally.nodes) ]
        ~name:"subsumption.solve" ~start_ns:t0 ~dur_ns:(t2 - t0) ();
    Log.debug (fun m ->
        m "csp solve: %d nodes, %d propagations, %d wipeouts, %.1fus setup, %.1fus search"
          tally.nodes tally.props tally.wipes
          (float_of_int (!setup_end - t0) /. 1e3)
          (float_of_int (t2 - !setup_end) /. 1e3));
    outcome
  in
  match
    let compiled = compile ~spend c target in
    setup_end := Obs.now_ns ();
    match compiled with
    | None -> Not_subsumed
    | Some p -> (
        match search ~spend tally p with
        | None -> Not_subsumed
        | Some (_, image)
          when repair_connectivity && not (check_repair_connectivity target image)
          ->
            (* The first witness's image is rejected; completeness needs
               a search that backtracks *through* the connectivity
               condition. Delegated to the SAT rescue: its connectivity
               clauses decide these instances orders of magnitude faster
               than the exhaustive re-search of [search_exhaustive]. *)
            rescue ~budget:(max 1 !budget) ~repair_connectivity:true p
        | Some (binding, _) -> Subsumed (current_subst p binding))
  with
  | outcome -> record outcome
  | exception Exhausted ->
      if !setup_end = t0 then setup_end := Obs.now_ns ();
      record Budget_exhausted

let subsumes_target_sat ?(budget = 200_000) ?(repair_connectivity = true)
    (c : Clause.t) (target : target) =
  match compile ~spend:ignore c target with
  | None -> Not_subsumed
  | Some p -> rescue ~budget ~repair_connectivity p


let subsumes ?budget ?repair_connectivity c d =
  subsumes_target ?budget ?repair_connectivity c (prepare d)

(* Test oracle: chronological backtracking in body order. *)
let subsumes_naive ?(budget = 200_000) ?(repair_connectivity = true)
    (c : Clause.t) (d : Clause.t) =
  let target = prepare d in
  let budget = ref budget in
  let head_theta =
    match c.head, target.d_literals.(0) with
    | Literal.Rel { pred = p1; args = a1 }, Literal.Rel { pred = p2; args = a2 }
      when String.equal p1 p2 ->
        unify_args target.env Substitution.empty a1 a2
    | _ -> None
  in
  match head_theta with
  | None -> Not_subsumed
  | Some theta0 -> (
      try
        match search_exhaustive target budget ~repair_connectivity c theta0 with
        | Some theta -> Subsumed theta
        | None -> Not_subsumed
      with Exhausted -> Budget_exhausted)

(* The boolean entry points answer "not covered" for an exhausted
   budget: count every such verdict so a run can report them. *)
let report_exhausted c =
  Obs.incr Stats.exhausted;
  Log.warn (fun m ->
      m "subsumption budget exhausted for %s-clause" (Clause.head_pred c))

let subsumes_target_bool ?budget ?repair_connectivity c t =
  match subsumes_target ?budget ?repair_connectivity c t with
  | Subsumed _ -> true
  | Not_subsumed -> false
  | Budget_exhausted ->
      report_exhausted c;
      false

let subsumes_bool ?budget ?repair_connectivity c d =
  match subsumes ?budget ?repair_connectivity c d with
  | Subsumed _ -> true
  | Not_subsumed -> false
  | Budget_exhausted ->
      report_exhausted c;
      false

let equivalent ?budget c d =
  subsumes_bool ?budget c d && subsumes_bool ?budget d c

module Armg = struct
  let head_unify target head =
    match head, target.d_literals.(0) with
    | Literal.Rel { pred = p1; args = a1 }, Literal.Rel { pred = p2; args = a2 }
      when String.equal p1 p2 ->
        unify_args target.env Substitution.empty a1 a2
    | _ -> None

  let extend target theta = function
    | (Literal.Rel _ | Literal.Repair _ | Literal.Sim _) as l ->
        let budget = ref max_int in
        List.map fst (candidates target budget theta l)
    | Literal.Eq _ | Literal.Neq _ ->
        invalid_arg "Subsumption.Armg.extend: restriction literal"

  let check target theta = function
    | Literal.Eq (x, y) -> (
        match
          (Substitution.apply_term theta x, Substitution.apply_term theta y)
        with
        | (Term.Var _, _ | _, Term.Var _) -> `Unknown
        | tx, ty -> if Clause_env.eq target.env tx ty then `Sat else `Unsat)
    | Literal.Neq (x, y) -> (
        match
          (Substitution.apply_term theta x, Substitution.apply_term theta y)
        with
        | (Term.Var _, _ | _, Term.Var _) -> `Unknown
        | tx, ty -> if Clause_env.neq target.env tx ty then `Sat else `Unsat)
    | Literal.Rel _ | Literal.Sim _ | Literal.Repair _ ->
        invalid_arg "Subsumption.Armg.check: generative literal"
end
