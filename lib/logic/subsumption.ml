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

(* The SAT rescue lives in {!Sat_subsumption}, which depends only on
   the term/clause layer; it sees the prepared target through this view
   — the raw index fields plus closures over the private finish logic,
   so both searches share [resolve_checks] and the connectivity sets.
   Defined here, before the CSP kernel, because the kernel delegates its
   completeness fallback to it (see [subsumes_target]). *)
let sat_view (t : target) : Sat_subsumption.view =
  {
    Sat_subsumption.d_literals = t.d_literals;
    rel_ids =
      (fun p -> Option.value ~default:[] (Hashtbl.find_opt t.rels_by_pred p));
    repair_ids =
      (fun o ->
        Option.value ~default:[] (Hashtbl.find_opt t.repairs_by_origin o));
    sim_ids = t.sim_ids;
    env = t.env;
    term_tab = t.term_tab;
    key_tids = t.key_tids;
    connectivity_ok =
      (fun ids ->
        check_repair_connectivity t
          (List.fold_left (fun s i -> IntSet.add i s) IntSet.empty ids));
    attached_repairs = (fun id -> IntSet.elements t.attached_repairs.(id));
    resolve_residue = (fun theta checks -> resolve_checks t theta checks);
  }

let subsumes_target_sat ?budget ?repair_connectivity (c : Clause.t)
    (target : target) =
  match Sat_subsumption.subsumes ?budget ?repair_connectivity (sat_view target) c with
  | `Subsumed theta -> Subsumed theta
  | `Not_subsumed -> Not_subsumed
  | `Budget_exhausted -> Budget_exhausted

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

type stats = {
  solves : int;
  nodes : int;
  propagations : int;
  wipeouts : int;
  setup_seconds : float;
  search_seconds : float;
}

let stats () =
  {
    solves = Obs.value Stats.solves;
    nodes = Obs.value Stats.nodes;
    propagations = Obs.value Stats.propagations;
    wipeouts = Obs.value Stats.wipeouts;
    setup_seconds = float_of_int (Obs.value Stats.setup_ns) /. 1e9;
    search_seconds = float_of_int (Obs.value Stats.search_ns) /. 1e9;
  }

let log_stats () =
  let s = stats () in
  Log.info (fun m ->
      m
        "csp kernel: %d solves, %d nodes, %d propagations, %d domain \
         wipeouts, %.3fs setup, %.3fs search"
        s.solves s.nodes s.propagations s.wipeouts s.setup_seconds
        s.search_seconds)

(* ------------------------------------------------------------------ *)
(* CSP kernel: per-(C, target) setup interns C's variables and D's terms
   to dense ints and precomputes each generative literal's candidate
   table; the search runs over a mutable binding array with an undo
   trail, forward-checks the candidate domains of connected literals on
   every assignment and selects by minimum remaining domain. Components
   of the shared-unbound-variable graph are computed once per solve and
   solved independently.                                                 *)

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
  alive : bool array;
  mutable alive_n : int;
  lvars : int array; (* ids of this literal's setup-unbound variables *)
  env_k : int; (* index of the environment pseudo-candidate, or -1 *)
}

exception Reject
exception Dead

let subsumes_target ?(budget = 200_000) ?(repair_connectivity = true)
    (c : Clause.t) (target : target) =
  let t0 = Obs.now_ns () in
  let nodes = ref 0 and props = ref 0 and wipes = ref 0 in
  let nbinds = ref 0 in
  let setup_end = ref t0 in
  let budget = ref budget in
  let spend n =
    budget := !budget - n;
    if !budget < 0 then raise Exhausted
  in
  (* --- interning --- *)
  let cvar_names = Array.of_list (Clause.vars c) in
  let nvars = Array.length cvar_names in
  let var_ids = Hashtbl.create (max 16 (2 * nvars)) in
  Array.iteri (fun i v -> Hashtbl.add var_ids v i) cvar_names;
  let vid v = Hashtbl.find var_ids v in
  let term_tab = target.term_tab in
  let binding = Array.make (max nvars 1) (-1) in
  let resolve_term = function
    | Term.Const _ as t -> Some t
    | Term.Var v ->
        let i = vid v in
        if binding.(i) >= 0 then Some term_tab.(binding.(i)) else None
  in
  let current_subst () =
    let th = ref Substitution.empty in
    for i = 0 to nvars - 1 do
      if binding.(i) >= 0 then
        th := Substitution.add !th cvar_names.(i) term_tab.(binding.(i))
    done;
    !th
  in
  (* --- head unification seeds the binding array --- *)
  let head_ok =
    match (c.head, target.d_literals.(0)) with
    | ( Literal.Rel { pred = p1; args = a1 },
        Literal.Rel { pred = p2; args = a2 } )
      when String.equal p1 p2 && Array.length a1 = Array.length a2 -> (
        let dk = target.key_tids.(0) in
        try
          Array.iteri
            (fun i ct ->
              match ct with
              | Term.Const _ ->
                  if not (Clause_env.eq target.env ct a2.(i)) then raise Reject
              | Term.Var v ->
                  let iv = vid v in
                  let t = dk.(i) in
                  if binding.(iv) < 0 then binding.(iv) <- t
                  else if binding.(iv) <> t then raise Reject)
            a1;
          true
        with Reject -> false)
    | _ -> false
  in
  let record outcome =
    let t2 = Obs.now_ns () in
    Obs.incr Stats.solves;
    Obs.add Stats.nodes !nodes;
    Obs.add Stats.propagations !props;
    Obs.add Stats.wipeouts !wipes;
    Obs.add Stats.setup_ns (!setup_end - t0);
    Obs.add Stats.search_ns (t2 - !setup_end);
    (* Per-solve spans would be too hot for the histogram path, but while
       a trace is being recorded the solve's existing clock is worth an
       event; solves are the leaves every other span decomposes into. *)
    if Obs.recording () then
      Obs.emit_event
        ~args:[ ("nodes", string_of_int !nodes) ]
        ~name:"subsumption.solve" ~start_ns:t0 ~dur_ns:(t2 - t0) ();
    Log.debug (fun m ->
        m "csp solve: %d nodes, %d propagations, %d wipeouts, %.1fus setup, %.1fus search"
          !nodes !props !wipes
          (float_of_int (!setup_end - t0) /. 1e3)
          (float_of_int (t2 - !setup_end) /. 1e3));
    outcome
  in
  if not head_ok then begin
    setup_end := Obs.now_ns ();
    record Not_subsumed
  end
  else begin
    try
      (* --- candidate tables --- *)
      let gens, checks = List.partition (fun l -> not (is_check l)) c.body in
      let gen_arr = Array.of_list gens in
      let ng = Array.length gen_arr in
      (* C-side arguments pre-resolved once per literal: a constant keeps
         its term (compared through the env closure), a variable becomes
         its dense id. Candidates then match descriptor against the
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
            if binding.(iv) >= 0 then begin
              if binding.(iv) <> dt_id then raise Reject
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
      let build_cands (l : Literal.t) : cand list =
        match l with
        | Literal.Rel { pred; args } ->
            let ids =
              Option.value ~default:[]
                (Hashtbl.find_opt target.rels_by_pred pred)
            in
            spend (List.length ids);
            let ds = Array.map descr args in
            let nargs = Array.length ds in
            List.filter_map
              (fun id ->
                let dk = target.key_tids.(id) in
                if Array.length dk <> nargs then None
                else
                  try
                    let acc = ref [] in
                    for i = 0 to nargs - 1 do
                      unify_descr acc ds.(i) dk.(i)
                    done;
                    Some { d_id = id; binds = Array.of_list (List.rev !acc) }
                  with Reject -> None)
              ids
        | Literal.Repair r ->
            let key = Literal.origin_to_string r.origin in
            let ids =
              Option.value ~default:[]
                (Hashtbl.find_opt target.repairs_by_origin key)
            in
            spend (List.length ids);
            let ds = descr r.subject and dr = descr r.replacement in
            List.filter_map
              (fun id ->
                let dk = target.key_tids.(id) in
                try
                  let acc = ref [] in
                  unify_descr acc ds dk.(0);
                  unify_descr acc dr dk.(1);
                  Some { d_id = id; binds = Array.of_list (List.rev !acc) }
                with Reject -> None)
              ids
        | Literal.Sim (x, y) ->
            spend (List.length target.sim_ids);
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
               does — its empty image also biases the first witness
               toward passing the connectivity check, sparing the strict
               re-search. Undecidable: it becomes a
               *deferred* branch, validated by forward checking as its
               sides bind and at the end of the component; it goes last
               so the constraining D-literal candidates (which bind the
               unbound side) are explored first — [candidates] offers
               no environment branch at all for an unresolved
               similarity at its decision point. *)
            let env_cand = { d_id = -1; binds = [||] } in
            (match (resolve_term x, resolve_term y) with
            | Some rx, _ when Term.is_var rx -> via_literals
            | _, Some ry when Term.is_var ry -> via_literals
            | Some rx, Some ry ->
                if Clause_env.sim target.env rx ry then env_cand :: via_literals
                else via_literals
            | _ -> via_literals @ [ env_cand ])
        | Literal.Eq _ | Literal.Neq _ -> assert false
      in
      let lits = Array.make ng None in
      let empty_domain = ref false in
      let gi = ref 0 in
      while (not !empty_domain) && !gi < ng do
        let l = gen_arr.(!gi) in
        let cands = Array.of_list (build_cands l) in
        if Array.length cands = 0 then empty_domain := true
        else begin
          let lvars =
            List.filter_map
              (fun v ->
                let iv = vid v in
                if binding.(iv) < 0 then Some iv else None)
              (Literal.vars l)
          in
          let env_k = ref (-1) in
          Array.iteri (fun k cnd -> if cnd.d_id < 0 then env_k := k) cands;
          lits.(!gi) <-
            Some
              {
                lit = l;
                cands;
                alive = Array.make (Array.length cands) true;
                alive_n = Array.length cands;
                lvars = Array.of_list lvars;
                env_k = !env_k;
              };
          incr gi
        end
      done;
      if !empty_domain then begin
        setup_end := Obs.now_ns ();
        record Not_subsumed
      end
      else begin
        let lits = Array.map Option.get lits in
        (* --- checks: decide the ground ones now, watch the rest ---
           An image that is itself a variable of D stays [`Unknown]: the
           naive search likewise leaves those to the union-find
           resolution of [resolve_checks]. *)
        let eval_check l =
          match l with
          | Literal.Eq (x, y) -> (
              match (resolve_term x, resolve_term y) with
              | Some tx, Some ty
                when not (Term.is_var tx || Term.is_var ty) ->
                  if Clause_env.eq target.env tx ty then `Sat else `Unsat
              | _ -> `Unknown)
          | Literal.Neq (x, y) -> (
              match (resolve_term x, resolve_term y) with
              | Some tx, Some ty
                when not (Term.is_var tx || Term.is_var ty) ->
                  if Clause_env.neq target.env tx ty then `Sat else `Unsat
              | _ -> `Unknown)
          | _ -> `Unknown
        in
        let failed_check = ref false in
        let pending_checks =
          List.filter
            (fun l ->
              match eval_check l with
              | `Sat -> false
              | `Unsat ->
                  failed_check := true;
                  false
              | `Unknown -> true)
            checks
        in
        if !failed_check then begin
          setup_end := Obs.now_ns ();
          record Not_subsumed
        end
        else begin
          let chk_arr = Array.of_list pending_checks in
          let nchk = Array.length chk_arr in
          let chk_state = Array.make (max nchk 1) 0 in
          let chk_vars =
            Array.map
              (fun l ->
                List.filter_map
                  (fun v ->
                    let iv = vid v in
                    if binding.(iv) < 0 then Some iv else None)
                  (Literal.vars l)
                |> Array.of_list)
              chk_arr
          in
          (* --- var -> literal adjacency --- *)
          let gen_watch = Array.make (max nvars 1) [] in
          let chk_watch = Array.make (max nvars 1) [] in
          Array.iteri
            (fun j cl ->
              Array.iter (fun v -> gen_watch.(v) <- j :: gen_watch.(v)) cl.lvars)
            lits;
          Array.iteri
            (fun ci vs ->
              Array.iter (fun v -> chk_watch.(v) <- ci :: chk_watch.(v)) vs)
            chk_vars;
          Array.iteri (fun v l -> gen_watch.(v) <- List.rev l) gen_watch;
          Array.iteri (fun v l -> chk_watch.(v) <- List.rev l) chk_watch;
          (* --- initial connected-components split on the int adjacency
             (the search re-splits dynamically as bindings land) --- *)
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
          let comps =
            Hashtbl.fold (fun _ c acc -> c :: acc) comp_tbl []
            |> List.sort
                 (fun (g1, c1) (g2, c2) ->
                   match
                     Int.compare
                       (List.length g1 + List.length c1)
                       (List.length g2 + List.length c2)
                   with
                   | 0 ->
                       Int.compare
                         (match (g1, c1) with
                         | g :: _, _ -> g
                         | [], ch :: _ -> ng + ch
                         | [], [] -> 0)
                         (match (g2, c2) with
                         | g :: _, _ -> g
                         | [], ch :: _ -> ng + ch
                         | [], [] -> 0)
                   | c -> c)
          in
          setup_end := Obs.now_ns ();
          (* --- search --- *)
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
                  let cl = lits.(!tr_a.(i)) in
                  cl.alive.(!tr_b.(i)) <- true;
                  cl.alive_n <- cl.alive_n + 1
              | 2 -> chk_state.(!tr_a.(i)) <- 0
              | _ -> assigned.(!tr_a.(i)) <- -1
            done
          in
          let kill j k =
            let cl = lits.(j) in
            cl.alive.(k) <- false;
            cl.alive_n <- cl.alive_n - 1;
            incr props;
            push 1 j k;
            if cl.alive_n = 0 then begin
              incr wipes;
              raise Dead
            end
          in
          (* Forward checking: prune the candidate domains of unassigned
             literals watching [v], and evaluate the checks that just
             became ground. *)
          (* The environment branch of a similarity literal is decidable
             only once both sides resolve; until then an assignment to it
             is deferred. [`Unsat] fails the branch, [`Sat]/[`Unknown]
             leave it pending (an [`Unknown] leftover is rejected at the
             end of the component). *)
          let eval_deferred j =
            match lits.(j).lit with
            | Literal.Sim (x, y) -> (
                match (resolve_term x, resolve_term y) with
                | Some rx, _ when Term.is_var rx -> `Unsat
                | _, Some ry when Term.is_var ry -> `Unsat
                | Some rx, Some ry ->
                    if Clause_env.sim target.env rx ry then `Sat else `Unsat
                | _ -> `Unknown)
            | _ -> `Unsat
          in
          let propagate v =
            let t = binding.(v) in
            List.iter
              (fun j ->
                if assigned.(j) >= 0 then begin
                  if
                    lits.(j).cands.(assigned.(j)).d_id < 0
                    && eval_deferred j = `Unsat
                  then raise Dead
                end
                else begin
                  let cl = lits.(j) in
                  for k = 0 to Array.length cl.cands - 1 do
                    if cl.alive.(k) then begin
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
              gen_watch.(v);
            List.iter
              (fun ci ->
                if chk_state.(ci) = 0 then
                  match eval_check chk_arr.(ci) with
                  | `Unsat -> raise Dead
                  | `Sat ->
                      chk_state.(ci) <- 1;
                      push 2 ci 0
                  | `Unknown -> ())
              chk_watch.(v)
          in
          let apply_cand j (cnd : cand) =
            if cnd.d_id < 0 then begin
              (* environment branch: decide it now if both sides are
                 bound, otherwise leave it deferred *)
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
             Similarity literals compete with the atoms: in a bottom
             clause they are the joins crossing sources, and selecting
             one as soon as forward checking has shrunk its table binds
             the far side — the alternative (all atoms first) enumerates
             the unconstrained side as a cross product. *)
          let select cgens =
            let best = ref (-1) and best_n = ref max_int in
            List.iter
              (fun j ->
                if assigned.(j) < 0 && lits.(j).alive_n < !best_n then begin
                  best := j;
                  best_n := lits.(j).alive_n
                end)
              cgens;
            !best
          in
          (* --- dynamic component decomposition ---
             Re-split the remaining work by shared *unbound* variables
             after every assignment: once the atoms ground the join
             variables, the similarity and repair web falls apart into
             small independent fragments, and a failure in one fragment
             can never be repaired by backtracking into another. Items
             are the unassigned generative literals, the still-pending
             checks, and the environment-deferred similarities awaiting
             resolution of an unbound side. *)
          let var_item = Array.make (max nvars 1) (-1) in
          let var_stamp = Array.make (max nvars 1) 0 in
          let stamp = ref 0 in
          let sp_cap = max (2 * ng + nchk) 1 in
          let sp_item = Array.make sp_cap 0 in
          let sp_parent = Array.make sp_cap 0 in
          (* Items are coded into one int space — gen j as [j], check ci
             as [ng + ci], deferred sim j as [ng + nchk + j] — and the
             union-find runs over preallocated scratch. Decided checks
             and fully-resolved deferrals carry no unbound variable and
             are dropped here; [finish] re-derives their verdicts.
             Returns [None] when everything still hangs together as one
             component, so the caller reuses its lists unchanged. *)
          let split cgens cchecks cdefers =
            let n = ref 0 in
            let add code =
              sp_item.(!n) <- code;
              incr n
            in
            List.iter add cgens;
            List.iter
              (fun ci -> if chk_state.(ci) = 0 then add (ng + ci))
              cchecks;
            List.iter
              (fun j ->
                if Array.exists (fun v -> binding.(v) < 0) lits.(j).lvars
                then add (ng + nchk + j))
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
              else if code < ng + nchk then chk_vars.(code - ng)
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
                       match
                         Int.compare (len (g1, c1, d1)) (len (g2, c2, d2))
                       with
                       | 0 ->
                           Int.compare
                             (first (g1, c1, d1))
                             (first (g2, c2, d2))
                       | c -> c))
            end
          in
          let finish cchecks cdefers =
            (* Nothing left that can bind a variable: any environment
               branch still deferred is unsatisfiable — sides left
               unresolved here can only be bound by resolve_checks'
               fresh constants, which never satisfy a similarity —
               matching the naive search's semantics. *)
            List.for_all (fun j -> eval_deferred j = `Sat) cdefers
            &&
            let pending =
              List.filter_map
                (fun ci ->
                  if chk_state.(ci) = 0 then Some chk_arr.(ci) else None)
                cchecks
            in
            pending = [] || resolve_checks target (current_subst ()) pending
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
                  incr nodes;
                  spend 1;
                  let mark = !tr_len in
                  (* the assignment itself is trailed: sibling
                     components solved between this node and a later
                     failure leave their literals assigned, and the
                     undo must roll those back too *)
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
                    if
                      cl.cands.(k).d_id < 0
                      && eval_deferred j = `Unknown
                    then j :: cdefers
                    else cdefers
                  in
                  let ok =
                    ok
                    &&
                    (* a candidate that bound nothing cannot have
                       changed the component structure (a deferral
                       keeps this literal's linkage alive), so skip
                       the re-split *)
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
                  else if k = skip || not cl.alive.(k) then
                    try_from (k + 1) skip
                  else if attempt k then true
                  else try_from (k + 1) skip
                in
                (* Dynamic candidate order for the deferred environment
                   branch: the naive search computes candidates at
                   selection time, where a similarity whose sides are
                   already bound takes the environment branch first (or
                   rules it out). Mirror that here — the static table
                   was built before any binding existed. *)
                if cl.env_k < 0 || not cl.alive.(cl.env_k) then
                  try_from 0 (-1)
                else begin
                  match eval_deferred j with
                  | `Sat -> attempt cl.env_k || try_from 0 cl.env_k
                  | `Unsat -> try_from 0 cl.env_k
                  | `Unknown -> try_from 0 (-1)
                end
          in
          let solved =
            List.for_all
              (fun (cgens, cchecks) -> solve cgens cchecks [])
              comps
          in
          if not solved then record Not_subsumed
          else begin
            let image = ref IntSet.empty in
            Array.iteri
              (fun j k ->
                if k >= 0 then begin
                  let id = lits.(j).cands.(k).d_id in
                  if id >= 0 then image := IntSet.add id !image
                end)
              assigned;
            if
              repair_connectivity
              && not (check_repair_connectivity target !image)
            then
              (* The first witness's image is rejected; completeness
                 needs a search that backtracks *through* the
                 connectivity condition. Delegated to the SAT rescue:
                 its connectivity clauses decide these instances orders
                 of magnitude faster than the exhaustive re-search of
                 [search_exhaustive]. *)
              record
                (subsumes_target_sat ~budget:(max 1 !budget)
                   ~repair_connectivity:true c target)
            else record (Subsumed (current_subst ()))
          end
        end
      end
    with Exhausted ->
      if !setup_end = t0 then setup_end := Obs.now_ns ();
      record Budget_exhausted
  end

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
