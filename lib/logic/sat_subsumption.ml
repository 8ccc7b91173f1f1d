module Obs = Dlearn_obs.Obs

(* Obs counters under sat.* — hoisted handles, bumped with per-call
   deltas of the solver's own counters. *)
module Stats = struct
  let solves = Obs.counter "sat.solves"
  let propagations = Obs.counter "sat.propagations"
  let conflicts = Obs.counter "sat.conflicts"
  let learned = Obs.counter "sat.learned_clauses"
  let restarts = Obs.counter "sat.restarts"
  let encode_ns = Obs.counter "sat.encode_ns"
  let solve_ns = Obs.counter "sat.solve_ns"
end

type stats = {
  solves : int;
  propagations : int;
  conflicts : int;
  learned : int;
  restarts : int;
  encode_seconds : float;
  solve_seconds : float;
}

let stats () =
  {
    solves = Obs.value Stats.solves;
    propagations = Obs.value Stats.propagations;
    conflicts = Obs.value Stats.conflicts;
    learned = Obs.value Stats.learned;
    restarts = Obs.value Stats.restarts;
    encode_seconds = float_of_int (Obs.value Stats.encode_ns) /. 1e9;
    solve_seconds = float_of_int (Obs.value Stats.solve_ns) /. 1e9;
  }

(* One registered body literal: what the model checker needs to
   interpret a solution. *)
type entry =
  | Gen of {
      sels : int array; (* selector vars, candidate order *)
      cand_d : int array; (* parallel: D literal id, -1 = env branch *)
      cand_binds : (string * int) array array; (* (var, term id) per cand *)
      sim : (Term.t * Term.t) option; (* Sim args, for deferred env eval *)
    }
  | Check_pending (* resolved by the residue check on models *)
  | Check_done (* ground-decided at registration *)

(* One call's encoding: a fresh solver, dropped when the call returns. *)
type state = {
  solver : Sat_core.t;
  bvars : (string * int, int) Hashtbl.t; (* (C var, D term id) -> sat var *)
  var_terms : (string, int list ref) Hashtbl.t; (* known domain per var *)
}

type view = {
  d_literals : Literal.t array;
  rel_ids : string -> int list;
  repair_ids : string -> int list;
  sim_ids : int list;
  env : Clause_env.t;
  term_tab : Term.t array;
  key_tids : int array array;
  connectivity_ok : int list -> bool;
  attached_repairs : int -> int list;
  resolve_residue : Substitution.t -> Literal.t list -> bool;
}

exception Exhausted
exception Head_mismatch

(* Head unification seeds the fixed (var -> term id) bindings, exactly
   as the CSP kernel does: repeated variables need the same interned
   id, constants compare through the env's equality closure. *)
let head_binding view (c : Clause.t) =
  match (c.head, view.d_literals.(0)) with
  | Literal.Rel { pred = p1; args = a1 }, Literal.Rel { pred = p2; args = a2 }
    when String.equal p1 p2 && Array.length a1 = Array.length a2 ->
      let dk = view.key_tids.(0) in
      let tbl = Hashtbl.create 8 in
      (try
         Array.iteri
           (fun i ct ->
             match ct with
             | Term.Const _ ->
                 if not (Clause_env.eq view.env ct a2.(i)) then
                   raise Head_mismatch
             | Term.Var v -> (
                 match Hashtbl.find_opt tbl v with
                 | None -> Hashtbl.add tbl v dk.(i)
                 | Some t -> if t <> dk.(i) then raise Head_mismatch))
           a1;
         Some tbl
       with Head_mismatch -> None)
  | _ -> None

(* Binding variable for (v, t), created on demand. Creation appends the
   at-most-one-term clauses against the variable's known domain ("θ is
   a function"). *)
let bvar st (v : string) (t : int) =
  match Hashtbl.find_opt st.bvars (v, t) with
  | Some x -> x
  | None ->
      let x = Sat_core.new_var st.solver in
      Hashtbl.add st.bvars (v, t) x;
      let dom =
        match Hashtbl.find_opt st.var_terms v with
        | Some d -> d
        | None ->
            let d = ref [] in
            Hashtbl.add st.var_terms v d;
            d
      in
      List.iter
        (fun t' ->
          let x' = Hashtbl.find st.bvars (v, t') in
          Sat_core.add_clause st.solver [ Sat_core.neg x; Sat_core.neg x' ])
        !dom;
      dom := t :: !dom;
      x

(* At-most-one over selector vars: pairwise when small, a sequential
   (Sinz) ladder otherwise. Pure definitional clauses — unconditional. *)
let at_most_one st sels =
  let n = Array.length sels in
  if n <= 1 then ()
  else if n <= 8 then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Sat_core.add_clause st.solver
          [ Sat_core.neg sels.(i); Sat_core.neg sels.(j) ]
      done
    done
  else begin
    let z = Array.init (n - 1) (fun _ -> Sat_core.new_var st.solver) in
    for i = 0 to n - 2 do
      Sat_core.add_clause st.solver
        [ Sat_core.neg sels.(i); Sat_core.pos z.(i) ];
      if i > 0 then begin
        Sat_core.add_clause st.solver
          [ Sat_core.neg z.(i - 1); Sat_core.pos z.(i) ];
        Sat_core.add_clause st.solver
          [ Sat_core.neg z.(i - 1); Sat_core.neg sels.(i) ]
      end
    done;
    Sat_core.add_clause st.solver
      [ Sat_core.neg z.(n - 2); Sat_core.neg sels.(n - 1) ]
  end

(* Argument descriptors, mirroring the CSP kernel's [descr]: a constant
   compares through the env closure, a head-bound variable through its
   fixed interned id, a free variable accumulates a binding. *)
type descr = DC of Term.t | DT of int | DV of string

let descr head_tbl = function
  | Term.Const _ as t -> DC t
  | Term.Var v -> (
      match Hashtbl.find_opt head_tbl v with
      | Some t -> DT t
      | None -> DV v)

exception Reject

let unify_descr env term_tab acc d dt_id =
  match d with
  | DC ct -> if not (Clause_env.eq env ct term_tab.(dt_id)) then raise Reject
  | DT t -> if t <> dt_id then raise Reject
  | DV v ->
      let rec chk = function
        | [] -> acc := (v, dt_id) :: !acc
        | (v', t') :: rest ->
            if String.equal v' v then begin
              if t' <> dt_id then raise Reject
            end
            else chk rest
      in
      chk !acc

(* Resolve a C term under the head bindings only (registration-time
   resolution): None = free variable. *)
let resolve_setup view head_tbl = function
  | Term.Const _ as t -> Some t
  | Term.Var v ->
      Option.map (fun t -> view.term_tab.(t)) (Hashtbl.find_opt head_tbl v)

(* Build one literal's candidate list, mirroring the CSP kernel's
   [build_cands] against the head-seeded bindings. Returns the
   candidates as (d_id, binds) — d_id = -1 is the environment
   pseudo-candidate — plus the Sim arguments when the environment
   branch is deferred to model checking. *)
let candidates view head_tbl spend (l : Literal.t) :
    (int * (string * int) array) list * (Term.t * Term.t) option =
  let attempt_keys ds id =
    let dk = view.key_tids.(id) in
    if Array.length dk <> Array.length ds then None
    else
      try
        let acc = ref [] in
        Array.iteri
          (fun i d -> unify_descr view.env view.term_tab acc d dk.(i))
          ds;
        Some (id, Array.of_list (List.rev !acc))
      with Reject -> None
  in
  match l with
  | Literal.Rel { pred; args } ->
      let ids = view.rel_ids pred in
      spend (List.length ids);
      let ds = Array.map (descr head_tbl) args in
      (List.filter_map (attempt_keys ds) ids, None)
  | Literal.Repair r ->
      let ids = view.repair_ids (Literal.origin_to_string r.origin) in
      spend (List.length ids);
      let ds = [| descr head_tbl r.subject; descr head_tbl r.replacement |] in
      (List.filter_map (attempt_keys ds) ids, None)
  | Literal.Sim (x, y) ->
      spend (List.length view.sim_ids);
      let dx = descr head_tbl x and dy = descr head_tbl y in
      let via_literals =
        List.concat_map
          (fun id ->
            let dk = view.key_tids.(id) in
            let attempt a b =
              try
                let acc = ref [] in
                unify_descr view.env view.term_tab acc dx a;
                unify_descr view.env view.term_tab acc dy b;
                Some (id, Array.of_list (List.rev !acc))
              with Reject -> None
            in
            List.filter_map Fun.id
              [ attempt dk.(0) dk.(1); attempt dk.(1) dk.(0) ])
          view.sim_ids
      in
      (* Environment pseudo-candidate, ordered like the CSP kernel:
         decidable at setup — first when similar, absent otherwise;
         undecidable — appended last as a deferred branch the model
         checker validates. *)
      let env_cand = (-1, [||]) in
      (match (resolve_setup view head_tbl x, resolve_setup view head_tbl y) with
      | Some rx, _ when Term.is_var rx -> (via_literals, None)
      | _, Some ry when Term.is_var ry -> (via_literals, None)
      | Some rx, Some ry ->
          if Clause_env.sim view.env rx ry then (env_cand :: via_literals, None)
          else (via_literals, None)
      | _ -> (via_literals @ [ env_cand ], Some (x, y)))
  | Literal.Eq _ | Literal.Neq _ -> assert false

(* Registration-time evaluation of a check, mirroring the CSP kernel's
   [eval_check]: only decidable when both sides resolve to non-variable
   terms; everything else is left to the residue resolution. *)
let eval_check_setup view head_tbl l =
  let r t = resolve_setup view head_tbl t in
  match l with
  | Literal.Eq (x, y) -> (
      match (r x, r y) with
      | Some tx, Some ty when not (Term.is_var tx || Term.is_var ty) ->
          if Clause_env.eq view.env tx ty then `Sat else `Unsat
      | _ -> `Unknown)
  | Literal.Neq (x, y) -> (
      match (r x, r y) with
      | Some tx, Some ty when not (Term.is_var tx || Term.is_var ty) ->
          if Clause_env.neq view.env tx ty then `Sat else `Unsat
      | _ -> `Unknown)
  | _ -> `Unknown

(* Pair clauses for a pending check over the sides' known domains: θ
   must not bind two values the check refutes. Bounded to keep the
   encoding from going quadratic on huge domains — the model checker
   covers whatever is skipped. *)
let check_pair_clauses view st head_tbl l =
  let holds a b =
    match l with
    | Literal.Eq _ -> Clause_env.eq view.env a b
    | Literal.Neq _ -> Clause_env.neq view.env a b
    | _ -> true
  in
  let x, y =
    match l with
    | Literal.Eq (x, y) | Literal.Neq (x, y) -> (x, y)
    | _ -> assert false
  in
  let side t =
    match resolve_setup view head_tbl t with
    | Some r -> `Fixed r
    | None -> (
        match t with
        | Term.Var v -> (
            match Hashtbl.find_opt st.var_terms v with
            | Some dom -> `Free (v, !dom)
            | None -> `Free (v, []))
        | Term.Const _ -> assert false)
  in
  match (side x, side y) with
  | `Fixed _, `Fixed _ -> ()
  | `Fixed tx, `Free (v, dom) | `Free (v, dom), `Fixed tx ->
      if not (Term.is_var tx) then
        List.iter
          (fun t ->
            let tv = view.term_tab.(t) in
            if (not (Term.is_var tv)) && not (holds tx tv) then
              Sat_core.add_clause st.solver [ Sat_core.neg (bvar st v t) ])
          dom
  | `Free (vx, domx), `Free (vy, domy) ->
      if List.length domx * List.length domy <= 400 then
        List.iter
          (fun tx ->
            let ttx = view.term_tab.(tx) in
            if not (Term.is_var ttx) then
              List.iter
                (fun ty ->
                  let tty = view.term_tab.(ty) in
                  if (not (Term.is_var tty)) && not (holds ttx tty) then
                    Sat_core.add_clause st.solver
                      [
                        Sat_core.neg (bvar st vx tx);
                        Sat_core.neg (bvar st vy ty);
                      ])
                domy)
          domx

(* Register a body literal into the solver: selectors, selection and
   binding clauses. A check already false at setup makes the solver
   unsat through the empty clause. *)
let register view st head_tbl spend (l : Literal.t) =
  let solver = st.solver in
  match l with
  | Literal.Eq _ | Literal.Neq _ -> (
      match eval_check_setup view head_tbl l with
      | `Sat -> Check_done
      | `Unsat ->
          Sat_core.add_clause solver [];
          Check_done
      | `Unknown ->
          check_pair_clauses view st head_tbl l;
          Check_pending)
  | _ ->
      let cands, sim = candidates view head_tbl spend l in
      let n = List.length cands in
      let sels = Array.init n (fun _ -> Sat_core.new_var solver) in
      let cand_d = Array.make n (-1) in
      let cand_binds = Array.make n [||] in
      List.iteri
        (fun k (d_id, binds) ->
          cand_d.(k) <- d_id;
          cand_binds.(k) <- binds;
          (* selecting a candidate commits its bindings *)
          Array.iter
            (fun (v, t) ->
              Sat_core.add_clause solver
                [ Sat_core.neg sels.(k); Sat_core.pos (bvar st v t) ])
            binds)
        cands;
      (* at least one candidate *)
      Sat_core.add_clause solver
        (List.map (fun s -> Sat_core.pos s) (Array.to_list sels));
      at_most_one st sels;
      Gen { sels; cand_d; cand_binds; sim }

(* Model interpretation: θ from the selected candidates of the body
   literals (plus the head seeds) — binding variables are auxiliary and
   never enter the witness, mirroring the other searches where θ
   holds exactly the search's bindings. Returns the substitution, the
   raw (var -> term id) table behind it, and the per-literal selection. *)
let extract view st head_tbl actives =
  let bind_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter (fun v t -> Hashtbl.replace bind_tbl v t) head_tbl;
  let selected =
    List.filter_map
      (fun (l, e) ->
        match e with
        | Gen g ->
            let k = ref (-1) in
            Array.iteri
              (fun i s -> if !k < 0 && Sat_core.value st.solver s then k := i)
              g.sels;
            assert (!k >= 0);
            Array.iter
              (fun (v, t) -> Hashtbl.replace bind_tbl v t)
              g.cand_binds.(!k);
            Some (l, e, !k)
        | _ -> None)
      actives
  in
  let theta =
    Hashtbl.fold
      (fun v t acc -> Substitution.add acc v view.term_tab.(t))
      bind_tbl Substitution.empty
  in
  (theta, bind_tbl, selected)

(* Deferred environment-branch evaluation on a full model, mirroring the
   CSP kernel's [eval_deferred] + [finish]: both sides must resolve to
   non-variable terms the env closure relates; an unbound side can only
   be filled by the residue resolution's fresh constants, which never
   satisfy a similarity. *)
let env_branch_ok view theta (x, y) =
  let r t =
    match t with
    | Term.Const _ -> Some t
    | Term.Var v ->
        if Substitution.mem theta v then Some (Substitution.apply_term theta t)
        else None
  in
  match (r x, r y) with
  | Some rx, Some ry when not (Term.is_var rx || Term.is_var ry) ->
      Clause_env.sim view.env rx ry
  | _ -> false

(* A check's ground value under the model, for lemma targeting: Some b
   when both sides are fixed non-variable values, None otherwise. *)
let eval_check_model view head_tbl bind_tbl l =
  let r t =
    match resolve_setup view head_tbl t with
    | Some x -> Some x
    | None -> (
        match t with
        | Term.Var v ->
            Option.map
              (fun tid -> view.term_tab.(tid))
              (Hashtbl.find_opt bind_tbl v)
        | Term.Const _ -> None)
  in
  match l with
  | Literal.Eq (x, y) -> (
      match (r x, r y) with
      | Some tx, Some ty when not (Term.is_var tx || Term.is_var ty) ->
          Some (Clause_env.eq view.env tx ty)
      | _ -> None)
  | Literal.Neq (x, y) -> (
      match (r x, r y) with
      | Some tx, Some ty when not (Term.is_var tx || Term.is_var ty) ->
          Some (Clause_env.neq view.env tx ty)
      | _ -> None)
  | _ -> None

(* The b-literals asserting "θ binds this check/sim side as the model
   does": [] for fixed sides, the binding var for free ones, None when
   the side is unbound (no sound lemma exists then). *)
let side_lits st head_tbl bind_tbl t =
  match t with
  | Term.Const _ -> Some []
  | Term.Var v ->
      if Hashtbl.mem head_tbl v then Some []
      else (
        match Hashtbl.find_opt bind_tbl v with
        | Some tid -> Some [ Sat_core.neg (bvar st v tid) ]
        | None -> None)

let subsumes ?(budget = 200_000) ?(repair_connectivity = true) (view : view)
    (c : Clause.t) =
  Obs.span "subsumption.sat" @@ fun () ->
  let t0 = Obs.now_ns () in
  let budget = ref budget in
  let spend n =
    budget := !budget - n;
    if !budget < 0 then raise Exhausted
  in
  match head_binding view c with
  | None -> `Not_subsumed
  | Some head_tbl -> (
      let solver = Sat_core.create () in
      let st =
        { solver; bvars = Hashtbl.create 64; var_terms = Hashtbl.create 16 }
      in
      try
        (* the distinct body literals in body order, each registered once *)
        let entries =
          let seen = Hashtbl.create 32 in
          List.filter_map
            (fun l ->
              if Hashtbl.mem seen l then None
              else begin
                Hashtbl.add seen l ();
                Some (l, register view st head_tbl spend l)
              end)
            c.body
        in
        (* decision order: the selectors in body order, candidate order
           within a literal, preferred phase true — the first model
           follows the reference enumeration *)
        let prio = ref [] in
        List.iter
          (fun (_, e) ->
            match e with
            | Gen g ->
                Array.iter
                  (fun s ->
                    Sat_core.set_phase solver s true;
                    prio := s :: !prio)
                  g.sels
            | _ -> ())
          entries;
        Sat_core.set_priority solver (Array.of_list (List.rev !prio));
        Obs.add Stats.encode_ns (Obs.now_ns () - t0);
        let t_solve = Obs.now_ns () in
        let pending_checks =
          List.filter_map
            (fun (l, e) -> match e with Check_pending -> Some l | _ -> None)
            entries
        in
        (* Repair connectivity (Definition 4.4), encoded up front: a
           model selecting a candidate onto a non-repair D literal must
           also map every repair attached to it, and likewise for the
           always-mapped head. Without these clauses the CEGAR loop
           excludes connectivity-violating models one blocking clause at
           a time, which enumerates forever on repair-heavy targets; the
           model check below stays as a belt-and-braces backstop. *)
        if repair_connectivity then begin
          let onto : (int, int list ref) Hashtbl.t = Hashtbl.create 16 in
          List.iter
            (fun (_, e) ->
              match e with
              | Gen g ->
                  Array.iteri
                    (fun k d_id ->
                      if d_id >= 0 then
                        match Hashtbl.find_opt onto d_id with
                        | Some l -> l := g.sels.(k) :: !l
                        | None -> Hashtbl.add onto d_id (ref [ g.sels.(k) ]))
                    g.cand_d
              | _ -> ())
            entries;
          let sels_onto r =
            match Hashtbl.find_opt onto r with
            | Some l -> List.rev_map Sat_core.pos !l
            | None -> []
          in
          let emit prefix r = Sat_core.add_clause solver (prefix @ sels_onto r) in
          List.iter (fun r -> emit [] r) (view.attached_repairs 0);
          List.iter
            (fun (_, e) ->
              match e with
              | Gen g ->
                  Array.iteri
                    (fun k d_id ->
                      if d_id >= 0 then
                        List.iter
                          (fun r -> emit [ Sat_core.neg g.sels.(k) ] r)
                          (view.attached_repairs d_id))
                    g.cand_d
              | _ -> ())
            entries
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
              | `Unsat -> `Not_subsumed
              | `Sat ->
                  let theta, bind_tbl, selected =
                    extract view st head_tbl entries
                  in
                  let ok = ref true in
                  (* deferred environment similarity branches *)
                  List.iter
                    (fun (_, e, k) ->
                      match e with
                      | Gen g when g.cand_d.(k) < 0 -> (
                          match g.sim with
                          | Some (x, y)
                            when not (env_branch_ok view theta (x, y)) ->
                              ok := false;
                              (* reusable lemma when both sides are
                                 fixed by the model *)
                              (match
                                 ( side_lits st head_tbl bind_tbl x,
                                   side_lits st head_tbl bind_tbl y )
                               with
                              | Some lx, Some ly ->
                                  Sat_core.add_clause solver
                                    (Sat_core.neg g.sels.(k) :: (lx @ ly))
                              | _ -> ())
                          | _ -> ())
                      | _ -> ())
                    selected;
                  (* Eq/Neq residue, exactly the reference resolution *)
                  if
                    pending_checks <> []
                    && not (view.resolve_residue theta pending_checks)
                  then begin
                    ok := false;
                    (* lemmatize the individually refutable checks *)
                    List.iter
                      (fun l ->
                        match eval_check_model view head_tbl bind_tbl l with
                        | Some false -> (
                            let x, y =
                              match l with
                              | Literal.Eq (x, y) | Literal.Neq (x, y) -> (x, y)
                              | _ -> assert false
                            in
                            match
                              ( side_lits st head_tbl bind_tbl x,
                                side_lits st head_tbl bind_tbl y )
                            with
                            | Some lx, Some ly ->
                                Sat_core.add_clause solver (lx @ ly)
                            | _ -> ())
                        | _ -> ())
                      pending_checks
                  end;
                  (* repair connectivity on the mapped image *)
                  let image =
                    List.filter_map
                      (fun (_, e, k) ->
                        match e with
                        | Gen g when g.cand_d.(k) >= 0 -> Some g.cand_d.(k)
                        | _ -> None)
                      selected
                  in
                  if repair_connectivity && not (view.connectivity_ok image)
                  then ok := false;
                  if !ok then `Subsumed theta
                  else begin
                    (* block this exact selection — guarantees CEGAR
                       progress even when no reusable lemma applied *)
                    Sat_core.add_clause solver
                      (List.map
                         (fun (_, e, k) ->
                           match e with
                           | Gen g -> Sat_core.neg g.sels.(k)
                           | _ -> assert false)
                         selected);
                    cegar ()
                  end)
        in
        let outcome = cegar () in
        let s = Sat_core.stats solver in
        Obs.add Stats.solves s.solves;
        Obs.add Stats.propagations s.propagations;
        Obs.add Stats.conflicts s.conflicts;
        Obs.add Stats.learned s.learned;
        Obs.add Stats.restarts s.restarts;
        Obs.add Stats.solve_ns (Obs.now_ns () - t_solve);
        outcome
      with Exhausted -> `Budget_exhausted)
