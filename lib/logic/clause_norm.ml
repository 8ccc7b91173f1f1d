module Obs = Dlearn_obs.Obs
module StrSet = Set.Make (String)
module StrMap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Counters ([normalize.*] on the process-wide registry, see
   docs/OBSERVABILITY.md). Hoisted handles; bumped only by [normalize],
   never by [plan] (the lint entry point must not pollute run stats).   *)

module Stats = struct
  let clauses = Obs.counter "normalize.clauses"
  let rounds = Obs.counter "normalize.rounds"
  let duplicates = Obs.counter "normalize.duplicates"
  let tautologies = Obs.counter "normalize.tautologies"
  let cond_atoms = Obs.counter "normalize.cond_atoms"
  let contradictions = Obs.counter "normalize.contradictions"
  let condensed = Obs.counter "normalize.condensed"
  let condense_capped = Obs.counter "normalize.condense_capped"
  let rename_fallbacks = Obs.counter "normalize.rename_fallbacks"
end

type rewrite =
  | Drop_duplicate of Literal.t
  | Drop_tautology of Literal.t
  | Drop_cond_atom of Literal.t * Cond.atom
  | Contradiction of Literal.t
  | Condense of {
      dropped : Literal.t;
      witness : Literal.t;
    }

let rewrite_to_string = function
  | Drop_duplicate l -> "duplicate " ^ Literal.to_string l
  | Drop_tautology l -> "tautology " ^ Literal.to_string l
  | Drop_cond_atom (l, a) ->
      Printf.sprintf "trivially true condition %s in %s" (Cond.to_string [ a ])
        (Literal.to_string l)
  | Contradiction l -> "contradiction " ^ Literal.to_string l
  | Condense { dropped; witness } ->
      Printf.sprintf "%s is subsumed by %s" (Literal.to_string dropped)
        (Literal.to_string witness)

(* ------------------------------------------------------------------ *)
(* Structural helpers. [Literal.terms]/[Literal.vars] skip the drops
   lists of repair literals; normalization must see those too (they are
   renamed by [map_terms] and matched by [Literal.equal] when a repair
   applies), so the deep variants below recurse into them.              *)

let rec deep_terms l =
  match l with
  | Literal.Repair r ->
      Literal.terms l @ List.concat_map deep_terms r.Literal.drops
  | Literal.Rel _ | Literal.Sim _ | Literal.Eq _ | Literal.Neq _ ->
      Literal.terms l

let deep_vars l =
  List.filter_map
    (function Term.Var v -> Some v | Term.Const _ -> None)
    (deep_terms l)
  |> List.sort_uniq String.compare

(* Variables bound by matching a generative literal: head and schema-atom
   arguments, and repair subjects/replacements (the searches unify exactly
   those against the target; a variable occurring only in restriction
   literals or repair conditions is never bound by the search). *)
let generative_vars (c : Clause.t) =
  let add_term acc = function
    | Term.Var v -> StrSet.add v acc
    | Term.Const _ -> acc
  in
  let add acc l =
    match l with
    | Literal.Rel { args; _ } -> Array.fold_left add_term acc args
    | Literal.Repair r ->
        add_term (add_term acc r.Literal.subject) r.Literal.replacement
    | Literal.Sim _ | Literal.Eq _ | Literal.Neq _ -> acc
  in
  List.fold_left add
    (List.fold_left add_term StrSet.empty (Literal.terms c.Clause.head))
    c.Clause.body

(* Literals recorded in some repair literal's drops list. Repair
   application deletes body literals by [Literal.equal] against those
   records *before* substituting (Clause_repair.child), so a
   rewrite that removes or alters a recorded literal would silently
   change which literals a repair deletes. Every pass skips them. *)
let protected_literals (c : Clause.t) =
  let rec collect acc l =
    match l with
    | Literal.Repair r ->
        List.fold_left collect (r.Literal.drops @ acc) r.Literal.drops
    | Literal.Rel _ | Literal.Sim _ | Literal.Eq _ | Literal.Neq _ -> acc
  in
  List.fold_left collect [] c.Clause.body

let is_protected protected l = List.exists (Literal.equal l) protected

(* ------------------------------------------------------------------ *)
(* Pass 3: duplicate-literal and tautology elimination, mirroring the
   DL105/DL106 lints as rewrites — restricted to what the subsumption
   searches make sound:

   - [Eq (t, t)] is always satisfied: Clause_env.eq is reflexive and
     resolve_checks binds an unbound variable's class consistently, so
     the check can never fail. Dropped.
   - [Sim (t, t)] is satisfied through the environment closure only once
     both sides are ground; a variable the search never binds must
     instead match an explicit similarity literal of the target. Dropped
     only when [t] is a constant or a generatively-bound variable.
   - [Neq (t, t)] can never be satisfied (every search resolves the two
     sides identically), and [map_terms] preserves the shape, so every
     repaired clause keeps a failing check: the clause covers nothing.
     The whole clause canonicalizes to the shared trivially-false form.
   - A repair condition atom [Ceq (t, t)] / [Csim (t, t)] is always true
     under Clause_env.eval_cond (eq and sim are reflexive there), so it
     is deleted from the condition.

   [Eq]/[Neq] over distinct constants are deliberately left alone: the
   target's closure can merge constants through repair-induced
   equalities, so their verdicts are not static. *)

let tautological_atom = function
  | Cond.Ceq (a, b) | Cond.Csim (a, b) -> Term.equal a b
  | Cond.Cneq _ -> false

type trivia_verdict =
  | Keep
  | Drop of rewrite
  | Rewrite of Literal.t * rewrite list
  | False of rewrite

let trivia_verdict ~bound ~protected l =
  if is_protected protected l then Keep
  else
    match l with
    | Literal.Eq (a, b) when Term.equal a b -> Drop (Drop_tautology l)
    | Literal.Sim (a, b)
      when Term.equal a b
           && (match a with
              | Term.Const _ -> true
              | Term.Var v -> StrSet.mem v bound) ->
        Drop (Drop_tautology l)
    | Literal.Neq (a, b) when Term.equal a b -> False (Contradiction l)
    | Literal.Repair r ->
        let true_atoms = List.filter tautological_atom r.Literal.cond in
        if true_atoms = [] then Keep
        else
          Rewrite
            ( Literal.Repair
                {
                  r with
                  Literal.cond =
                    List.filter
                      (fun a -> not (tautological_atom a))
                      r.Literal.cond;
                },
              List.map (fun a -> Drop_cond_atom (l, a)) true_atoms )
    | Literal.Rel _ | Literal.Sim _ | Literal.Eq _ | Literal.Neq _ -> Keep

(* One trivia sweep over the body. Returns the new body, the rewrites
   applied, and the first contradiction witness when the clause is
   trivially false. *)
let trivia_pass ~bound ~protected body =
  let rewrites = ref [] in
  let falsum = ref None in
  let body' =
    List.filter_map
      (fun l ->
        match trivia_verdict ~bound ~protected l with
        | Keep -> Some l
        | Drop rw ->
            rewrites := rw :: !rewrites;
            None
        | Rewrite (l', rws) ->
            rewrites := rws @ !rewrites;
            Some l'
        | False rw ->
            rewrites := rw :: !rewrites;
            if !falsum = None then falsum := Some l;
            Some l)
      body
  in
  (body', List.rev !rewrites, !falsum)

(* Duplicate elimination preserving first occurrences (the final
   canonical ordering happens after renaming). *)
let dedup_pass body =
  let rewrites = ref [] in
  let rec go seen acc = function
    | [] -> List.rev acc
    | l :: rest ->
        if List.exists (Literal.equal l) seen then begin
          rewrites := Drop_duplicate l :: !rewrites;
          go seen acc rest
        end
        else go (l :: seen) (l :: acc) rest
  in
  let body' = go [] [] body in
  (body', List.rev !rewrites)

(* ------------------------------------------------------------------ *)
(* Pass 4: condensation-lite. A non-repair body literal L with at least
   one strictly-local variable (occurring in no other literal of the
   clause, head included) is dropped when a substitution over exactly
   those local variables maps L onto another body literal L': any match
   theta of the rest extends to L through L''s match, and the repair
   enumeration commutes with the drop because a strictly-local variable
   is never a repair subject or replacement (those occur in the repair
   literal too). Both L and L' must be unprotected — if either is
   recorded in a drops list, a repair application would delete the
   witness (or expect the dropped literal), breaking the equivalence.
   Bodies longer than [condense_body_cap] skip the pass (counted): the
   quadratic scan must never dominate solve time. *)

let condense_body_cap = 64

let match_onto ~locals l l' =
  let sigma = Hashtbl.create 4 in
  let term t t' =
    Term.equal t t'
    ||
    match t with
    | Term.Var v when StrSet.mem v locals -> (
        match Hashtbl.find_opt sigma v with
        | Some u -> Term.equal u t'
        | None ->
            Hashtbl.add sigma v t';
            true)
    | Term.Var _ | Term.Const _ -> false
  in
  match l, l' with
  | Literal.Rel r, Literal.Rel r' ->
      String.equal r.pred r'.pred
      && Array.length r.args = Array.length r'.args
      && Array.for_all2 term r.args r'.args
  | Literal.Sim (a, b), Literal.Sim (a', b')
  | Literal.Eq (a, b), Literal.Eq (a', b')
  | Literal.Neq (a, b), Literal.Neq (a', b') ->
      term a a' && term b b'
  | (Literal.Rel _ | Literal.Sim _ | Literal.Eq _ | Literal.Neq _
    | Literal.Repair _), _ ->
      false

(* Find one condensation step, or None. The caller loops to fixpoint:
   dropping a literal can strand more variables as local. *)
let condense_step ~protected (c : Clause.t) =
  let body = Array.of_list c.Clause.body in
  let n = Array.length body in
  (* How many literals (head included) each variable occurs in. *)
  let occ = Hashtbl.create 16 in
  List.iter
    (fun l ->
      List.iter
        (fun v ->
          Hashtbl.replace occ v
            (1 + Option.value ~default:0 (Hashtbl.find_opt occ v)))
        (deep_vars l))
    (c.Clause.head :: c.Clause.body);
  let result = ref None in
  let i = ref 0 in
  while !result = None && !i < n do
    let l = body.(!i) in
    (if not (Literal.is_repair l || is_protected protected l) then
       let locals =
         List.filter (fun v -> Hashtbl.find occ v = 1) (deep_vars l)
         |> StrSet.of_list
       in
       if not (StrSet.is_empty locals) then begin
         let j = ref 0 in
         while !result = None && !j < n do
           (if !j <> !i then
              let l' = body.(!j) in
              if
                (not (is_protected protected l'))
                && match_onto ~locals l l'
              then begin
                let body' =
                  List.filteri (fun k _ -> k <> !i) c.Clause.body
                in
                result :=
                  Some
                    ( { c with Clause.body = body' },
                      Condense { dropped = l; witness = l' } )
              end);
           incr j
         done
       end);
    incr i
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Passes 1 and 2: canonical variable renumbering by iterative
   refinement over the variable-occurrence structure, then deterministic
   literal ordering.

   Each variable gets a color; a refinement round rehashes every color
   with the multiset of the variable's occurrence signatures (the
   literal's structure rendered with colors standing for names, the
   variable's own positions marked), so the partition only ever splits
   and depends on structure alone — never on names or body order. Color
   classes that refinement cannot split are broken by
   individualization: give one member the next canonical index, refine
   again, and keep the lexicographically smallest completed clause
   (McKay-style, bounded by [rename_completion_cap] completions; on
   overflow the remaining variables take a deterministic but
   name-dependent order and [normalize.rename_fallbacks] is bumped —
   the cache key stays sound, only alpha-variant sharing suffers). *)

let mix h x = (h * 1000003) lxor x
let mix_str h s = mix h (Hashtbl.hash s)

(* A literal flattened to a token stream: fixed structure hashes
   interleaved with variable-occurrence slots. Computed once per clause;
   each refinement round then re-renders the stream against the current
   coloring in a single fold, instead of re-walking the literal tree per
   (variable, literal) pair. A variable's occurrence signature is the
   rendered stream hash mixed with the (rename-invariant) hash of its
   slot positions — structure plus positions, never names. *)
type token =
  | Fixed of int
  | Slot of int  (* variable id *)

let lit_tokens id_of l =
  let acc = ref [] in
  let fixed h = acc := Fixed h :: !acc in
  let term t =
    match t with
    | Term.Const _ -> fixed (mix 1 (Term.hash t))
    | Term.Var u -> acc := Slot (Hashtbl.find id_of u) :: !acc
  in
  let rec walk l =
    match l with
    | Literal.Rel { pred; args } ->
        fixed (mix_str 10 pred);
        Array.iter term args
    | Literal.Sim (a, b) ->
        fixed 11;
        term a;
        term b
    | Literal.Eq (a, b) ->
        fixed 12;
        term a;
        term b
    | Literal.Neq (a, b) ->
        fixed 13;
        term a;
        term b
    | Literal.Repair r ->
        (* Group ids are clause-local structure (Literal.compare orders
           by them), not names: alpha-variants share them. *)
        fixed (mix_str 14 (Literal.origin_to_string r.Literal.origin));
        fixed r.Literal.group;
        term r.Literal.subject;
        term r.Literal.replacement;
        List.iter
          (fun a ->
            match a with
            | Cond.Ceq (x, y) ->
                fixed 15;
                term x;
                term y
            | Cond.Cneq (x, y) ->
                fixed 16;
                term x;
                term y
            | Cond.Csim (x, y) ->
                fixed 17;
                term x;
                term y)
          r.Literal.cond;
        List.iter
          (fun d ->
            fixed 18;
            walk d)
          r.Literal.drops
  in
  walk l;
  Array.of_list (List.rev !acc)

let combine hs = List.fold_left mix 0x9e3779b9 (List.sort Int.compare hs)

(* Each completion pays a full render (a map_terms copy plus the body
   sort), so on large symmetric bottom clauses the cap bounds the whole
   pass: 16 keeps renaming ≈1% of learn wall-clock while still covering
   every ambiguous cell observed in the generated workloads. *)
let rename_completion_cap = 16

(* Deterministic tie-break order on fully-renamed clauses. *)
let clause_compare (a : Clause.t) (b : Clause.t) =
  match Literal.compare a.Clause.head b.Clause.head with
  | 0 -> List.compare Literal.compare a.Clause.body b.Clause.body
  | c -> c

let cond_atom_rank = function
  | Cond.Ceq _ -> 0
  | Cond.Cneq _ -> 1
  | Cond.Csim _ -> 2

let cond_atom_compare a b =
  match Int.compare (cond_atom_rank a) (cond_atom_rank b) with
  | 0 -> (
      match a, b with
      | Cond.Ceq (x, y), Cond.Ceq (x', y')
      | Cond.Cneq (x, y), Cond.Cneq (x', y')
      | Cond.Csim (x, y), Cond.Csim (x', y') -> (
          match Term.compare x x' with 0 -> Term.compare y y' | c -> c)
      | (Cond.Ceq _ | Cond.Cneq _ | Cond.Csim _), _ -> assert false)
  | c -> c

(* Canonicalize the order-sensitive lists inside repair literals (their
   equality and evaluation are set-semantic: Cond.eval is a for_all and
   delete_literals matches elements individually). Applied uniformly to
   body literals and to the recorded drops, so [Literal.equal] matches
   between them are preserved exactly. *)
let rec canon_internals l =
  match l with
  | Literal.Repair r ->
      Literal.Repair
        {
          r with
          Literal.cond = List.sort_uniq cond_atom_compare r.Literal.cond;
          drops =
            List.sort_uniq Literal.compare
              (List.map canon_internals r.Literal.drops);
        }
  | Literal.Rel _ | Literal.Sim _ | Literal.Eq _ | Literal.Neq _ -> l

(* Pass 2: deterministic literal ordering (and the duplicate merge that
   renaming can never create — the renaming is a bijection — but that
   earlier passes feed in already-sorted duplicates of). *)
let order (c : Clause.t) =
  Clause.make
    ~head:(canon_internals c.Clause.head)
    (List.sort_uniq Literal.compare (List.map canon_internals c.Clause.body))

let rename_canonical ~count (c : Clause.t) =
  let lits = c.Clause.head :: c.Clause.body in
  let var_names =
    Array.of_list
      (List.sort_uniq String.compare (List.concat_map deep_vars lits))
  in
  let nvars = Array.length var_names in
  if nvars = 0 then order c
  else begin
    let id_of = Hashtbl.create (2 * nvars) in
    Array.iteri (fun i v -> Hashtbl.add id_of v i) var_names;
    let lit_arr = Array.of_list lits in
    let tokens = Array.map (lit_tokens id_of) lit_arr in
    (* literal indices containing each variable (deeply) *)
    let lits_of = Array.make nvars [] in
    Array.iteri
      (fun i l ->
        List.iter
          (fun v ->
            let v = Hashtbl.find id_of v in
            lits_of.(v) <- i :: lits_of.(v))
          (deep_vars l))
      lit_arr;
    (* Hash of each variable's slot positions in each literal —
       rename-invariant, computed once. *)
    let pos_hashes =
      Array.map
        (fun toks ->
          let tbl = Hashtbl.create 8 in
          Array.iteri
            (fun i tok ->
              match tok with
              | Slot v ->
                  let prev =
                    Option.value ~default:0x9e3779b9
                      (Hashtbl.find_opt tbl v)
                  in
                  Hashtbl.replace tbl v (mix prev i)
              | Fixed _ -> ())
            toks;
          tbl)
        tokens
    in
    (* The partition a coloring induces, as first-occurrence ranks, plus
       the number of classes. *)
    let ranks colors =
      let tbl = Hashtbl.create (2 * nvars) in
      let next = ref 0 in
      let part =
        Array.map
          (fun col ->
            match Hashtbl.find_opt tbl col with
            | Some r -> r
            | None ->
                let r = !next in
                Hashtbl.add tbl col r;
                incr next;
                r)
          colors
      in
      (part, !next)
    in
    (* Refine a copy of [colors] until the partition is stable or
       discrete. The partition only ever splits and depends on structure
       alone — never on names or body order. *)
    let refine colors =
      let colors = Array.copy colors in
      let part = ref (fst (ranks colors)) in
      let continue_ = ref (snd (ranks colors) < nvars) in
      let rounds = ref 0 in
      while !continue_ && !rounds <= nvars + 2 do
        incr rounds;
        let base =
          Array.map
            (fun toks ->
              Array.fold_left
                (fun h tok ->
                  match tok with
                  | Fixed x -> mix h x
                  | Slot v -> mix (mix h 3) colors.(v))
                0 toks)
            tokens
        in
        for v = 0 to nvars - 1 do
          let sigs =
            List.map
              (fun i -> mix base.(i) (Hashtbl.find pos_hashes.(i) v))
              lits_of.(v)
          in
          colors.(v) <- mix colors.(v) (combine sigs)
        done;
        let part', classes = ranks colors in
        if part' = !part || classes = nvars then continue_ := false;
        part := part'
      done;
      colors
    in
    let render assignment =
      let f t =
        match t with
        | Term.Var v ->
            Term.Var (Printf.sprintf "n%d" assignment.(Hashtbl.find id_of v))
        | Term.Const _ -> t
      in
      order (Clause.map_terms f c)
    in
    let completions = ref 0 in
    let fellback = ref false in
    let best = ref None in
    let consider rendered =
      incr completions;
      match !best with
      | None -> best := Some rendered
      | Some b -> if clause_compare rendered b < 0 then best := Some rendered
    in
    (* The color of an individualized variable: a function of its
       canonical index only, disjoint in practice from refinement
       hashes. *)
    let indiv_color i = mix 0x51ed270b i in
    let rec go colors assignment next =
      if next = nvars then consider (render assignment)
      else begin
        let colors = refine colors in
        let unassigned = ref [] in
        for v = nvars - 1 downto 0 do
          if assignment.(v) < 0 then unassigned := v :: !unassigned
        done;
        (* Fast path — the overwhelmingly common case: refinement already
           separates every remaining variable, so the color order is the
           canonical order and no further refinement rounds are needed. *)
        let by_color =
          List.sort
            (fun a b -> Int.compare colors.(a) colors.(b))
            !unassigned
        in
        let discrete =
          let rec distinct = function
            | a :: (b :: _ as rest) ->
                colors.(a) <> colors.(b) && distinct rest
            | _ -> true
          in
          distinct by_color
        in
        if discrete then begin
          let assignment = Array.copy assignment in
          List.iteri (fun k v -> assignment.(v) <- next + k) by_color;
          consider (render assignment)
        end
        else
          let target_color = colors.(List.hd by_color) in
          let cell =
            List.filter (fun v -> colors.(v) = target_color) by_color
          in
          match cell with
          | [] -> assert false
          | [ v ] ->
              colors.(v) <- indiv_color next;
              let assignment = Array.copy assignment in
              assignment.(v) <- next;
              go colors assignment (next + 1)
          | vs ->
              if !completions >= rename_completion_cap then begin
                (* Budget exhausted: finish deterministically by (color,
                   name). Name-dependent, so alpha-variants may diverge —
                   counted, never wrong (the result is still one fixed
                   representative of this clause). *)
                fellback := true;
                let remaining =
                  List.sort
                    (fun a b ->
                      match Int.compare colors.(a) colors.(b) with
                      | 0 -> String.compare var_names.(a) var_names.(b)
                      | c -> c)
                    !unassigned
                in
                let assignment = Array.copy assignment in
                List.iteri (fun k v -> assignment.(v) <- next + k) remaining;
                consider (render assignment)
              end
              else
                List.iter
                  (fun v ->
                    if !completions < rename_completion_cap then begin
                      let colors = Array.copy colors in
                      colors.(v) <- indiv_color next;
                      let assignment = Array.copy assignment in
                      assignment.(v) <- next;
                      go colors assignment (next + 1)
                    end
                    else
                      (* A branch cut mid-iteration is as name-dependent
                         as the explicit fallback: the explored prefix
                         follows name order. Count it so alpha-variant
                         tests know to skip. *)
                      fellback := true)
                  (List.sort
                     (fun a b ->
                       String.compare var_names.(a) var_names.(b))
                     vs)
      end
    in
    go (Array.make nvars 0) (Array.make nvars (-1)) 0;
    if count && !fellback then Obs.incr Stats.rename_fallbacks;
    match !best with Some r -> r | None -> order c
  end

(* ------------------------------------------------------------------ *)
(* The shared trivially-false form: the clause's head over a single
   unsatisfiable restriction literal, canonically renamed — every
   trivially-false clause with an isomorphic head shares one cover-cache
   entry (sound: they all cover nothing). *)

let falsum_body (c : Clause.t) =
  let used = StrSet.of_list (List.concat_map deep_vars (c.Clause.head :: c.Clause.body)) in
  let rec fresh i =
    let n = Printf.sprintf "_false%d" i in
    if StrSet.mem n used then fresh (i + 1) else n
  in
  let v = Term.var (fresh 0) in
  [ Literal.Neq (v, v) ]

let is_trivially_false (c : Clause.t) =
  let protected = protected_literals c in
  List.exists
    (function
      | Literal.Neq (a, b) as l ->
          Term.equal a b && not (is_protected protected l)
      | _ -> false)
    c.Clause.body

(* ------------------------------------------------------------------ *)
(* Fixpoint driver. Trivia, dedup and condensation run until no pass
   fires (each productive round strictly shrinks the body or a repair
   condition, so termination is immediate); renaming and ordering run
   once at the end — both are invariant under the simplification passes'
   outputs, and the whole pipeline is idempotent: a normalized clause
   has nothing left to drop and renames to itself. *)

let simplify_engine ~count (c : Clause.t) =
  let rewrites = ref [] in
  let note rws = rewrites := rws @ !rewrites in
  let rec loop c rounds =
    if rounds > Clause.body_size c + 4 then (c, false)
    else begin
      if count then Obs.incr Stats.rounds;
      let bound = generative_vars c in
      let protected = protected_literals c in
      let body, trws, falsum = trivia_pass ~bound ~protected c.Clause.body in
      note trws;
      if count then begin
        List.iter
          (function
            | Drop_tautology _ -> Obs.incr Stats.tautologies
            | Drop_cond_atom _ -> Obs.incr Stats.cond_atoms
            | Contradiction _ -> Obs.incr Stats.contradictions
            | Drop_duplicate _ | Condense _ -> ())
          trws
      end;
      match falsum with
      | Some _ -> (c, true)
      | None ->
          let body, drws = dedup_pass body in
          note drws;
          if count then Obs.add Stats.duplicates (List.length drws);
          let c' = { c with Clause.body = body } in
          let c', condensed =
            if Clause.body_size c' > condense_body_cap then begin
              if count then Obs.incr Stats.condense_capped;
              (c', false)
            end
            else
              match condense_step ~protected c' with
              | Some (c'', rw) ->
                  note [ rw ];
                  if count then Obs.incr Stats.condensed;
                  (c'', true)
              | None -> (c', false)
          in
          if condensed || trws <> [] || drws <> [] then loop c' (rounds + 1)
          else (c', false)
    end
  in
  let c', falsy = loop c 0 in
  (c', List.rev !rewrites, falsy)

let normalize c =
  Obs.incr Stats.clauses;
  let c', _rewrites, falsy =
    Obs.span "normalize.simplify" (fun () -> simplify_engine ~count:true c)
  in
  let c' =
    if falsy then Clause.make ~head:c'.Clause.head (falsum_body c') else c'
  in
  Obs.span "normalize.rename" (fun () -> rename_canonical ~count:true c')

(* What [normalize] would do, without doing it (and without touching the
   run counters): the lint layer turns these into DL4xx diagnostics, so
   lint and rewrite share one implementation and can never disagree. *)
let plan c =
  let _, rewrites, _ = simplify_engine ~count:false c in
  rewrites

(* Target-side preparation. A ground bottom clause's restriction
   literals are closure *data* (its Eq literals feed Clause_env, its Sim
   literals are match targets), not checks, so only exact duplicates —
   which add candidates without adding matches — are removed, in
   order-preserving fashion. *)
let dedup_target (c : Clause.t) =
  let body, _ = dedup_pass c.Clause.body in
  { c with Clause.body = body }
