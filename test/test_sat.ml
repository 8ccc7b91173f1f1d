(* Tests for the SAT θ-subsumption rescue: the CDCL core in isolation
   (unit propagation, conflict analysis, incremental assumptions), the
   learned-clause soundness property, witness soundness of
   [Subsumption.subsumes_target_sat] against the naive oracle, and the
   cross-candidate clause-reuse behaviour the incremental encoding exists
   for. *)

open Dlearn_logic
module S = Sat_core

let v = Term.var
let s = Term.str
let rel = Literal.rel

(* ------------------------------------------------------------------ *)
(* Sat_core units                                                     *)
(* ------------------------------------------------------------------ *)

let core_tests =
  [
    Alcotest.test_case "unit propagation chains through implications" `Quick
      (fun () ->
        let sv = S.create () in
        let a = S.new_var sv and b = S.new_var sv and c = S.new_var sv in
        S.add_clause sv [ S.neg a; S.pos b ];
        S.add_clause sv [ S.neg b; S.pos c ];
        S.add_clause sv [ S.pos a ];
        Alcotest.(check bool) "sat" true (S.solve sv = `Sat);
        Alcotest.(check bool) "a" true (S.value sv a);
        Alcotest.(check bool) "b propagated" true (S.value sv b);
        Alcotest.(check bool) "c propagated" true (S.value sv c);
        Alcotest.(check bool) "propagations counted" true
          ((S.stats sv).S.propagations >= 2));
    Alcotest.test_case "conflict analysis learns the asserting clause" `Quick
      (fun () ->
        (* Assuming a with (¬a∨b) and (¬a∨¬b) conflicts at the assumption
           level; first-UIP must learn the unit ¬a, after which solving
           without assumptions yields a model with a false. *)
        let sv = S.create () in
        let a = S.new_var sv and b = S.new_var sv in
        S.add_clause sv [ S.neg a; S.pos b ];
        S.add_clause sv [ S.neg a; S.neg b ];
        Alcotest.(check bool) "unsat under a" true
          (S.solve ~assumptions:[ S.pos a ] sv = `Unsat);
        Alcotest.(check bool) "learned ¬a" true
          (List.exists
             (fun cl -> cl = [| S.neg a |])
             (S.learned_clauses sv));
        Alcotest.(check bool) "sat without assumptions" true
          (S.solve sv = `Sat);
        Alcotest.(check bool) "a pinned false by the learned unit" true
          (not (S.value sv a)));
    Alcotest.test_case "assumptions retract cleanly across solves" `Quick
      (fun () ->
        let sv = S.create () in
        let x = S.new_var sv and y = S.new_var sv and z = S.new_var sv in
        S.add_clause sv [ S.pos x; S.pos y ];
        S.add_clause sv [ S.neg x; S.pos z ];
        Alcotest.(check bool) "sat under ¬y" true
          (S.solve ~assumptions:[ S.neg y ] sv = `Sat);
        Alcotest.(check bool) "x forced" true (S.value sv x);
        Alcotest.(check bool) "z forced" true (S.value sv z);
        Alcotest.(check bool) "sat under ¬x" true
          (S.solve ~assumptions:[ S.neg x ] sv = `Sat);
        Alcotest.(check bool) "y forced" true (S.value sv y);
        Alcotest.(check bool) "unsat under ¬x ¬y" true
          (S.solve ~assumptions:[ S.neg x; S.neg y ] sv = `Unsat);
        Alcotest.(check bool) "still usable afterwards" true
          (S.solve sv = `Sat));
    Alcotest.test_case "conflict limit leaves the solver usable" `Quick
      (fun () ->
        (* Pigeonhole 3-into-2, pure search. A 1-conflict budget may or
           may not finish; either way the solver must survive and a
           follow-up unlimited solve must prove unsat. *)
        let sv = S.create () in
        let p = Array.init 3 (fun _ -> Array.init 2 (fun _ -> S.new_var sv)) in
        Array.iter (fun row -> S.add_clause sv [ S.pos row.(0); S.pos row.(1) ]) p;
        for h = 0 to 1 do
          for i = 0 to 2 do
            for j = i + 1 to 2 do
              S.add_clause sv [ S.neg p.(i).(h); S.neg p.(j).(h) ]
            done
          done
        done;
        let limited = S.solve ~conflict_limit:1 sv in
        Alcotest.(check bool) "limit or unsat" true
          (limited = `Limit || limited = `Unsat);
        Alcotest.(check bool) "unsat when unbounded" true (S.solve sv = `Unsat));
  ]

(* ------------------------------------------------------------------ *)
(* QCheck: every learned clause is implied by the original formula    *)
(* ------------------------------------------------------------------ *)

let cnf_arb =
  let open QCheck.Gen in
  let gen =
    let* n = 4 -- 9 in
    let lit = pair (0 -- (n - 1)) bool in
    let* clauses = list_size (5 -- 40) (list_size (1 -- 3) lit) in
    let* assumps = list_size (0 -- 3) lit in
    return (n, clauses, assumps)
  in
  let print (n, clauses, assumps) =
    let lit (v, sg) = Printf.sprintf "%s%d" (if sg then "" else "-") v in
    Printf.sprintf "n=%d cnf=[%s] assume=[%s]" n
      (String.concat "; "
         (List.map (fun c -> String.concat " " (List.map lit c)) clauses))
      (String.concat " " (List.map lit assumps))
  in
  QCheck.make ~print gen

let to_lit (var, sign) = if sign then S.pos var else S.neg var

let build_solver n clauses =
  let sv = S.create () in
  for _ = 1 to n do
    ignore (S.new_var sv)
  done;
  List.iter (fun c -> S.add_clause sv (List.map to_lit c)) clauses;
  sv

let model_satisfies sv clauses =
  List.for_all
    (List.exists (fun (var, sign) -> S.value sv var = sign))
    clauses

let learned_clause_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "models satisfy the formula; learned clauses are implied by it"
         ~count:500 cnf_arb (fun (n, clauses, assumps) ->
           let sv = build_solver n clauses in
           (match S.solve ~assumptions:(List.map to_lit assumps) sv with
           | `Sat ->
               assert (model_satisfies sv clauses);
               assert (
                 List.for_all
                   (fun (var, sign) -> S.value sv var = sign)
                   assumps)
           | `Unsat | `Limit -> ());
           (match S.solve sv with
           | `Sat -> assert (model_satisfies sv clauses)
           | `Unsat | `Limit -> ());
           (* Re-solve the negation of each learned clause against a fresh
              copy of the original formula: implied ⇔ unsat. *)
           List.for_all
             (fun learned ->
               let fresh = build_solver n clauses in
               Array.iter
                 (fun l -> S.add_clause fresh [ S.negate l ])
                 learned;
               S.solve fresh = `Unsat)
             (S.learned_clauses sv)));
  ]

(* ------------------------------------------------------------------ *)
(* Witness soundness: any Subsumed θ from the SAT engine is accepted  *)
(* by the naive reference checker                                     *)
(* ------------------------------------------------------------------ *)

(* Mirrors the md_group / mixed_clause generators of test_logic.ml — the
   full literal grammar the engines must agree on. *)
let md_group ~md ~group ~sims_of_left ~sims_of_right (x, vx) (y, vy) cond =
  [
    Literal.Repair
      {
        origin = Literal.From_md md;
        group;
        cond;
        subject = x;
        replacement = vx;
        drops = sims_of_left;
      };
    Literal.Repair
      {
        origin = Literal.From_md md;
        group;
        cond;
        subject = y;
        replacement = vy;
        drops = sims_of_right;
      };
    Literal.Eq (vx, vy);
  ]

let mixed_clause_gen =
  let open QCheck.Gen in
  let const = map (fun c -> Term.str (String.make 1 c)) (char_range 'a' 'e') in
  let term = oneof [ const; map Term.var (oneofl [ "mx"; "my"; "mz" ]) ] in
  let lit =
    frequency
      [
        (3, map2 (fun t1 t2 -> rel "p" [ t1; t2 ]) term term);
        (2, map (fun t -> rel "q" [ t ]) term);
        (1, map2 (fun t1 t2 -> Literal.Sim (t1, t2)) const const);
        (1, map2 (fun a b -> Literal.Eq (a, b)) term term);
        (1, map2 (fun a b -> Literal.Neq (a, b)) term term);
      ]
  in
  let* body = list_size (0 -- 6) lit in
  let* head_arg = term in
  let base = Clause.make ~head:(rel "t" [ head_arg ]) body in
  let* add_group = bool in
  let* x = const and* y = const in
  if (not add_group) || Term.equal x y then return base
  else begin
    let sim = Literal.Sim (x, y) in
    let group =
      [ sim ]
      @ md_group ~md:"gm" ~group:9 ~sims_of_left:[ sim ] ~sims_of_right:[ sim ]
          (x, v "gvx") (y, v "gvy")
          [ Cond.Csim (x, y) ]
    in
    return { base with Clause.body = base.Clause.body @ group }
  end

let mixed_clause_arb = QCheck.make ~print:Clause.to_string mixed_clause_gen

let witness_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"sat witnesses are accepted by the naive checker" ~count:300
         (QCheck.triple mixed_clause_arb mixed_clause_arb QCheck.bool)
         (fun (c, d, rc) ->
           match
             Subsumption.subsumes_target_sat ~budget:500_000
               ~repair_connectivity:rc c (Subsumption.prepare d)
           with
           | Subsumption.Subsumed theta -> (
               (* θC must still subsume D: θ grounds the sat engine's
                  choices, the naive search merely extends it over any
                  variables θ left free. Those leftover variables must
                  be renamed apart from D's *before* θ is applied — the
                  generators draw C and D variables from the same pool,
                  so a leftover C variable can share its name with a D
                  variable in θ's image; applying θ first would collapse
                  the two into one variable, and renaming afterwards
                  cannot split them again. *)
               let freshened =
                 let dom =
                   List.map fst (Substitution.to_list theta)
                 in
                 let ren =
                   List.fold_left
                     (fun s v ->
                       if List.mem v dom then s
                       else Substitution.add s v (Term.var ("w#" ^ v)))
                     Substitution.empty (Clause.vars c)
                 in
                 Substitution.apply_clause theta
                   (Substitution.apply_clause ren c)
               in
               match
                 Subsumption.subsumes_naive ~budget:500_000
                   ~repair_connectivity:rc freshened d
               with
               | Subsumption.Subsumed _ -> true
               | _ -> false)
           | _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Cross-candidate clause reuse along an ARMG chain                   *)
(* ------------------------------------------------------------------ *)

(* Bottom clause where p's second column never joins q: refuting
   p(x,y) ∧ q(y) forces real conflicts, and the clauses learned doing so
   refute the extended candidate by propagation alone. *)
let reuse_target () =
  Clause.make
    ~head:(rel "T" [ s "k" ])
    [
      rel "p" [ s "a1"; s "b1" ];
      rel "p" [ s "a2"; s "b2" ];
      rel "p" [ s "a3"; s "b3" ];
      rel "q" [ s "c1" ];
      rel "q" [ s "c2" ];
      rel "q" [ s "c3" ];
      rel "r" [ s "a1" ];
    ]

let chain_candidates () =
  let h = rel "T" [ v "h" ] in
  [
    Clause.make ~head:h [ rel "p" [ v "x"; v "y" ]; rel "q" [ v "y" ] ];
    Clause.make ~head:h
      [ rel "p" [ v "x"; v "y" ]; rel "q" [ v "y" ]; rel "r" [ v "x" ] ];
    Clause.make ~head:h [ rel "p" [ v "x"; v "y" ] ];
  ]

(* One solve with the reused-clause hits it caused. *)
let solve target c =
  let before = (Sat_subsumption.stats ()).Sat_subsumption.reused_clause_hits in
  let outcome = Subsumption.subsumes_target_sat c target in
  let after = (Sat_subsumption.stats ()).Sat_subsumption.reused_clause_hits in
  (outcome, after - before)

(* The chain on one shared target: its solver, encodings and learned
   clauses carry over from candidate to candidate. *)
let run_chain () =
  let target = Subsumption.prepare (reuse_target ()) in
  List.map (solve target) (chain_candidates ())

(* Each candidate on a freshly prepared target, so on a new solver with
   nothing to reuse. *)
let run_fresh () =
  List.map
    (fun c -> solve (Subsumption.prepare (reuse_target ())) c)
    (chain_candidates ())

let normalize_outcome = function
  | Subsumption.Subsumed theta ->
      `Subsumed
        (List.sort compare
           (List.map
              (fun (x, t) -> (x, Term.to_string t))
              (Substitution.to_list theta)))
  | Subsumption.Not_subsumed -> `Not_subsumed
  | Subsumption.Budget_exhausted -> `Budget_exhausted

let reuse_tests =
  [
    Alcotest.test_case
      "conflict clauses learned on one candidate prune the next" `Quick
      (fun () ->
        let results = run_chain () in
        match results with
        | [ (o1, hits1); (o2, hits2); (o3, _) ] ->
            Alcotest.(check bool) "candidate 1 refuted" true
              (o1 = Subsumption.Not_subsumed);
            Alcotest.(check int) "no prior clauses on the first candidate" 0
              hits1;
            Alcotest.(check bool) "candidate 2 refuted" true
              (o2 = Subsumption.Not_subsumed);
            Alcotest.(check bool) "candidate 2 reused learned clauses" true
              (hits2 > 0);
            Alcotest.(check bool) "candidate 3 subsumes" true
              (match o3 with Subsumption.Subsumed _ -> true | _ -> false)
        | _ -> Alcotest.fail "expected three chain results");
    Alcotest.test_case "verdicts are identical with reuse and on fresh targets"
      `Quick (fun () ->
        let shared = run_chain () in
        let fresh = run_fresh () in
        List.iteri
          (fun i ((o_shared, _), (o_fresh, hits_fresh)) ->
            Alcotest.(check bool)
              (Printf.sprintf "candidate %d agrees" (i + 1))
              true
              (normalize_outcome o_shared = normalize_outcome o_fresh);
            Alcotest.(check int)
              (Printf.sprintf "candidate %d: no reuse on a fresh target" (i + 1))
              0 hits_fresh)
          (List.combine shared fresh));
  ]

let () =
  Alcotest.run "sat"
    [
      ("sat_core", core_tests);
      ("learned clauses", learned_clause_tests);
      ("witness", witness_tests);
      ("clause reuse", reuse_tests);
    ]
