(* Tests for the SAT θ-subsumption rescue: the CDCL core in isolation
   (unit propagation, conflict analysis, clauses added between solves),
   the learned-clause soundness property, witness soundness of
   [Subsumption.subsumes_target_sat] against the naive oracle, and that a
   rescue leaves its prepared target unchanged. *)

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
        (* Deciding a = true first with (¬a∨b) and (¬a∨¬b) conflicts at
           level 1; first-UIP must learn the unit ¬a, backjump to the
           root, and finish with a model where a is false. *)
        let sv = S.create () in
        let a = S.new_var sv and b = S.new_var sv in
        S.add_clause sv [ S.neg a; S.pos b ];
        S.add_clause sv [ S.neg a; S.neg b ];
        S.set_priority sv [| a |];
        S.set_phase sv a true;
        Alcotest.(check bool) "sat" true (S.solve sv = `Sat);
        Alcotest.(check int) "one conflict" 1 (S.stats sv).S.conflicts;
        Alcotest.(check bool) "learned ¬a" true
          (List.exists
             (fun cl -> cl = [| S.neg a |])
             (S.learned_clauses sv));
        Alcotest.(check bool) "a pinned false by the learned unit" true
          (not (S.value sv a)));
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
    let* units = list_size (0 -- 3) lit in
    return (n, clauses, units)
  in
  let print (n, clauses, units) =
    let lit (v, sg) = Printf.sprintf "%s%d" (if sg then "" else "-") v in
    Printf.sprintf "n=%d cnf=[%s] then=[%s]" n
      (String.concat "; "
         (List.map (fun c -> String.concat " " (List.map lit c)) clauses))
      (String.concat " " (List.map lit units))
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
         ~count:500 cnf_arb (fun (n, clauses, units) ->
           let sv = build_solver n clauses in
           (match S.solve sv with
           | `Sat -> assert (model_satisfies sv clauses)
           | `Unsat | `Limit -> ());
           (* Add the units after a first solve, the way the rescue's
              CEGAR loop adds blocking clauses, and solve again. *)
           let formula = clauses @ List.map (fun u -> [ u ]) units in
           List.iter (fun u -> S.add_clause sv [ to_lit u ]) units;
           (match S.solve sv with
           | `Sat -> assert (model_satisfies sv formula)
           | `Unsat | `Limit -> ());
           (* Re-solve the negation of each learned clause against a fresh
              copy of the formula: implied ⇔ unsat. *)
           List.for_all
             (fun learned ->
               let fresh = build_solver n formula in
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
(* A rescue leaves its target unchanged                               *)
(* ------------------------------------------------------------------ *)

(* Bottom clause where p's second column never joins q: refuting
   p(x,y) ∧ q(y) forces real conflicts. *)
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

(* An ARMG-chain-like sequence against one target: a refuted
   candidate, its refuted extension, and a subsumed generalization. *)
let chain_candidates () =
  let h = rel "T" [ v "h" ] in
  [
    Clause.make ~head:h [ rel "p" [ v "x"; v "y" ]; rel "q" [ v "y" ] ];
    Clause.make ~head:h
      [ rel "p" [ v "x"; v "y" ]; rel "q" [ v "y" ]; rel "r" [ v "x" ] ];
    Clause.make ~head:h [ rel "p" [ v "x"; v "y" ] ];
  ]

let rescue_tests =
  [
    Alcotest.test_case "a rescue leaves its target unchanged" `Quick
      (fun () ->
        let target = Subsumption.prepare (reuse_target ()) in
        let words () = Obj.reachable_words (Obj.repr target) in
        let before = words () in
        let verdicts =
          List.map
            (fun c ->
              match Subsumption.subsumes_target_sat c target with
              | Subsumption.Subsumed _ -> "subsumed"
              | Subsumption.Not_subsumed -> "not"
              | Subsumption.Budget_exhausted -> "exhausted")
            (chain_candidates ())
        in
        Alcotest.(check (list string))
          "verdicts" [ "not"; "not"; "subsumed" ] verdicts;
        Alcotest.(check int) "reachable words" before (words ()));
  ]

let () =
  Alcotest.run "sat"
    [
      ("sat_core", core_tests);
      ("learned clauses", learned_clause_tests);
      ("witness", witness_tests);
      ("rescue", rescue_tests);
    ]
