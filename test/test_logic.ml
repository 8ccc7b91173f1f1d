open Dlearn_logic

let v = Term.var
let s = Term.str
let rel = Literal.rel

(* An MD repair group as bottom-clause construction emits it: both sides of
   the similarity match [x ≈ y] are replaced simultaneously, and firing
   consumes the similarity literals that mention the replaced terms. *)
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

(* Example 3.2 of the paper. *)
let example_3_2 () =
  let x = v "x" and y = v "y" and t = v "t" and z = v "z" in
  let vx = v "vx" and vt = v "vt" in
  let sim = Literal.Sim (x, t) in
  Clause.make
    ~head:(rel "highGrossing" [ x ])
    ([
       rel "movies" [ y; t; z ];
       rel "mov2genres" [ y; s "comedy" ];
       rel "highBudgetMovies" [ x ];
       sim;
     ]
    @ md_group ~md:"s1" ~group:0 ~sims_of_left:[ sim ] ~sims_of_right:[ sim ]
        (x, vx) (t, vt)
        [ Cond.Csim (x, t) ])

(* Example 3.3 of the paper: two MDs both matching the head variable. *)
let example_3_3 () =
  let x = v "x" and y = v "y" and z = v "z" in
  let vx = v "vx" and vy = v "vy" and ux = v "ux" and vz = v "vz" in
  let sim_xy = Literal.Sim (x, y) and sim_xz = Literal.Sim (x, z) in
  Clause.make
    ~head:(rel "T" [ x ])
    ([ rel "R" [ y ]; sim_xy ]
    @ md_group ~md:"m1" ~group:0 ~sims_of_left:[ sim_xy; sim_xz ]
        ~sims_of_right:[ sim_xy ] (x, vx) (y, vy)
        [ Cond.Csim (x, y) ]
    @ [ rel "S" [ z ]; sim_xz ]
    @ md_group ~md:"m2" ~group:1 ~sims_of_left:[ sim_xy; sim_xz ]
        ~sims_of_right:[ sim_xz ] (x, ux) (z, vz)
        [ Cond.Csim (x, z) ])

let clause_equal_mod_order a b =
  Clause.equal (Clause.canonical a) (Clause.canonical b)

let contains_clause cs c = List.exists (clause_equal_mod_order c) cs

let clause_tests =
  [
    Alcotest.test_case "head must be a schema atom" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Clause.make ~head:(Literal.Eq (v "x", v "y")) []);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "head_connected drops disconnected literals" `Quick
      (fun () ->
        let c =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "R" [ v "x"; v "y" ]; rel "S" [ v "z"; v "w" ] ]
        in
        let c' = Clause.head_connected c in
        Alcotest.(check int) "one body literal" 1 (Clause.body_size c'));
    Alcotest.test_case "head_connected keeps transitive connections" `Quick
      (fun () ->
        let c =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "R" [ v "x"; v "y" ]; rel "S" [ v "y"; v "z" ] ]
        in
        Alcotest.(check int) "both kept" 2
          (Clause.body_size (Clause.head_connected c)));
    Alcotest.test_case "head_connected drops repairs of dropped literals" `Quick
      (fun () ->
        let repair =
          Literal.Repair
            {
              origin = Literal.From_md "m";
              group = 0;
              cond = [];
              subject = v "z";
              replacement = v "vz";
              drops = [];
            }
        in
        let c =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "R" [ v "x"; v "y" ]; rel "S" [ v "z"; v "w" ]; repair ]
        in
        let c' = Clause.head_connected c in
        Alcotest.(check int) "repair gone too" 1 (Clause.body_size c'));
    Alcotest.test_case "remove_dangling_restrictions" `Quick (fun () ->
        let c =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [
              rel "R" [ v "x"; v "y" ];
              Literal.Eq (v "y", v "x");
              Literal.Eq (v "u", v "w");
              Literal.Sim (v "x", v "u");
            ]
        in
        let c' = Clause.remove_dangling_restrictions c in
        Alcotest.(check int) "only anchored restriction kept" 2
          (Clause.body_size c'));
    Alcotest.test_case "vars collects head and body" `Quick (fun () ->
        let c = example_3_2 () in
        Alcotest.(check bool) "x present" true (List.mem "x" (Clause.vars c));
        Alcotest.(check bool) "vt present" true (List.mem "vt" (Clause.vars c)));
    Alcotest.test_case "canonical deduplicates" `Quick (fun () ->
        let l = rel "R" [ v "x" ] in
        let c = Clause.make ~head:(rel "T" [ v "x" ]) [ l; l ] in
        Alcotest.(check int) "dedup" 1 (Clause.body_size (Clause.canonical c)));
    Alcotest.test_case "hash reaches the last body literal" `Quick (fun () ->
        (* Twelve shared literals put the difference past the ten words
           that the polymorphic hash of the whole clause inspects. *)
        let shared = List.init 12 (fun i -> rel "R" [ v "x"; v (Printf.sprintf "y%d" i) ]) in
        let make last = Clause.make ~head:(rel "T" [ v "x" ]) (shared @ [ last ]) in
        let a = make (rel "S" [ v "y0" ]) and b = make (rel "S" [ v "y1" ]) in
        Alcotest.(check bool) "hash apart" true (Clause.hash a <> Clause.hash b);
        Alcotest.(check int) "equal clauses hash alike" (Clause.hash a)
          (Clause.hash (make (rel "S" [ v "y0" ]))));
  ]

let env_tests =
  [
    Alcotest.test_case "equality closes over chains" `Quick (fun () ->
        let env =
          Clause_env.of_body [ Literal.Eq (v "x", v "y"); Literal.Eq (v "y", v "z") ]
        in
        Alcotest.(check bool) "x = z" true (Clause_env.eq env (v "x") (v "z")));
    Alcotest.test_case "equal constants are equal" `Quick (fun () ->
        let env = Clause_env.of_body [] in
        Alcotest.(check bool) "a = a" true (Clause_env.eq env (s "a") (s "a"));
        Alcotest.(check bool) "a != b" true (Clause_env.neq env (s "a") (s "b")));
    Alcotest.test_case "similarity modulo equality" `Quick (fun () ->
        let env =
          Clause_env.of_body
            [ Literal.Sim (v "x", v "y"); Literal.Eq (v "y", v "z") ]
        in
        Alcotest.(check bool) "x ~ z" true (Clause_env.sim env (v "x") (v "z")));
    Alcotest.test_case "similarity is reflexive" `Quick (fun () ->
        let env = Clause_env.of_body [] in
        Alcotest.(check bool) "x ~ x" true (Clause_env.sim env (v "x") (v "x")));
    Alcotest.test_case "neq is the negation of eq" `Quick (fun () ->
        let env = Clause_env.of_body [ Literal.Eq (v "x", v "y") ] in
        Alcotest.(check bool) "x != y is false" false
          (Clause_env.neq env (v "x") (v "y")));
    Alcotest.test_case "cond evaluation" `Quick (fun () ->
        let env = Clause_env.of_body [ Literal.Sim (v "x", v "t") ] in
        Alcotest.(check bool) "sim cond holds" true
          (Clause_env.eval_cond env [ Cond.Csim (v "x", v "t") ]);
        Alcotest.(check bool) "conjunction with failing eq" false
          (Clause_env.eval_cond env
             [ Cond.Csim (v "x", v "t"); Cond.Ceq (v "x", v "t") ]));
  ]

let substitution_tests =
  [
    Alcotest.test_case "bind rejects conflicts" `Quick (fun () ->
        let th = Substitution.singleton "x" (s "a") in
        Alcotest.(check bool) "same binding ok" true
          (Substitution.bind th "x" (s "a") <> None);
        Alcotest.(check bool) "conflict rejected" true
          (Substitution.bind th "x" (s "b") = None));
    Alcotest.test_case "apply_clause rewrites terms" `Quick (fun () ->
        let th = Substitution.of_list [ ("x", s "a"); ("y", s "b") ] in
        let c =
          Clause.make ~head:(rel "T" [ v "x" ]) [ rel "R" [ v "x"; v "y" ] ]
        in
        let c' = Substitution.apply_clause th c in
        Alcotest.(check bool) "ground now" true
          (Clause.vars c' = []));
  ]

let ground_d () =
  Clause.make
    ~head:(rel "highGrossing" [ s "m1" ])
    [
      rel "movies" [ s "m1"; s "Superbad (2007)"; s "2007" ];
      rel "mov2genres" [ s "m1"; s "comedy" ];
      rel "mov2countries" [ s "m1"; s "c1" ];
    ]

let subsumption_tests =
  [
    Alcotest.test_case "paper example: generalisation subsumes" `Quick (fun () ->
        let c =
          Clause.make
            ~head:(rel "highGrossing" [ v "x" ])
            [ rel "movies" [ v "x"; v "y"; v "z" ] ]
        in
        Alcotest.(check bool) "subsumes" true (Subsumption.subsumes_bool c (ground_d ())));
    Alcotest.test_case "missing predicate blocks subsumption" `Quick (fun () ->
        let c =
          Clause.make
            ~head:(rel "highGrossing" [ v "x" ])
            [ rel "mov2releasedate" [ v "x"; s "May"; v "u" ] ]
        in
        Alcotest.(check bool) "not subsumed" false
          (Subsumption.subsumes_bool c (ground_d ())));
    Alcotest.test_case "constant mismatch blocks subsumption" `Quick (fun () ->
        let c =
          Clause.make
            ~head:(rel "highGrossing" [ v "x" ])
            [ rel "mov2genres" [ v "y"; s "drama" ] ]
        in
        Alcotest.(check bool) "not subsumed" false
          (Subsumption.subsumes_bool c (ground_d ())));
    Alcotest.test_case "head must unify" `Quick (fun () ->
        let c = Clause.make ~head:(rel "otherTarget" [ v "x" ]) [] in
        Alcotest.(check bool) "not subsumed" false
          (Subsumption.subsumes_bool c (ground_d ())));
    Alcotest.test_case "shared variable forces join" `Quick (fun () ->
        (* movies and mov2genres must join on the id in C, and do in D. *)
        let c =
          Clause.make
            ~head:(rel "highGrossing" [ v "x" ])
            [ rel "movies" [ v "y"; v "t"; v "z" ]; rel "mov2genres" [ v "y"; s "comedy" ] ]
        in
        Alcotest.(check bool) "subsumed" true (Subsumption.subsumes_bool c (ground_d ())));
    Alcotest.test_case "equality literal satisfied through bindings" `Quick
      (fun () ->
        let c =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [
              rel "R" [ v "x"; v "y" ];
              rel "S" [ v "x"; v "z" ];
              Literal.Eq (v "y", v "z");
            ]
        in
        let d_good =
          Clause.make
            ~head:(rel "T" [ s "a" ])
            [ rel "R" [ s "a"; s "b" ]; rel "S" [ s "a"; s "b" ] ]
        in
        let d_bad =
          Clause.make
            ~head:(rel "T" [ s "a" ])
            [ rel "R" [ s "a"; s "b" ]; rel "S" [ s "a"; s "c" ] ]
        in
        Alcotest.(check bool) "good" true (Subsumption.subsumes_bool c d_good);
        Alcotest.(check bool) "bad" false (Subsumption.subsumes_bool c d_bad));
    Alcotest.test_case "similarity literal needs support in D" `Quick (fun () ->
        let c =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "R" [ v "y" ]; Literal.Sim (v "x", v "y") ]
        in
        let d_with =
          Clause.make
            ~head:(rel "T" [ s "a" ])
            [ rel "R" [ s "b" ]; Literal.Sim (s "a", s "b") ]
        in
        let d_without =
          Clause.make ~head:(rel "T" [ s "a" ]) [ rel "R" [ s "b" ] ]
        in
        Alcotest.(check bool) "with sim" true (Subsumption.subsumes_bool c d_with);
        Alcotest.(check bool) "without sim" false
          (Subsumption.subsumes_bool c d_without));
    Alcotest.test_case "repair connectivity (Def 4.4) enforced" `Quick (fun () ->
        let vab = s "v{a|b}" in
        let d =
          Clause.make
            ~head:(rel "T" [ s "a" ])
            [
              rel "R" [ s "b" ];
              Literal.Sim (s "a", s "b");
              Literal.Repair
                {
                  origin = Literal.From_md "m1";
                  group = 0;
                  cond = [ Cond.Csim (s "a", s "b") ];
                  subject = s "a";
                  replacement = vab;
                  drops = [ Literal.Sim (s "a", s "b") ];
                };
              Literal.Repair
                {
                  origin = Literal.From_md "m1";
                  group = 0;
                  cond = [ Cond.Csim (s "a", s "b") ];
                  subject = s "b";
                  replacement = vab;
                  drops = [ Literal.Sim (s "a", s "b") ];
                };
            ]
        in
        let c_without =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "R" [ v "y" ]; Literal.Sim (v "x", v "y") ]
        in
        Alcotest.(check bool) "fails without matching repairs" false
          (Subsumption.subsumes_bool c_without d);
        Alcotest.(check bool) "passes with connectivity disabled" true
          (Subsumption.subsumes_bool ~repair_connectivity:false c_without d);
        let sim = Literal.Sim (v "x", v "y") in
        let c_with =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            ([ rel "R" [ v "y" ]; sim ]
            @ md_group ~md:"m1" ~group:0 ~sims_of_left:[ sim ]
                ~sims_of_right:[ sim ]
                (v "x", v "vx")
                (v "y", v "vy")
                [ Cond.Csim (v "x", v "y") ])
        in
        Alcotest.(check bool) "succeeds with matching repairs" true
          (Subsumption.subsumes_bool c_with d));
    Alcotest.test_case "first-match witness follows body order" `Quick
      (fun () ->
        (* Subsumption.prepare buckets the target's literals by predicate
           (and repair origin) in body order, so the backtracking search
           tries the earlier literal first and the witness substitution is
           deterministic. Pins the candidate-enumeration order that the
           cons-then-reverse accumulation in [prepare] produces. *)
        let c =
          Clause.make ~head:(rel "q" [ v "h" ]) [ rel "p" [ v "x" ] ]
        in
        let d =
          Clause.make ~head:(rel "q" [ s "a" ]) [ rel "p" [ s "b" ]; rel "p" [ s "c" ] ]
        in
        (match Subsumption.subsumes_target c (Subsumption.prepare d) with
        | Subsumption.Subsumed theta ->
            Alcotest.(check bool) "x binds the first p literal" true
              (Substitution.find theta "x" = Some (s "b"))
        | _ -> Alcotest.fail "expected subsumption");
        (* Same order through repair-atom buckets. *)
        let mk subject replacement =
          Literal.Repair
            {
              origin = Literal.From_md "m";
              group = 0;
              cond = [];
              subject;
              replacement;
              drops = [];
            }
        in
        let c =
          Clause.make ~head:(rel "q" [ v "h" ]) [ mk (v "u") (v "r") ]
        in
        let d =
          Clause.make
            ~head:(rel "q" [ s "a" ])
            [ mk (s "b") (s "vb"); mk (s "c") (s "vc") ]
        in
        match
          Subsumption.subsumes_target ~repair_connectivity:false c
            (Subsumption.prepare d)
        with
        | Subsumption.Subsumed theta ->
            Alcotest.(check bool) "u binds the first repair literal" true
              (Substitution.find theta "u" = Some (s "b")
              && Substitution.find theta "r" = Some (s "vb"))
        | _ -> Alcotest.fail "expected subsumption over repair atoms");
    Alcotest.test_case "budget exhaustion is reported" `Quick (fun () ->
        let c =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "R" [ v "a"; v "b" ]; rel "R" [ v "c"; v "d" ] ]
        in
        let body =
          List.init 10 (fun i ->
              rel "R" [ s (string_of_int i); s (string_of_int (i + 1)) ])
        in
        let d = Clause.make ~head:(rel "T" [ s "0" ]) body in
        Alcotest.(check bool) "exhausted" true
          (Subsumption.subsumes ~budget:3 c d = Subsumption.Budget_exhausted));
    Alcotest.test_case "exhausted boolean verdicts are counted" `Quick
      (fun () ->
        let c =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "R" [ v "a"; v "b" ]; rel "R" [ v "c"; v "d" ] ]
        in
        let body =
          List.init 10 (fun i ->
              rel "R" [ s (string_of_int i); s (string_of_int (i + 1)) ])
        in
        let d = Clause.make ~head:(rel "T" [ s "0" ]) body in
        let exhausted = Dlearn_obs.Obs.counter "subsumption.exhausted" in
        let before = Dlearn_obs.Obs.value exhausted in
        Alcotest.(check bool) "decided: subsumed" true
          (Subsumption.subsumes_bool c d);
        Alcotest.(check int) "a decided verdict is not counted" before
          (Dlearn_obs.Obs.value exhausted);
        Alcotest.(check bool) "exhausted: not covered" false
          (Subsumption.subsumes_bool ~budget:1 c d);
        Alcotest.(check int) "counted once" (before + 1)
          (Dlearn_obs.Obs.value exhausted));
    Alcotest.test_case "exhausted target verdicts are counted" `Quick
      (fun () ->
        (* The prepared-target entry point coverage testing calls. *)
        let c =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "R" [ v "a"; v "b" ]; rel "R" [ v "c"; v "d" ] ]
        in
        let body =
          List.init 10 (fun i ->
              rel "R" [ s (string_of_int i); s (string_of_int (i + 1)) ])
        in
        let target =
          Subsumption.prepare (Clause.make ~head:(rel "T" [ s "0" ]) body)
        in
        let exhausted = Dlearn_obs.Obs.counter "subsumption.exhausted" in
        let before = Dlearn_obs.Obs.value exhausted in
        Alcotest.(check bool) "decided: subsumed" true
          (Subsumption.subsumes_target_bool c target);
        Alcotest.(check int) "a decided verdict is not counted" before
          (Dlearn_obs.Obs.value exhausted);
        Alcotest.(check bool) "exhausted: not covered" false
          (Subsumption.subsumes_target_bool ~budget:1 c target);
        Alcotest.(check int) "counted once" (before + 1)
          (Dlearn_obs.Obs.value exhausted));
    Alcotest.test_case "duplicate shared body literal expands twice" `Quick
      (fun () ->
        (* Regression: component solving used to drop EVERY physically
           shared occurrence of the selected literal, so a duplicated body
           literal cost one candidate expansion instead of two. Pin the
           budget spend: with 10 candidate facts per occurrence, a budget
           of 15 admits only the first expansion and must exhaust (the
           CSP kernel charges 10 per enumerated bucket), while 100
           suffices to subsume. The buggy search returned Subsumed
           within 15. *)
        let l = rel "p" [ v "x"; v "y" ] in
        let c = Clause.make ~head:(rel "T" [ v "h" ]) [ l; l ] in
        let body =
          List.init 10 (fun i ->
              rel "p" [ s (string_of_int i); s (string_of_int (i + 1)) ])
        in
        let d = Clause.make ~head:(rel "T" [ s "k" ]) body in
        Alcotest.(check bool)
          "budget 15 exhausts on the second occurrence" true
          (Subsumption.subsumes ~budget:15 c d = Subsumption.Budget_exhausted);
        Alcotest.(check bool)
          "budget 100 subsumes" true
          (match Subsumption.subsumes ~budget:100 c d with
          | Subsumption.Subsumed _ -> true
          | _ -> false));
    Alcotest.test_case "clause subsumes itself (with repairs)" `Quick (fun () ->
        let c = example_3_3 () in
        Alcotest.(check bool) "reflexive" true (Subsumption.subsumes_bool c c));
    Alcotest.test_case "connectivity failure backtracks into the search"
      `Quick (fun () ->
        (* Found by the engine differential (qcheck seed 6287191): C's
           only body atom maps onto p("a","d") first — an image the
           repair-connectivity condition rejects, because "d" is
           attached to an unmapped repair — but mapping onto p("e",mx)
           instead satisfies everything. The CSP kernel used to
           post-filter connectivity on its first witness and answer
           Not_subsumed; the condition must backtrack the search. *)
        let c =
          Clause.make
            ~head:(rel "t" [ v "my" ])
            [ Literal.Neq (v "mz", v "mx"); rel "p" [ v "mz"; v "mx" ] ]
        in
        let d =
          let sim = Literal.Sim (s "d", s "b") in
          let repair subject replacement =
            Literal.Repair
              {
                origin = Literal.From_md "gm";
                group = 9;
                cond = [ Cond.Csim (s "d", s "b") ];
                subject;
                replacement;
                drops = [ sim ];
              }
          in
          Clause.make
            ~head:(rel "t" [ v "mx" ])
            [
              rel "p" [ s "a"; s "d" ];
              rel "p" [ s "e"; v "mx" ];
              Literal.Neq (s "d", s "e");
              Literal.Eq (s "e", s "a");
              rel "p" [ v "my"; s "a" ];
              sim;
              repair (s "d") (v "gvx");
              repair (s "b") (v "gvy");
              Literal.Eq (v "gvx", v "gvy");
            ]
        in
        let subsumed = function
          | Subsumption.Subsumed _ -> true
          | _ -> false
        in
        Alcotest.(check bool)
          "csp: subsumed despite first-witness rejection" true
          (subsumed (Subsumption.subsumes ~repair_connectivity:true c d));
        Alcotest.(check bool)
          "sat: subsumed despite first-witness rejection" true
          (subsumed
             (Subsumption.subsumes_target_sat ~repair_connectivity:true c
                (Subsumption.prepare d)));
        Alcotest.(check bool) "naive agrees" true
          (match Subsumption.subsumes_naive ~repair_connectivity:true c d with
          | Subsumption.Subsumed _ -> true
          | _ -> false));
    Alcotest.test_case "equivalence modulo body order" `Quick (fun () ->
        let c1 =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "R" [ v "x"; v "y" ]; rel "S" [ v "y" ] ]
        in
        let c2 =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "S" [ v "y" ]; rel "R" [ v "x"; v "y" ] ]
        in
        Alcotest.(check bool) "equivalent" true (Subsumption.equivalent c1 c2));
    Alcotest.test_case "subsumption is not symmetric" `Quick (fun () ->
        let general =
          Clause.make ~head:(rel "T" [ v "x" ]) [ rel "R" [ v "x"; v "y" ] ]
        in
        let specific =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [ rel "R" [ v "x"; v "y" ]; rel "S" [ v "y" ] ]
        in
        Alcotest.(check bool) "general subsumes specific" true
          (Subsumption.subsumes_bool general specific);
        Alcotest.(check bool) "specific does not subsume general" false
          (Subsumption.subsumes_bool specific general));
  ]

let repair_tests =
  [
    Alcotest.test_case "example 3.2: one repaired clause" `Quick (fun () ->
        let repaired = Clause_repair.repaired_clauses (example_3_2 ()) in
        Alcotest.(check int) "1 repair" 1 (List.length repaired);
        let expected =
          Clause.make
            ~head:(rel "highGrossing" [ v "vx" ])
            [
              rel "movies" [ v "y"; v "vt"; v "z" ];
              rel "mov2genres" [ v "y"; s "comedy" ];
              rel "highBudgetMovies" [ v "vx" ];
              Literal.Eq (v "vx", v "vt");
            ]
        in
        Alcotest.(check bool) "matches paper" true
          (contains_clause repaired expected));
    Alcotest.test_case "example 3.3: two repaired clauses" `Quick (fun () ->
        let repaired = Clause_repair.repaired_clauses (example_3_3 ()) in
        Alcotest.(check int) "2 repairs" 2 (List.length repaired);
        let h1 =
          Clause.make
            ~head:(rel "T" [ v "vx" ])
            [ rel "R" [ v "vy" ]; Literal.Eq (v "vx", v "vy"); rel "S" [ v "z" ] ]
        in
        let h2 =
          Clause.make
            ~head:(rel "T" [ v "ux" ])
            [ rel "R" [ v "y" ]; rel "S" [ v "vz" ]; Literal.Eq (v "ux", v "vz") ]
        in
        Alcotest.(check bool) "H'1 produced" true (contains_clause repaired h1);
        Alcotest.(check bool) "H'2 produced" true (contains_clause repaired h2));
    Alcotest.test_case "example 3.3: repairs in discovery order" `Quick
      (fun () ->
        (* Both MD groups touch x, so the order branches, lower group id
           first: firing m1 (x := vx) yields H'1, firing m2 (x := ux)
           yields H'2. *)
        match Clause_repair.repaired_clauses (example_3_3 ()) with
        | [ first; second ] ->
            Alcotest.(check string) "H'1 first" "T(vx)"
              (Literal.to_string first.Clause.head);
            Alcotest.(check string) "H'2 second" "T(ux)"
              (Literal.to_string second.Clause.head)
        | other -> Alcotest.failf "expected 2, got %d" (List.length other));
    Alcotest.test_case "repair-free clause repairs to itself" `Quick (fun () ->
        let c =
          Clause.make ~head:(rel "T" [ v "x" ]) [ rel "R" [ v "x"; v "y" ] ]
        in
        match Clause_repair.repaired_clauses c with
        | [ c' ] -> Alcotest.(check bool) "same" true (Clause.equal c c')
        | other -> Alcotest.failf "expected 1, got %d" (List.length other));
    Alcotest.test_case "md repair with false condition just disappears" `Quick
      (fun () ->
        (* No similarity literal in the clause: the condition x ~ t fails. *)
        let x = v "x" and t = v "t" in
        let c =
          Clause.make
            ~head:(rel "T" [ x ])
            ([ rel "R" [ t ] ]
            @ md_group ~md:"m" ~group:0 ~sims_of_left:[] ~sims_of_right:[]
                (x, v "vx") (t, v "vt")
                [ Cond.Csim (x, t) ])
        in
        match Clause_repair.repaired_clauses c with
        | [ c' ] ->
            Alcotest.(check int) "only R remains" 1 (Clause.body_size c');
            Alcotest.(check bool) "head unchanged" true
              (Literal.equal c'.Clause.head (rel "T" [ x ]))
        | other -> Alcotest.failf "expected 1, got %d" (List.length other));
    Alcotest.test_case "cfd group yields one repair per alternative" `Quick
      (fun () ->
        (* A violation of (title -> country): two alternatives for the RHS. *)
        let z = v "z" and t = v "t" in
        let cond = [ Cond.Cneq (z, t) ] in
        let mk subject replacement =
          Literal.Repair
            {
              origin = Literal.From_cfd "phi1";
              group = 0;
              cond;
              subject;
              replacement;
              drops = [];
            }
        in
        let c =
          Clause.make
            ~head:(rel "T" [ v "x" ])
            [
              rel "loc" [ v "x"; z ];
              rel "loc" [ v "x"; t ];
              mk z t;
              mk t z;
            ]
        in
        let repaired = Clause_repair.repaired_clauses c in
        Alcotest.(check int) "2 alternatives" 2 (List.length repaired);
        List.iter
          (fun c' ->
            Alcotest.(check bool) "violation resolved: both loc literals equal"
              true
              (match Clause.rel_body (Clause.canonical c') with
              | [ _one ] -> true
              | _ -> false))
          repaired);
    Alcotest.test_case "cfd_applications leaves md repairs in place" `Quick
      (fun () ->
        let c = example_3_3 () in
        match Clause_repair.cfd_applications c with
        | [ c' ] ->
            Alcotest.(check int) "md repairs kept" 4
              (List.length (Clause.repair_body c'))
        | other -> Alcotest.failf "expected 1, got %d" (List.length other));
    Alcotest.test_case "condition-only twins share a state, as in canonical"
      `Quick (fun () ->
        (* [Literal.compare] ignores repair conditions, so
           [Clause.canonical] keeps one of two repair literals that differ
           only there. Firing the kept twin's sibling reaches a state whose
           canonical form is the parent's, which is then not explored
           again; the enumerator must count states the same way, whether
           the twins are in the clause from the start or a substitution
           makes them (x := y turns V(x, y) into a twin of V(y, y)). *)
        let x = v "x" and y = v "y" and p = v "p" in
        let mk ?(origin = "phi") ?(group = 0) subject replacement cond =
          Literal.Repair
            {
              origin = Literal.From_cfd origin;
              group;
              cond;
              subject;
              replacement;
              drops = [];
            }
        in
        let plain = mk y y [] and guarded = mk y y [ Cond.Ceq (p, p) ] in
        let merge = mk ~origin:"psi" ~group:1 x y [] in
        let made = mk x y [ Cond.Ceq (p, p) ] in
        List.iter
          (fun repairs ->
            let c =
              Clause.make
                ~head:(rel "T" [ x ])
                ([ rel "loc" [ x ]; rel "loc" [ y ]; rel "r" [ p ] ] @ repairs)
            in
            List.iter
              (fun cfd ->
                match
                  Repair_oracle.disagreement ~cfd ~state_cap:512 ~result_cap:16 c
                with
                | None -> ()
                | Some why -> Alcotest.fail why)
              [ false; true ])
          [
            [ plain; guarded ];
            [ guarded; plain ];
            [ merge; made; plain ];
            [ plain; made; merge ];
          ]);
    Alcotest.test_case "is_repaired" `Quick (fun () ->
        Alcotest.(check bool) "with repairs" false
          (Clause_repair.is_repaired (example_3_2 ()));
        List.iter
          (fun c ->
            Alcotest.(check bool) "repaired" true (Clause_repair.is_repaired c))
          (Clause_repair.repaired_clauses (example_3_2 ())));
  ]

let definition_tests =
  [
    Alcotest.test_case "add enforces target" `Quick (fun () ->
        let d = Definition.empty "T" in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Definition.add d
                  (Clause.make ~head:(rel "U" [ v "x" ]) []));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "repaired definitions take the product" `Quick (fun () ->
        let d = Definition.empty "T" in
        let d = Definition.add d (example_3_3 ()) in
        let d =
          Definition.add d
            (Clause.make ~head:(rel "T" [ v "x" ]) [ rel "R" [ v "x" ] ])
        in
        Alcotest.(check int) "2 x 1 repaired definitions" 2
          (List.length (Definition.repaired_definitions d)));
    Alcotest.test_case "to_string mentions every clause" `Quick (fun () ->
        let d = Definition.empty "T" in
        let d =
          Definition.add d (Clause.make ~head:(rel "T" [ v "x" ]) [ rel "R" [ v "x" ] ])
        in
        Alcotest.(check bool) "contains R" true
          (String.length (Definition.to_string d) > 0));
  ]

(* Random ground clause generator for property tests. *)
let clause_gen =
  let open QCheck.Gen in
  let const = map (fun c -> Term.str (String.make 1 c)) (char_range 'a' 'e') in
  let lit =
    oneof
      [
        map2 (fun t1 t2 -> rel "p" [ t1; t2 ]) const const;
        map (fun t -> rel "q" [ t ]) const;
        map2 (fun t1 t2 -> Literal.Sim (t1, t2)) const const;
      ]
  in
  let* body = list_size (0 -- 6) lit in
  let* head_arg = const in
  return (Clause.make ~head:(rel "t" [ head_arg ]) body)

let clause_arb = QCheck.make ~print:Clause.to_string clause_gen

(* Clauses with well-formed MD repair groups, for properties that need
   repair literals. *)
let repair_clause_gen =
  let open QCheck.Gen in
  let const = map (fun c -> Term.str (String.make 1 c)) (char_range 'a' 'e') in
  let* base = clause_gen in
  let* x = const and* y = const in
  let* add_group = bool in
  if (not add_group) || Term.equal x y then return base
  else begin
    let sim = Literal.Sim (x, y) in
    let vx = v "gvx" and vy = v "gvy" in
    let group =
      [ sim ]
      @ md_group ~md:"gm" ~group:99 ~sims_of_left:[ sim ] ~sims_of_right:[ sim ]
          (x, vx) (y, vy)
          [ Cond.Csim (x, y) ]
    in
    return { base with Clause.body = base.Clause.body @ group }
  end

let repair_clause_arb = QCheck.make ~print:Clause.to_string repair_clause_gen

(* Clauses mixing variable/constant schema atoms, constant-argument
   similarity literals, Eq/Neq check literals over variables and
   constants, and an optional well-formed MD repair group — the full
   literal grammar the subsumption engines must agree on. *)
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

(* Clauses with several repair groups over shared terms — overlapping MD
   groups, CFD alternatives whose conditions mention MD-rewritten terms,
   group ids out of body order — so enumeration branches, memoises and
   hits its caps. Sometimes a repair literal is repeated with another
   condition: [Literal.compare] ignores conditions, [Literal.equal] does
   not, so such a pair is one literal to [Clause.canonical]. *)
let dense_repair_clause_gen =
  let open QCheck.Gen in
  let const = map (fun c -> Term.str (String.make 1 c)) (char_range 'a' 'e') in
  let var = map Term.var (oneofl [ "mx"; "my"; "mz" ]) in
  let term = oneof [ const; var ] in
  let lit =
    frequency
      [
        (3, map2 (fun t1 t2 -> rel "p" [ t1; t2 ]) term term);
        (2, map (fun t -> rel "q" [ t ]) term);
        (1, map2 (fun a b -> Literal.Eq (a, b)) term term);
      ]
  in
  let* body = list_size (1 -- 5) lit in
  let* head_arg = term in
  let* gids = shuffle_l [ 0; 1; 2; 3; 4; 5 ] in
  let md i gid =
    let* x = term and* y = term in
    let sim = Literal.Sim (x, y) in
    let vx = v (Printf.sprintf "g%dx" i)
    and vy = v (Printf.sprintf "g%dy" i) in
    return
      (sim
      :: md_group ~md:(Printf.sprintf "m%d" (i mod 2)) ~group:gid
           ~sims_of_left:[ sim ] ~sims_of_right:[ sim ] (x, vx) (y, vy)
           [ Cond.Csim (x, y) ])
  in
  let cfd gid =
    let* z = term and* t = term and* a = term and* b = term in
    let* guarded = bool in
    let cond =
      (if guarded then [ Cond.Ceq (a, b) ] else []) @ [ Cond.Cneq (z, t) ]
    in
    let mk subject replacement =
      Literal.Repair
        {
          origin = Literal.From_cfd "phi";
          group = gid;
          cond;
          subject;
          replacement;
          drops = [];
        }
    in
    return [ rel "loc" [ z ]; rel "loc" [ t ]; mk z t; mk t z ]
  in
  let* nmd = 0 -- 3 and* ncfd = 0 -- 2 in
  let* mds = flatten_l (List.init nmd (fun i -> md i (List.nth gids i))) in
  let* cfds =
    flatten_l (List.init ncfd (fun i -> cfd (List.nth gids (3 + i))))
  in
  let* twin = bool in
  let groups = List.concat (mds @ cfds) in
  let twins =
    match List.find_opt Literal.is_repair groups with
    | Some (Literal.Repair r) when twin ->
        let cond = Cond.Csim (r.subject, r.replacement) :: r.cond in
        [ Literal.Repair { r with cond } ]
    | _ -> []
  in
  let* order = shuffle_l (body @ groups @ twins) in
  return (Clause.make ~head:(rel "t" [ head_arg ]) order)

let dense_repair_clause_arb =
  QCheck.make ~print:Clause.to_string dense_repair_clause_gen

(* The enumerator against the reference oracle in repair_oracle.ml, at caps
   small enough to cut most enumerations short. *)
let differential_test name arb =
  let caps =
    QCheck.pair
      (QCheck.oneofl ~print:string_of_int [ 1; 4; 16; 512 ])
      (QCheck.oneofl ~print:string_of_int [ 1; 2; 16 ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:300 (QCheck.triple arb caps QCheck.bool)
       (fun (c, (state_cap, result_cap), cfd) ->
         match Repair_oracle.disagreement ~cfd ~state_cap ~result_cap c with
         | None -> true
         | Some why -> QCheck.Test.fail_reportf "%s" why))

(* Repair-free clauses exercising the whole concrete grammar of
   lib/logic/parser.mli — which claims to be the inverse of
   Clause.to_string: multi-char identifiers with digits/underscores/primes,
   string constants containing quotes, backslashes and spaces, signed
   integers, and floats with a fractional part (integral floats print
   without a dot and would re-parse as ints). *)
let printable_clause_gen =
  let open QCheck.Gen in
  let ident =
    oneofl [ "x"; "y0"; "long_name"; "z'"; "V"; "_tmp" ] |> map Term.var
  in
  let string_const =
    let chars =
      oneofl [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '~'; '('; ','; '-' ]
    in
    map (fun s -> Term.str s) (string_size ~gen:chars (0 -- 8))
  in
  let int_const = map (fun i -> Term.const (Dlearn_relation.Value.Int i)) (-100 -- 100) in
  let float_const =
    map
      (fun k -> Term.const (Dlearn_relation.Value.Float (float_of_int ((2 * k) + 1) /. 4.)))
      (-20 -- 20)
  in
  let term = oneof [ ident; ident; string_const; int_const; float_const ] in
  let atom =
    let* pred = oneofl [ "p"; "q"; "rel_2" ] in
    let* arity = 1 -- 3 in
    let* args = list_repeat arity term in
    return (rel pred args)
  in
  let lit =
    frequency
      [
        (3, atom);
        (1, map2 (fun a b -> Literal.Sim (a, b)) term term);
        (1, map2 (fun a b -> Literal.Eq (a, b)) term term);
        (1, map2 (fun a b -> Literal.Neq (a, b)) term term);
      ]
  in
  let* body = list_size (0 -- 8) lit in
  let* head_args = list_size (1 -- 2) term in
  return (Clause.make ~head:(rel "head_pred" head_args) body)

let printable_clause_arb =
  QCheck.make ~print:Clause.to_string printable_clause_gen

let qcheck_tests =
  [
    differential_test "repair enumeration matches the oracle (repair clauses)"
      repair_clause_arb;
    differential_test "repair enumeration matches the oracle (mixed clauses)"
      mixed_clause_arb;
    differential_test
      "repair enumeration matches the oracle (dense repair groups)"
      dense_repair_clause_arb;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Parser.clause inverts Clause.to_string"
         ~count:1000 printable_clause_arb (fun c ->
           match Parser.clause (Clause.to_string c) with
           | Ok c' -> Clause.equal c c'
           | Error msg ->
               QCheck.Test.fail_reportf "re-parse failed: %s" msg));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"repaired clauses carry no repair literals"
         ~count:200 repair_clause_arb (fun c ->
           List.for_all Clause_repair.is_repaired
             (Clause_repair.repaired_clauses c)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"cfd_applications keep only MD repair literals" ~count:200
         repair_clause_arb (fun c ->
           Clause_repair.cfd_applications c
           |> List.for_all (fun c' ->
                  List.for_all
                    (function
                      | Literal.Repair { origin = Literal.From_cfd _; _ } ->
                          false
                      | _ -> true)
                    c'.Clause.body)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"subsumption engines agree on clauses with repairs" ~count:200
         (QCheck.pair repair_clause_arb repair_clause_arb) (fun (c, d) ->
           let norm = function
             | Subsumption.Subsumed _ -> `Yes
             | Subsumption.Not_subsumed -> `No
             | Subsumption.Budget_exhausted -> `Maybe
           in
           match
             ( norm (Subsumption.subsumes ~budget:500_000 c d),
               norm (Subsumption.subsumes_naive ~budget:500_000 c d) )
           with
           | `Maybe, _ | _, `Maybe -> true
           | a, b -> a = b));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"clauses with repairs subsume themselves"
         ~count:200 repair_clause_arb (fun c -> Subsumption.subsumes_bool c c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"subsumption is reflexive" ~count:200 clause_arb
         (fun c -> Subsumption.subsumes_bool c c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"adding a body literal preserves subsumption"
         ~count:200 clause_arb (fun c ->
           let extra = rel "p" [ Term.str "zz1"; Term.str "zz2" ] in
           let d = { c with Clause.body = extra :: c.Clause.body } in
           Subsumption.subsumes_bool c d));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"head_connected is idempotent" ~count:200 clause_arb
         (fun c ->
           let once = Clause.head_connected c in
           Clause.equal once (Clause.head_connected once)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"canonical is idempotent" ~count:200 clause_arb
         (fun c ->
           let once = Clause.canonical c in
           Clause.equal once (Clause.canonical once)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"repair-free clauses are their own repair"
         ~count:200 clause_arb (fun c ->
           match Clause_repair.repaired_clauses c with
           | [ c' ] ->
               Clause.equal
                 (Clause.canonical (Clause.remove_dangling_restrictions c))
                 (Clause.canonical c')
           | _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"decomposed search agrees with the naive oracle"
         ~count:300 (QCheck.pair clause_arb clause_arb) (fun (c, d) ->
           let norm = function
             | Subsumption.Subsumed _ -> `Yes
             | Subsumption.Not_subsumed -> `No
             | Subsumption.Budget_exhausted -> `Maybe
           in
           match
             ( norm (Subsumption.subsumes ~budget:500_000 c d),
               norm (Subsumption.subsumes_naive ~budget:500_000 c d) )
           with
           | `Maybe, _ | _, `Maybe -> true
           | a, b -> a = b));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"csp, sat and naive engines agree (budgets, connectivity)"
         ~count:500
         (QCheck.triple mixed_clause_arb mixed_clause_arb QCheck.bool)
         (fun (c, d, rc) ->
           (* Every definite answer — the CSP kernel, the SAT rescue run
              alone, or the naive oracle, at full or tiny budget, with or
              without the repair-connectivity condition — must agree:
              budget exhaustion may differ between searches (they spend
              in different places), but a definite verdict never depends
              on the search or the budget. *)
           let norm = function
             | Subsumption.Subsumed _ -> `Yes
             | Subsumption.Not_subsumed -> `No
             | Subsumption.Budget_exhausted -> `Maybe
           in
           let outcomes budget =
             [
               Subsumption.subsumes ~budget ~repair_connectivity:rc c d;
               Subsumption.subsumes_target_sat ~budget ~repair_connectivity:rc
                 c (Subsumption.prepare d);
               Subsumption.subsumes_naive ~budget ~repair_connectivity:rc c d;
             ]
           in
           let verdicts =
             List.map norm (outcomes 500_000 @ outcomes 60)
             |> List.filter (fun o -> o <> `Maybe)
           in
           match verdicts with
           | [] -> true
           | first :: rest -> List.for_all (fun o -> o = first) rest));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"subsumption transitivity (sampled)" ~count:100
         (QCheck.pair clause_arb clause_arb) (fun (c, d) ->
           (* c vs c-with-extra vs d: if c <= d and d <= e then c <= e, where
              e extends d. *)
           let e = { d with Clause.body = rel "q" [ Term.str "k" ] :: d.Clause.body } in
           if Subsumption.subsumes_bool c d && Subsumption.subsumes_bool d e then
             Subsumption.subsumes_bool c e
           else true));
  ]


let armg_module_tests =
  let ground =
    Clause.make
      ~head:(rel "t" [ s "a" ])
      [
        rel "p" [ s "a"; s "b" ];
        rel "p" [ s "a"; s "c" ];
        rel "q" [ s "b" ];
        Literal.Sim (s "b", s "c");
      ]
  in
  let target = Subsumption.prepare ground in
  [
    Alcotest.test_case "head_unify binds head variables" `Quick (fun () ->
        match Subsumption.Armg.head_unify target (rel "t" [ v "x" ]) with
        | Some th ->
            Alcotest.(check bool) "x -> a" true
              (Term.equal (Substitution.apply_term th (v "x")) (s "a"))
        | None -> Alcotest.fail "expected unification");
    Alcotest.test_case "head_unify rejects wrong predicate" `Quick (fun () ->
        Alcotest.(check bool) "none" true
          (Subsumption.Armg.head_unify target (rel "u" [ v "x" ]) = None));
    Alcotest.test_case "extend enumerates matching literals" `Quick (fun () ->
        let th = Substitution.singleton "x" (s "a") in
        let exts =
          Subsumption.Armg.extend target th (rel "p" [ v "x"; v "y" ])
        in
        Alcotest.(check int) "two candidates" 2 (List.length exts));
    Alcotest.test_case "extend respects bound variables" `Quick (fun () ->
        let th = Substitution.of_list [ ("x", s "a"); ("y", s "b") ] in
        let exts =
          Subsumption.Armg.extend target th (rel "p" [ v "x"; v "y" ])
        in
        Alcotest.(check int) "one candidate" 1 (List.length exts));
    Alcotest.test_case "check evaluates bound restrictions" `Quick (fun () ->
        let th = Substitution.of_list [ ("x", s "b"); ("y", s "b") ] in
        Alcotest.(check bool) "eq sat" true
          (Subsumption.Armg.check target th (Literal.Eq (v "x", v "y")) = `Sat);
        Alcotest.(check bool) "neq unsat" true
          (Subsumption.Armg.check target th (Literal.Neq (v "x", v "y")) = `Unsat);
        Alcotest.(check bool) "unbound unknown" true
          (Subsumption.Armg.check target Substitution.empty
             (Literal.Eq (v "x", v "y"))
          = `Unknown));
  ]

let printing_tests =
  [
    Alcotest.test_case "terms print distinctly" `Quick (fun () ->
        Alcotest.(check string) "var" "x" (Term.to_string (v "x"));
        Alcotest.(check string) "string const quoted" "\"a\"" (Term.to_string (s "a")));
    Alcotest.test_case "literal printing is readable" `Quick (fun () ->
        Alcotest.(check string) "rel" "p(x, \"a\")"
          (Literal.to_string (rel "p" [ v "x"; s "a" ]));
        Alcotest.(check string) "sim" "x ~ y"
          (Literal.to_string (Literal.Sim (v "x", v "y"))));
    Alcotest.test_case "cond printing" `Quick (fun () ->
        Alcotest.(check string) "true" "true" (Cond.to_string []);
        Alcotest.(check string) "conjunction" "x = y & x != z"
          (Cond.to_string [ Cond.Ceq (v "x", v "y"); Cond.Cneq (v "x", v "z") ]));
    Alcotest.test_case "cond vars and map_terms" `Quick (fun () ->
        let c = [ Cond.Csim (v "x", v "y"); Cond.Ceq (v "x", s "k") ] in
        Alcotest.(check (list string)) "vars" [ "x"; "y" ] (Cond.vars c);
        let c2 = Cond.map_terms (fun t -> if Term.equal t (v "x") then v "z" else t) c in
        Alcotest.(check bool) "renamed" true
          (Cond.equal c2 [ Cond.Csim (v "z", v "y"); Cond.Ceq (v "z", s "k") ]));
    Alcotest.test_case "literal map_terms reaches repair internals" `Quick
      (fun () ->
        let r =
          Literal.Repair
            {
              origin = Literal.From_md "m";
              group = 0;
              cond = [ Cond.Csim (v "x", v "y") ];
              subject = v "x";
              replacement = v "vx";
              drops = [ Literal.Sim (v "x", v "y") ];
            }
        in
        let renamed =
          Literal.map_terms (fun t -> if Term.equal t (v "x") then v "z" else t) r
        in
        match renamed with
        | Literal.Repair rr ->
            Alcotest.(check bool) "subject renamed" true (Term.equal rr.Literal.subject (v "z"));
            Alcotest.(check bool) "cond renamed" true
              (Cond.equal rr.Literal.cond [ Cond.Csim (v "z", v "y") ]);
            Alcotest.(check bool) "drops renamed" true
              (match rr.Literal.drops with
              | [ Literal.Sim (a, _) ] -> Term.equal a (v "z")
              | _ -> false)
        | _ -> Alcotest.fail "not a repair");
  ]


(* A CFD violation induced by an MD repair: locale(x, USA) and
   locale(y, Ireland) violate (id -> country) only once the MD unifies x
   and y. The repair literal's condition references the terms the MD
   replaces, so it stays inert unless the MD fires first — and in the
   repair where it does fire, the induced violation gets repaired too. *)
let induced_violation_clause () =
  let x = v "x" and y = v "y" in
  let vx = v "vx" and vy = v "vy" in
  let usa = s "USA" and irl = s "Ireland" in
  let sim = Literal.Sim (x, y) in
  Clause.make
    ~head:(rel "T" [ x ])
    ([
       rel "locale" [ x; usa ];
       rel "locale" [ y; irl ];
       sim;
     ]
    @ md_group ~md:"ids" ~group:0 ~sims_of_left:[ sim ] ~sims_of_right:[ sim ]
        (x, vx) (y, vy)
        [ Cond.Csim (x, y) ]
    @ [
        (* Induced CFD repairs: only applicable once x = y holds, which the
           MD's application establishes (vx = vy). *)
        Literal.Repair
          {
            origin = Literal.From_cfd "id_country";
            group = 1;
            cond = [ Cond.Ceq (x, y); Cond.Cneq (usa, irl) ];
            subject = usa;
            replacement = irl;
            drops = [];
          };
        Literal.Repair
          {
            origin = Literal.From_cfd "id_country";
            group = 1;
            cond = [ Cond.Ceq (x, y); Cond.Cneq (usa, irl) ];
            subject = irl;
            replacement = usa;
            drops = [];
          };
      ])

let induced_tests =
  [
    Alcotest.test_case "induced CFD repair fires only after the MD" `Quick
      (fun () ->
        let repaired = Clause_repair.repaired_clauses (induced_violation_clause ()) in
        (* The MD fires (condition holds), unifying x and y; then the CFD
           group offers two alternatives (country := USA or Ireland). *)
        Alcotest.(check int) "two repairs" 2 (List.length repaired);
        List.iter
          (fun c ->
            let countries =
              List.filter_map
                (function
                  | Literal.Rel { pred = "locale"; args } -> Some args.(1)
                  | _ -> None)
                c.Clause.body
            in
            match countries with
            | [ a; b ] ->
                Alcotest.(check bool) "countries unified" true (Term.equal a b)
            | _ -> Alcotest.fail "expected two locale literals")
          repaired);
    Alcotest.test_case "without the MD the induced repair never fires" `Quick
      (fun () ->
        (* Strip the MD group: the CFD condition x = y never holds, so the
           conflicting countries legitimately coexist (they belong to
           different ids). *)
        let c = induced_violation_clause () in
        let body =
          List.filter
            (fun l ->
              match l with
              | Literal.Repair { origin = Literal.From_md _; _ } -> false
              | Literal.Eq _ -> false
              | _ -> true)
            c.Clause.body
        in
        match Clause_repair.repaired_clauses { c with Clause.body } with
        | [ r ] ->
            let countries =
              List.filter_map
                (function
                  | Literal.Rel { pred = "locale"; args } -> Some args.(1)
                  | _ -> None)
                r.Clause.body
            in
            Alcotest.(check bool) "countries stay distinct" true
              (match countries with
              | [ a; b ] -> not (Term.equal a b)
              | _ -> false)
        | other -> Alcotest.failf "expected 1 repair, got %d" (List.length other));
  ]

let () =
  Alcotest.run "logic"
    [
      ("clause", clause_tests);
      ("clause_env", env_tests);
      ("substitution", substitution_tests);
      ("subsumption", subsumption_tests);
      ("clause_repair", repair_tests);
      ("definition", definition_tests);
      ("armg", armg_module_tests);
      ("induced_violations", induced_tests);
      ("printing", printing_tests);
      ("properties", qcheck_tests);
    ]
