open Dlearn_relation
open Dlearn_constraints

let pattern_fits domain = function
  | Cfd.Wildcard -> true
  | Cfd.Const v -> (
      match v, domain with
      | Value.Null, _ -> true
      | Value.Int _, Schema.Dint
      | Value.Float _, Schema.Dfloat
      | Value.String _, Schema.Dstring ->
          true
      | (Value.Int _ | Value.Float _ | Value.String _), _ -> false)

(* One CFD against the catalog: DL301/DL302/DL303/DL307. *)
let check_cfd db (cfd : Cfd.t) =
  let subject = Diagnostic.Constraint cfd.Cfd.id in
  match Database.find_opt db cfd.Cfd.relation with
  | None ->
      [
        Diagnostic.error ~code:"DL301" ~subject ~witness:cfd.Cfd.relation
          (Printf.sprintf "CFD ranges over relation %s, which is not in \
                           the catalog" cfd.Cfd.relation);
      ]
  | Some relation ->
      let schema = Relation.schema relation in
      let entries = cfd.Cfd.rhs :: cfd.Cfd.lhs in
      let missing, typed =
        List.partition
          (fun (attr, _) ->
            match Schema.position schema attr with
            | (_ : int) -> false
            | exception Not_found -> true)
          entries
      in
      let missing_ds =
        List.map
          (fun (attr, _) ->
            Diagnostic.error ~code:"DL302" ~subject
              ~witness:(Printf.sprintf "%s.%s" cfd.Cfd.relation attr)
              (Printf.sprintf "CFD references attribute %s, which \
                               relation %s does not have" attr
                 cfd.Cfd.relation))
          missing
      in
      let pattern_ds =
        List.filter_map
          (fun (attr, pattern) ->
            let domain = Schema.domain schema (Schema.position schema attr) in
            if pattern_fits domain pattern then None
            else
              Some
                (Diagnostic.warning ~code:"DL303" ~subject
                   ~witness:
                     (Printf.sprintf "pattern %s at %s.%s"
                        (match pattern with
                        | Cfd.Const v -> Value.to_string v
                        | Cfd.Wildcard -> "-")
                        cfd.Cfd.relation attr)
                   (Printf.sprintf
                      "pattern constant cannot match the %s domain of \
                       %s.%s; the CFD never applies"
                      (Schema.domain_to_string domain) cfd.Cfd.relation attr)))
          typed
      in
      let empty_ds =
        if Relation.cardinality relation = 0 then
          [
            Diagnostic.hint ~code:"DL307" ~subject ~witness:cfd.Cfd.relation
              (Printf.sprintf "relation %s is empty; the CFD is vacuously \
                               satisfied" cfd.Cfd.relation);
          ]
        else []
      in
      missing_ds @ pattern_ds @ empty_ds

(* DL304: unsatisfiable CFD sets, witnessed by a minimal core. *)
let check_cfd_satisfiability cfds =
  Consistency.inconsistent_cores cfds
  |> List.map (fun core ->
         let relation =
           match core with c :: _ -> c.Cfd.relation | [] -> assert false
         in
         Diagnostic.error ~code:"DL304"
           ~subject:(Diagnostic.Relation relation)
           ~witness:(String.concat "; " (List.map Cfd.to_string core))
           (Printf.sprintf
              "the CFD set over relation %s is unsatisfiable: no \
               non-empty instance can satisfy all of %s"
              relation
              (String.concat ", " (List.map (fun c -> c.Cfd.id) core))))

(* Pattern p1 is at least as general as p2. *)
let pattern_geq p1 p2 =
  match p1, p2 with
  | Cfd.Wildcard, _ -> true
  | Cfd.Const a, Cfd.Const b -> Value.equal a b
  | Cfd.Const _, Cfd.Wildcard -> false

(* [subsumes c1 c2]: every violation of c2 is a violation of c1, so
   enforcing c1 makes c2 redundant. Sound criterion: same relation and
   right-hand side, lhs(c1) ⊆ lhs(c2) with patterns at least as
   general. *)
let subsumes (c1 : Cfd.t) (c2 : Cfd.t) =
  String.equal c1.Cfd.relation c2.Cfd.relation
  && String.equal (fst c1.Cfd.rhs) (fst c2.Cfd.rhs)
  && (match snd c1.Cfd.rhs, snd c2.Cfd.rhs with
     | Cfd.Wildcard, Cfd.Wildcard -> true
     | Cfd.Const a, Cfd.Const b -> Value.equal a b
     | (Cfd.Wildcard | Cfd.Const _), _ -> false)
  && List.for_all
       (fun (attr, p1) ->
         match List.assoc_opt attr c2.Cfd.lhs with
         | Some p2 -> pattern_geq p1 p2
         | None -> false)
       c1.Cfd.lhs

(* DL305: report each CFD subsumed by an earlier-or-distinct one; when two
   CFDs subsume each other (duplicates) only the later is reported. *)
let check_cfd_redundancy cfds =
  let arr = Array.of_list cfds in
  let n = Array.length arr in
  let ds = ref [] in
  for j = 0 to n - 1 do
    let redundant_because = ref None in
    for i = 0 to n - 1 do
      if
        !redundant_because = None && i <> j
        && subsumes arr.(i) arr.(j)
        && not (subsumes arr.(j) arr.(i) && i > j)
      then redundant_because := Some arr.(i)
    done;
    match !redundant_because with
    | Some by ->
        ds :=
          Diagnostic.warning ~code:"DL305"
            ~subject:(Diagnostic.Constraint arr.(j).Cfd.id)
            ~witness:(Printf.sprintf "subsumed by %s" (Cfd.to_string by))
            (Printf.sprintf
               "CFD %s is redundant: %s already enforces it" arr.(j).Cfd.id
               by.Cfd.id)
          :: !ds
    | None -> ()
  done;
  List.rev !ds

(* DL306: duplicate identifiers within a constraint kind. *)
let check_duplicate_ids kind ids =
  let rec go seen = function
    | [] -> []
    | id :: rest ->
        if List.mem id seen then
          Diagnostic.warning ~code:"DL306"
            ~subject:(Diagnostic.Constraint id)
            (Printf.sprintf "duplicate %s identifier %s; repair literals \
                             record constraints by id and would conflate \
                             them" kind id)
          :: go seen rest
        else go (id :: seen) rest
  in
  go [] ids

(* One MD against the catalog: DL310/DL311/DL312/DL313/DL307. *)
let check_md db (md : Md.t) =
  let subject = Diagnostic.Constraint md.Md.id in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let relation_schema rel =
    match Database.find_opt db rel with
    | None ->
        add
          (Diagnostic.error ~code:"DL310" ~subject ~witness:rel
             (Printf.sprintf "MD ranges over relation %s, which is not in \
                              the catalog" rel));
        None
    | Some relation ->
        if Relation.cardinality relation = 0 then
          add
            (Diagnostic.hint ~code:"DL307" ~subject ~witness:rel
               (Printf.sprintf "relation %s is empty; the MD is vacuously \
                                satisfied" rel));
        Some (Relation.schema relation)
  in
  let left_schema = relation_schema md.Md.left_rel in
  let right_schema = relation_schema md.Md.right_rel in
  let check_attr schema rel attr =
    match schema with
    | None -> ()
    | Some schema -> (
        match Schema.position schema attr with
        | pos ->
            let domain = Schema.domain schema pos in
            if domain <> Schema.Dstring then
              add
                (Diagnostic.error ~code:"DL312" ~subject
                   ~witness:
                     (Printf.sprintf "%s.%s is %s" rel attr
                        (Schema.domain_to_string domain))
                   (Printf.sprintf
                      "MD compares or unifies %s.%s, which is not \
                       string-typed; the similarity operator is defined \
                       on string domains"
                      rel attr))
        | exception Not_found ->
            add
              (Diagnostic.error ~code:"DL311" ~subject
                 ~witness:(Printf.sprintf "%s.%s" rel attr)
                 (Printf.sprintf "MD references attribute %s, which \
                                  relation %s does not have" attr rel)))
  in
  List.iter
    (fun (a, b) ->
      check_attr left_schema md.Md.left_rel a;
      check_attr right_schema md.Md.right_rel b)
    md.Md.compared;
  let c, d = md.Md.unified in
  check_attr left_schema md.Md.left_rel c;
  check_attr right_schema md.Md.right_rel d;
  (match md.Md.threshold_override with
  | Some t when not (t > 0.0 && t <= 1.0) ->
      add
        (Diagnostic.error ~code:"DL313" ~subject
           ~witness:(Printf.sprintf "threshold %g" t)
           "MD similarity threshold must lie in (0, 1]")
  | _ -> ());
  List.rev !ds

(* DL314: cycles of length >= 2 in the MD interaction graph. Node: MD;
   edge m -> m' when applying m modifies an attribute m' compares. *)
let check_md_interaction mds =
  let arr = Array.of_list mds in
  let n = Array.length arr in
  let outputs (m : Md.t) =
    [ (m.Md.left_rel, fst m.Md.unified); (m.Md.right_rel, snd m.Md.unified) ]
  in
  let inputs (m : Md.t) =
    List.concat_map
      (fun (a, b) -> [ (m.Md.left_rel, a); (m.Md.right_rel, b) ])
      m.Md.compared
  in
  let edge i j =
    i <> j
    && List.exists
         (fun out ->
           List.exists
             (fun inp -> fst out = fst inp && snd out = snd inp)
             (inputs arr.(j)))
         (outputs arr.(i))
  in
  (* Mutual reachability via Floyd–Warshall; components of size >= 2 are
     the interaction cycles. *)
  let reach = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      reach.(i).(j) <- edge i j
    done
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  let reported = Array.make n false in
  let ds = ref [] in
  for i = 0 to n - 1 do
    if not reported.(i) then begin
      let component =
        List.filter
          (fun j -> j = i || (reach.(i).(j) && reach.(j).(i)))
          (List.init n Fun.id)
      in
      if List.length component >= 2 then begin
        List.iter (fun j -> reported.(j) <- true) component;
        let ids = List.map (fun j -> arr.(j).Md.id) component in
        ds :=
          Diagnostic.warning ~code:"DL314"
            ~subject:(Diagnostic.Constraint (List.hd ids))
            ~witness:(String.concat " -> " (ids @ [ List.hd ids ]))
            (Printf.sprintf
               "MDs %s form an interaction cycle: applying one modifies \
                attributes another compares, so enforcement may cascade"
               (String.concat ", " ids))
          :: !ds
      end
    end
  done;
  List.rev !ds

let check db ~mds ~cfds =
  List.concat_map (check_cfd db) cfds
  @ check_cfd_satisfiability cfds
  @ check_cfd_redundancy cfds
  @ check_duplicate_ids "CFD" (List.map (fun (c : Cfd.t) -> c.Cfd.id) cfds)
  @ List.concat_map (check_md db) mds
  @ check_duplicate_ids "MD" (List.map (fun (m : Md.t) -> m.Md.id) mds)
  @ check_md_interaction mds
