open Dlearn_relation
open Dlearn_logic

let value_fits domain v =
  match v, domain with
  | Value.Null, _ -> true
  | Value.Int _, Schema.Dint
  | Value.Float _, Schema.Dfloat
  | Value.String _, Schema.Dstring ->
      true
  | (Value.Int _ | Value.Float _ | Value.String _), _ -> false

let schema_for db target pred =
  match target with
  | Some t when String.equal (Schema.name t) pred -> Some t
  | _ -> Option.map Relation.schema (Database.find_opt db pred)

let check db ?target clause =
  let subject = Diagnostic.Clause_head (Clause.head_pred clause) in
  let diagnostics = ref [] in
  let add d = diagnostics := d :: !diagnostics in
  (* First occurrence of each variable at an attribute with a known
     domain: var -> (domain, "rel.attr"). *)
  let var_domains = Hashtbl.create 16 in
  let check_atom ~is_head pred args =
    match schema_for db target pred with
    | None ->
        if not is_head then
          add
            (Diagnostic.error ~code:"DL201" ~subject ~witness:pred
               (Printf.sprintf "unknown predicate %s: no such relation in \
                                the catalog" pred))
        else if target <> None then
          add
            (Diagnostic.hint ~code:"DL206" ~subject ~witness:pred
               (Printf.sprintf
                  "head predicate %s is not the configured target relation"
                  pred))
    | Some schema ->
        if Array.length args <> Schema.arity schema then
          add
            (Diagnostic.error ~code:"DL202" ~subject
               ~witness:
                 (Printf.sprintf "%s/%d vs schema arity %d" pred
                    (Array.length args) (Schema.arity schema))
               (Printf.sprintf
                  "atom %s has %d arguments but relation %s has arity %d"
                  pred (Array.length args) pred (Schema.arity schema)))
        else
          Array.iteri
            (fun i arg ->
              let domain = Schema.domain schema i in
              let site =
                Printf.sprintf "%s.%s" pred (Schema.attr_name schema i)
              in
              match arg with
              | Term.Const v ->
                  if not (value_fits domain v) then
                    add
                      (Diagnostic.error ~code:"DL203" ~subject
                         ~witness:
                           (Printf.sprintf "%s at %s"
                              (Term.to_string arg) site)
                         (Printf.sprintf
                            "constant %s does not fit the %s domain of %s"
                            (Term.to_string arg)
                            (Schema.domain_to_string domain)
                            site))
              | Term.Var v -> (
                  match Hashtbl.find_opt var_domains v with
                  | None -> Hashtbl.add var_domains v (domain, site)
                  | Some (d0, site0) ->
                      if d0 <> domain then
                        add
                          (Diagnostic.error ~code:"DL205" ~subject
                             ~witness:
                               (Printf.sprintf "%s: %s at %s vs %s at %s" v
                                  (Schema.domain_to_string d0) site0
                                  (Schema.domain_to_string domain) site)
                             (Printf.sprintf
                                "variable %s is used at attributes of \
                                 conflicting domains; the join can never \
                                 succeed"
                                v))))
            args
  in
  (match clause.Clause.head with
  | Literal.Rel { pred; args } -> check_atom ~is_head:true pred args
  | _ -> ());
  List.iter
    (function
      | Literal.Rel { pred; args } -> check_atom ~is_head:false pred args
      | _ -> ())
    clause.Clause.body;
  (* Similarity operands must be strings: ≈ is defined per string domain. *)
  let check_sim_operand l t =
    match t with
    | Term.Const (Value.String _) | Term.Const Value.Null -> ()
    | Term.Const v ->
        add
          (Diagnostic.error ~code:"DL204" ~subject
             ~witness:(Literal.to_string l)
             (Printf.sprintf
                "similarity literal applies to non-string constant %s"
                (Value.to_string v)))
    | Term.Var v -> (
        match Hashtbl.find_opt var_domains v with
        | Some (domain, site) when domain <> Schema.Dstring ->
            add
              (Diagnostic.error ~code:"DL204" ~subject
                 ~witness:(Printf.sprintf "%s (%s at %s)"
                             (Literal.to_string l)
                             (Schema.domain_to_string domain) site)
                 (Printf.sprintf
                    "similarity literal applies to variable %s drawn from \
                     a non-string attribute"
                    v))
        | _ -> ())
  in
  List.iter
    (function
      | Literal.Sim (a, b) as l ->
          check_sim_operand l a;
          check_sim_operand l b
      | _ -> ())
    clause.Clause.body;
  List.rev !diagnostics
