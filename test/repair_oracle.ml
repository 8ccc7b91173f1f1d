(* Reference oracle for Clause_repair: the enumerator as it stood before
   states were interned to literal ids — clauses rebuilt, sorted and
   hashed per state, [Clause_env] and [Term.to_string] touch sets
   recomputed per state, results in hash-table order. Kept verbatim except
   that the entry points also return the number of distinct states
   reached, which the differential tests compare. Slow on large clauses;
   tests only. *)

open Dlearn_logic

module IntMap = Map.Make (Int)
module StrSet = Set.Make (String)

type group_kind =
  | Md_simultaneous
  | Cfd_alternative

let kind_of_origin = function
  | Literal.From_md _ -> Md_simultaneous
  | Literal.From_cfd _ -> Cfd_alternative

(* Groups present in a clause: id -> (kind, literals in body order). *)
let groups_of (c : Clause.t) =
  List.fold_left
    (fun acc l ->
      match l with
      | Literal.Repair r ->
          let kind = kind_of_origin r.origin in
          let existing =
            match IntMap.find_opt r.group acc with
            | Some (_, ls) -> ls
            | None -> []
          in
          IntMap.add r.group (kind, existing @ [ r ]) acc
      | _ -> acc)
    IntMap.empty c.body

let subst_pairs pairs t =
  match List.find_opt (fun (s, _) -> Term.equal s t) pairs with
  | Some (_, r) -> r
  | None -> t

(* Delete from [body] the repair literals of group [gid] listed in
   [members], and every literal structurally equal to one of the recorded
   drops of the applied members. *)
let delete_literals body ~gid ~applied_drops =
  List.filter
    (fun l ->
      match l with
      | Literal.Repair r when r.group = gid -> false
      | _ -> not (List.exists (Literal.equal l) applied_drops))
    body

let delete_one_repair body repair =
  let found = ref false in
  List.filter
    (fun l ->
      match l with
      | Literal.Repair r when (not !found) && r == repair ->
          found := true;
          false
      | _ -> true)
    body

(* Apply group [gid]; returns the child clauses. *)
let apply_group (c : Clause.t) gid kind (members : Literal.repair list) =
  let env = Clause_env.of_body c.body in
  let enabled =
    List.filter (fun r -> Clause_env.eval_cond env r.Literal.cond) members
  in
  match kind with
  | Md_simultaneous ->
      (* All enabled members fire at once; the whole group is consumed. *)
      let pairs = List.map (fun r -> (r.Literal.subject, r.Literal.replacement)) enabled in
      let applied_drops = List.concat_map (fun r -> r.Literal.drops) enabled in
      let body = delete_literals c.body ~gid ~applied_drops in
      let f = subst_pairs pairs in
      [ Clause.map_terms f { c with body } ]
  | Cfd_alternative -> (
      match enabled with
      | [] ->
          (* No member can fire: they are all simply removed. *)
          let body = delete_literals c.body ~gid ~applied_drops:[] in
          [ { c with body } ]
      | _ ->
          (* Branch: each enabled member may be the one applied first. The
             rest of the group stays and is re-examined (their conditions
             are falsified by the restriction literals, so they will be
             dropped on the next visit). *)
          List.map
            (fun r ->
              let body = delete_one_repair c.body r in
              let body =
                List.filter
                  (fun l -> not (List.exists (Literal.equal l) r.Literal.drops))
                  body
              in
              let f = subst_pairs [ (r.Literal.subject, r.Literal.replacement) ] in
              Clause.map_terms f { c with body })
            enabled)

let group_touch_set (members : Literal.repair list) =
  List.fold_left
    (fun acc r ->
      let terms =
        r.Literal.subject :: r.Literal.replacement
        :: List.concat_map
             (function
               | Cond.Ceq (a, b) | Cond.Cneq (a, b) | Cond.Csim (a, b) ->
                   [ a; b ])
             r.Literal.cond
      in
      List.fold_left
        (fun acc t -> StrSet.add (Term.to_string t) acc)
        acc terms)
    StrSet.empty members

let finalize (c : Clause.t) = Clause.remove_dangling_restrictions c

(* Canonical clause keys: structural equality on the sorted body, with the
   (depth-limited) polymorphic hash — far cheaper than printing. *)
module Clause_key = Hashtbl.Make (struct
  type t = Clause.t

  let equal = Clause.equal
  let hash (c : Clause.t) = Hashtbl.hash (c.Clause.head, c.Clause.body)
end)

let canonical_key c = Clause.canonical c

let enumerate ~select_group ~state_cap ~result_cap (c : Clause.t) =
  let results : Clause.t Clause_key.t = Clause_key.create 8 in
  let visited : unit Clause_key.t = Clause_key.create 64 in
  let states = ref 0 in
  let rec go clause =
    if Clause_key.length results >= result_cap then ()
    else begin
      let key = canonical_key clause in
      if not (Clause_key.mem visited key) then begin
        Clause_key.add visited key ();
        incr states;
        if !states <= state_cap then begin
          let groups =
            IntMap.filter (fun _ (kind, ms) -> select_group kind ms)
              (groups_of clause)
          in
          if IntMap.is_empty groups then begin
            let final = finalize clause in
            let fkey = canonical_key final in
            if not (Clause_key.mem results fkey) then
              Clause_key.replace results fkey final
          end
          else begin
            (* Enabled groups (some member's condition holds) are processed
               before disabled ones: a group is only dropped once nothing
               left could still enable it — otherwise an order that
               examines an induced repair before its inducing repair would
               discard it and leave the violation unrepaired. Among the
               enabled groups, one whose terms are disjoint from every
               other group's can go first deterministically; otherwise the
               order branches. *)
            let env = Clause_env.of_body clause.Clause.body in
            let bindings = IntMap.bindings groups in
            let enabled, disabled =
              List.partition
                (fun (_, (_, ms)) ->
                  List.exists
                    (fun r -> Clause_env.eval_cond env r.Literal.cond)
                    ms)
                bindings
            in
            let candidates = if enabled <> [] then enabled else disabled in
            let touch =
              List.map
                (fun (gid, (_, ms)) -> (gid, group_touch_set ms))
                candidates
            in
            let independent =
              List.find_opt
                (fun (gid, (_, _)) ->
                  let mine = List.assoc gid touch in
                  List.for_all
                    (fun (gid', ts) -> gid' = gid || StrSet.disjoint mine ts)
                    touch)
                candidates
            in
            let to_branch =
              match independent with Some g -> [ g ] | None -> candidates
            in
            List.iter
              (fun (gid, (kind, ms)) ->
                List.iter go (apply_group clause gid kind ms))
              to_branch
          end
        end
      end
    end
  in
  go c;
  (Clause_key.fold (fun _ c acc -> c :: acc) results [], !states)

let repaired_clauses ?(state_cap = 4096) ?(result_cap = 64) c =
  enumerate ~select_group:(fun _ _ -> true) ~state_cap ~result_cap c

let cfd_applications ?(state_cap = 4096) ?(result_cap = 64) c =
  enumerate
    ~select_group:(fun kind _ -> kind = Cfd_alternative)
    ~state_cap ~result_cap c


(* ------------------------------------------------------------------ *)
(* Differential check against [Clause_repair]. *)

module Obs = Dlearn_obs.Obs

let same_clauses a b =
  let a = List.map Clause.canonical a and b = List.map Clause.canonical b in
  let within ys x = List.exists (Clause.equal x) ys in
  List.length a = List.length b && List.for_all (within b) a
  && List.for_all (within a) b

(* [disagreement ~cfd ~state_cap ~result_cap c] runs [Clause_repair] and
   the oracle on [c] ([cfd] selects [cfd_applications]). [None] when both
   return the same repaired clauses modulo [Clause.canonical] and reach
   the same number of distinct states — the library's count is read from
   the [repair.states] counter, which it bumps once per enumeration. *)
let disagreement ~cfd ~state_cap ~result_cap c =
  let states_c = Obs.counter "repair.states" in
  let before = Obs.value states_c in
  let got =
    if cfd then Clause_repair.cfd_applications ~state_cap ~result_cap c
    else Clause_repair.repaired_clauses ~state_cap ~result_cap c
  in
  let got_states = Obs.value states_c - before in
  let want, want_states =
    if cfd then cfd_applications ~state_cap ~result_cap c
    else repaired_clauses ~state_cap ~result_cap c
  in
  if got_states <> want_states then
    Some (Printf.sprintf "states: %d, oracle %d" got_states want_states)
  else if not (same_clauses got want) then
    Some
      (Printf.sprintf "results differ: %d clauses, oracle %d"
         (List.length got) (List.length want))
  else None
