open Dlearn_logic
module Memo = Dlearn_parallel.Memo
module Obs = Dlearn_obs.Obs

(* Deduplicate substitutions on their binding lists: polymorphic hash plus
   structural equality, no string rendering. *)
module Theta_key = Hashtbl.Make (struct
  type t = (string * Term.t) list

  let equal a b =
    List.length a = List.length b
    && List.for_all2
         (fun (v1, t1) (v2, t2) -> String.equal v1 v2 && Term.equal t1 t2)
         a b

  let hash = Hashtbl.hash
end)

let dedup_thetas thetas =
  let seen = Theta_key.create 16 in
  List.filter
    (fun th ->
      let key = Substitution.to_list th in
      if Theta_key.mem seen key then false
      else begin
        Theta_key.add seen key ();
        true
      end)
    thetas

let take n l =
  let rec go i = function
    | [] -> []
    | _ when i >= n -> []
    | x :: rest -> x :: go (i + 1) rest
  in
  go 0 l

(* Repair literals whose subject no longer occurs in the head or any schema
   atom repair nothing; drop them, then restore head-connectedness and
   remove dangling restrictions, iterating to a fixpoint. *)
let cleanup (c : Clause.t) =
  let rec fix c =
    let anchored_terms =
      List.concat_map Literal.terms
        (c.Clause.head :: Clause.rel_body c)
    in
    let body =
      List.filter
        (fun l ->
          match l with
          | Literal.Repair { subject; _ } ->
              List.exists (Term.equal subject) anchored_terms
          | _ -> true)
        c.Clause.body
    in
    let c' =
      Clause.remove_dangling_restrictions
        (Clause.head_connected { c with body })
    in
    if Clause.equal c c' then c else fix c'
  in
  fix c

(* The beam search of one ARMG step against [target]. *)
let generalize (ctx : Context.t) target (c : Clause.t) =
  match Subsumption.Armg.head_unify target c.Clause.head with
  | None -> None
  | Some theta0 ->
      let beam = ctx.Context.config.Config.armg_beam in
      let thetas = ref [ theta0 ] in
      let kept =
        List.filter
          (fun l ->
            match l with
            | Literal.Rel _ | Literal.Repair _ | Literal.Sim _ ->
                let extensions =
                  List.concat_map
                    (fun th -> Subsumption.Armg.extend target th l)
                    !thetas
                  |> dedup_thetas
                  |> take beam
                in
                if extensions = [] then false (* blocking literal *)
                else begin
                  thetas := extensions;
                  true
                end
            | Literal.Eq _ | Literal.Neq _ ->
                let verdicts =
                  List.map
                    (fun th -> (th, Subsumption.Armg.check target th l))
                    !thetas
                in
                let surviving =
                  List.filter_map
                    (fun (th, v) -> if v = `Unsat then None else Some th)
                    verdicts
                in
                if surviving = [] then false
                else begin
                  thetas := surviving;
                  true
                end)
          c.Clause.body
      in
      Some (cleanup { c with Clause.body = kept })

let armg_hits_c = Obs.counter "armg.cache_hits"
let armg_computed_c = Obs.counter "armg.computed"

(* Memoized in [e']'s ground entry, keyed on the parent clause itself:
   ARMG walks the body in order, so a reordered parent is another key.
   ARMG is deterministic in the parent and the ground entry, so a hit
   answers exactly what recomputing would. *)
let armg (ctx : Context.t) (c : Clause.t) e' =
  let entry = Coverage.ground ctx e' in
  let computed = ref false in
  let r =
    Cover_set.Clause_memo.find_or_add entry.Context.armg c (fun () ->
        computed := true;
        Obs.incr armg_computed_c;
        generalize ctx (Memo.force entry.Context.target) c)
  in
  if not !computed then Obs.incr armg_hits_c;
  r
