type t = {
  head : Literal.t;
  body : Literal.t list;
}

let make ~head body =
  if not (Literal.is_rel head) then
    invalid_arg "Clause.make: head must be a schema atom";
  { head; body }

let head_pred t =
  match t.head with
  | Literal.Rel { pred; _ } -> pred
  | Literal.Sim _ | Literal.Eq _ | Literal.Neq _ | Literal.Repair _ ->
      assert false

let body_size t = List.length t.body

let vars t =
  List.concat_map Literal.vars (t.head :: t.body)
  |> List.sort_uniq String.compare

let rel_body t = List.filter Literal.is_rel t.body
let repair_body t = List.filter Literal.is_repair t.body

let equal a b =
  Literal.equal a.head b.head
  && List.length a.body = List.length b.body
  && List.for_all2 Literal.equal a.body b.body

let hash t =
  List.fold_left
    (fun h l -> (h * 31) + Hashtbl.hash l)
    (Hashtbl.hash t.head) t.body

let map_terms f t =
  { head = Literal.map_terms f t.head; body = List.map (Literal.map_terms f) t.body }

module StrSet = Set.Make (String)

let head_connected t =
  let connected = ref (StrSet.of_list (Literal.vars t.head)) in
  let remaining = ref t.body in
  let kept = ref [] in
  let changed = ref true in
  while !changed do
    changed := false;
    let still_remaining =
      List.filter
        (fun l ->
          let lvars = Literal.vars l in
          let touches =
            lvars = [] || List.exists (fun v -> StrSet.mem v !connected) lvars
          in
          if touches then begin
            connected := StrSet.union !connected (StrSet.of_list lvars);
            kept := l :: !kept;
            changed := true;
            false
          end
          else true)
        !remaining
    in
    remaining := still_remaining
  done;
  (* Restore construction order. *)
  let kept_set = !kept in
  let body =
    List.filter (fun l -> List.exists (fun k -> k == l) kept_set) t.body
  in
  { t with body }

let remove_dangling_restrictions t =
  let anchored =
    List.concat_map Literal.vars
      (List.filter
         (fun l -> Literal.is_rel l || Literal.is_repair l)
         (t.head :: t.body))
    |> StrSet.of_list
  in
  let body =
    List.filter
      (fun l ->
        if Literal.is_restriction l then
          List.for_all (fun v -> StrSet.mem v anchored) (Literal.vars l)
        else true)
      t.body
  in
  { t with body }

let canonical t =
  let body = List.sort_uniq Literal.compare t.body in
  { t with body }

let to_string t =
  let body =
    match t.body with
    | [] -> "true"
    | ls -> String.concat ",\n    " (List.map Literal.to_string ls)
  in
  Printf.sprintf "%s <-\n    %s" (Literal.to_string t.head) body

let pp fmt t = Format.pp_print_string fmt (to_string t)
