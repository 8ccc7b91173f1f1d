type t = {
  by_name : (string, Relation.t) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
}

let create () = { by_name = Hashtbl.create 16; order = [] }

let add_relation t r =
  let name = Relation.name r in
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Database.add_relation: duplicate %s" name);
  Hashtbl.add t.by_name name r;
  t.order <- name :: t.order

let create_relation t schema =
  let r = Relation.create schema in
  add_relation t r;
  r

let find t name = Hashtbl.find t.by_name name
let find_opt t name = Hashtbl.find_opt t.by_name name
let mem t name = Hashtbl.mem t.by_name name
let relation_names t = List.rev t.order
let relations t = List.map (find t) (relation_names t)

let total_tuples t =
  List.fold_left (fun acc r -> acc + Relation.cardinality r) 0 (relations t)

let copy t =
  let t' = create () in
  List.iter (fun r -> add_relation t' (Relation.copy r)) (relations t);
  t'

let pp_summary fmt t =
  Format.fprintf fmt "@[<v>database: %d relations, %d tuples"
    (List.length t.order) (total_tuples t);
  List.iter
    (fun r ->
      Format.fprintf fmt "@,  %a: %d tuples" Schema.pp (Relation.schema r)
        (Relation.cardinality r))
    (relations t);
  Format.fprintf fmt "@]"

let replace_relation t r =
  let name = Relation.name r in
  if not (Hashtbl.mem t.by_name name) then
    invalid_arg
      (Printf.sprintf "Database.replace_relation: no relation %s" name);
  Hashtbl.replace t.by_name name r
