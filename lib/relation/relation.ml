type t = {
  schema : Schema.t;
  mutable tuples : Tuple.t array;
  mutable size : int;
  indexes : Index.t array;
}

let create schema =
  {
    schema;
    tuples = Array.make 16 [||];
    size = 0;
    indexes = Array.init (Schema.arity schema) (fun _ -> Index.create ());
  }

let schema t = t.schema
let name t = Schema.name t.schema
let cardinality t = t.size

let ensure_capacity t =
  if t.size = Array.length t.tuples then begin
    let bigger = Array.make (2 * Array.length t.tuples) [||] in
    Array.blit t.tuples 0 bigger 0 t.size;
    t.tuples <- bigger
  end

let insert t tuple =
  if Tuple.arity tuple <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Relation.insert: arity %d tuple into %s"
         (Tuple.arity tuple) (Schema.name t.schema));
  ensure_capacity t;
  let id = t.size in
  t.tuples.(id) <- tuple;
  t.size <- t.size + 1;
  Array.iteri (fun pos idx -> Index.add idx (Tuple.get tuple pos) id) t.indexes;
  id

let insert_all t tuples = List.iter (fun tu -> ignore (insert t tu)) tuples

let get t id =
  if id < 0 || id >= t.size then
    invalid_arg (Printf.sprintf "Relation.get: id %d out of range" id);
  t.tuples.(id)

let select_eq t pos v = Index.lookup t.indexes.(pos) v
let holds_value t pos v = Index.mem t.indexes.(pos) v
let distinct_values t pos = Index.distinct_values t.indexes.(pos)

let iter f t =
  for id = 0 to t.size - 1 do
    f id t.tuples.(id)
  done

let fold f t init =
  let acc = ref init in
  iter (fun id tu -> acc := f id tu !acc) t;
  !acc

let to_list t = List.rev (fold (fun _ tu acc -> tu :: acc) t [])

let filter p t =
  let t' = create t.schema in
  iter (fun _ tu -> if p tu then ignore (insert t' tu)) t;
  t'

let map_tuples f t =
  let t' = create t.schema in
  iter (fun _ tu -> ignore (insert t' (f tu))) t;
  t'

let contains t tuple =
  if Tuple.arity tuple <> Schema.arity t.schema then false
  else
    select_eq t 0 (Tuple.get tuple 0)
    |> List.exists (fun id -> Tuple.equal (get t id) tuple)

let copy t = map_tuples Fun.id t

(* Copy-on-write update: a fresh relation (own arrays, own indexes) with
   tuple [id] replaced; the original is left untouched. The serve loop's
   [update] swaps the fresh relation into its database
   ([Database.replace_relation]). O(cardinality), vs O(1) appends for
   inserts. *)
let with_tuple t id tuple =
  if id < 0 || id >= t.size then
    invalid_arg (Printf.sprintf "Relation.with_tuple: id %d out of range" id);
  if Tuple.arity tuple <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Relation.with_tuple: arity %d tuple into %s"
         (Tuple.arity tuple) (Schema.name t.schema));
  let t' = create t.schema in
  iter (fun i tu -> ignore (insert t' (if i = id then tuple else tu))) t;
  t'

let pp fmt t =
  Format.fprintf fmt "@[<v>%a [%d tuples]" Schema.pp t.schema t.size;
  iter (fun _ tu -> Format.fprintf fmt "@,  %a" Tuple.pp tu) t;
  Format.fprintf fmt "@]"
