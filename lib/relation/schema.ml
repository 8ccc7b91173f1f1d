type domain =
  | Dint
  | Dfloat
  | Dstring

let domain_to_string = function
  | Dint -> "int"
  | Dfloat -> "float"
  | Dstring -> "string"

let domain_of_string = function
  | "int" -> Dint
  | "float" -> Dfloat
  | "string" -> Dstring
  | other -> invalid_arg ("Schema: unknown domain " ^ other)

type attribute = {
  attr_name : string;
  domain : domain;
}

type t = {
  name : string;
  attrs : attribute array;
  positions : (string, int) Hashtbl.t;
}

let make name attributes =
  if attributes = [] then invalid_arg "Schema.make: empty attribute list";
  let attrs = Array.of_list attributes in
  let positions = Hashtbl.create (Array.length attrs) in
  Array.iteri
    (fun i a ->
      if Hashtbl.mem positions a.attr_name then
        invalid_arg
          (Printf.sprintf "Schema.make: duplicate attribute %s in %s"
             a.attr_name name);
      Hashtbl.add positions a.attr_name i)
    attrs;
  { name; attrs; positions }

let string_attrs name names =
  make name (List.map (fun n -> { attr_name = n; domain = Dstring }) names)

let name t = t.name
let arity t = Array.length t.attrs
let attributes t = t.attrs
let attr_name t i = t.attrs.(i).attr_name
let domain t i = t.attrs.(i).domain

let position t attr =
  match Hashtbl.find_opt t.positions attr with
  | Some i -> i
  | None -> raise Not_found

let comparable t i u j = domain t i = domain u j

let equal a b =
  String.equal a.name b.name
  && Array.length a.attrs = Array.length b.attrs
  && Array.for_all2 (fun x y -> x = y) a.attrs b.attrs

let pp fmt t =
  Format.fprintf fmt "%s(%s)" t.name
    (String.concat ", "
       (Array.to_list (Array.map (fun a -> a.attr_name) t.attrs)))
