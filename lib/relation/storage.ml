let manifest_path dir = Filename.concat dir "manifest.txt"
let csv_path dir name = Filename.concat dir (name ^ ".csv")

(* Recursive, race-tolerant mkdir: nested dataset directories must work,
   and two writers racing on the same directory must both succeed —
   [Sys.file_exists]-then-[mkdir] alone is a TOCTOU window where the
   loser crashes on EEXIST. Errors other than "already there" (e.g. a
   file occupying the path, permission denied) still raise. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Storage: %s exists and is not a directory" dir)

let write_manifest dir schemas =
  mkdir_p dir;
  let oc = open_out (manifest_path dir) in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun schema ->
          let attrs =
            Array.to_list (Schema.attributes schema)
            |> List.map (fun (a : Schema.attribute) ->
                   Printf.sprintf "%s:%s" a.attr_name
                     (Schema.domain_to_string a.domain))
          in
          Printf.fprintf oc "%s|%s\n" (Schema.name schema)
            (String.concat "," attrs))
        schemas)

let save db dir =
  write_manifest dir (List.map Relation.schema (Database.relations db));
  List.iter
    (fun r -> Csv.save r (csv_path dir (Relation.name r)))
    (Database.relations db)

let read_manifest dir =
  let ic = open_in (manifest_path dir) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let entries = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.length line > 0 then begin
             match String.index_opt line '|' with
             | None -> invalid_arg ("Storage: malformed manifest line " ^ line)
             | Some i ->
                 let name = String.sub line 0 i in
                 let attrs =
                   String.sub line (i + 1) (String.length line - i - 1)
                   |> String.split_on_char ','
                   |> List.map (fun spec ->
                          match String.split_on_char ':' spec with
                          | [ attr_name; domain ] ->
                              {
                                Schema.attr_name;
                                domain = Schema.domain_of_string domain;
                              }
                          | _ ->
                              invalid_arg
                                ("Storage: malformed attribute " ^ spec))
                 in
                 entries := Schema.make name attrs :: !entries
           end
         done
       with End_of_file -> ());
      List.rev !entries)

let manifest dir = read_manifest dir

(* Re-type a parsed value according to the declared domain: strings that
   look numeric must stay strings when the domain says so. *)
let coerce domain v =
  match domain, v with
  | Schema.Dstring, Value.Null -> Value.Null
  | Schema.Dstring, other -> Value.String (Value.to_string other)
  | (Schema.Dint | Schema.Dfloat), other -> other

let retype schema tu =
  Tuple.make
    (List.init (Tuple.arity tu) (fun i ->
         coerce (Schema.domain schema i) (Tuple.get tu i)))

let scan ?delim dir name ~init ~f =
  let schema =
    match
      List.find_opt (fun s -> Schema.name s = name) (read_manifest dir)
    with
    | Some s -> s
    | None -> invalid_arg ("Storage.scan: no relation " ^ name ^ " in " ^ dir)
  in
  Csv.fold ?delim schema (csv_path dir name) ~init ~f:(fun acc tu ->
      f acc (retype schema tu))

let load_relation dir schema =
  let rel = Relation.create schema in
  Csv.iter schema (csv_path dir (Schema.name schema)) ~f:(fun tu ->
      ignore (Relation.insert rel (retype schema tu)));
  rel

let load dir =
  let db = Database.create () in
  List.iter
    (fun schema -> Database.add_relation db (load_relation dir schema))
    (read_manifest dir);
  db
