type severity =
  | Error
  | Warning
  | Hint

type subject =
  | Constraint of string
  | Clause_head of string
  | Attribute of {
      relation : string;
      attr : string;
    }
  | Relation of string
  | General

type t = {
  code : string;
  severity : severity;
  subject : subject;
  message : string;
  witness : string option;
}

let make severity ~code ~subject ?witness message =
  { code; severity; subject; message; witness }

let error = make Error
let warning = make Warning
let hint = make Hint

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

let subject_to_string = function
  | Constraint id -> "constraint " ^ id
  | Clause_head pred -> "clause " ^ pred
  | Attribute { relation; attr } -> relation ^ "." ^ attr
  | Relation name -> "relation " ^ name
  | General -> "input"

let severity_rank = function Error -> 0 | Warning -> 1 | Hint -> 2

let sort ds =
  List.stable_sort
    (fun a b ->
      match Int.compare (severity_rank a.severity) (severity_rank b.severity) with
      | 0 -> (
          match String.compare a.code b.code with
          | 0 ->
              String.compare (subject_to_string a.subject)
                (subject_to_string b.subject)
          | c -> c)
      | c -> c)
    ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let count severity ds = List.length (List.filter (fun d -> d.severity = severity) ds)

let pp fmt d =
  Format.fprintf fmt "%s[%s] %s: %s"
    (severity_to_string d.severity)
    d.code
    (subject_to_string d.subject)
    d.message;
  match d.witness with
  | None -> ()
  | Some w -> Format.fprintf fmt "@,  witness: %s" w

let pp_report fmt ds =
  match ds with
  | [] -> Format.fprintf fmt "no diagnostics"
  | ds ->
      let ds = sort ds in
      Format.pp_open_vbox fmt 0;
      List.iter (fun d -> Format.fprintf fmt "%a@," pp d) ds;
      Format.fprintf fmt "%d error(s), %d warning(s), %d hint(s)"
        (count Error ds) (count Warning ds) (count Hint ds);
      Format.pp_close_box fmt ()

let report_to_string ds = Format.asprintf "%a" pp_report ds

let json_string s = Printf.sprintf "\"%s\"" (Dlearn_obs.Obs.json_escape s)

let subject_json = function
  | Constraint id -> Printf.sprintf {|{"kind":"constraint","id":%s}|} (json_string id)
  | Clause_head pred -> Printf.sprintf {|{"kind":"clause","head":%s}|} (json_string pred)
  | Attribute { relation; attr } ->
      Printf.sprintf {|{"kind":"attribute","relation":%s,"attr":%s}|}
        (json_string relation) (json_string attr)
  | Relation name -> Printf.sprintf {|{"kind":"relation","name":%s}|} (json_string name)
  | General -> {|{"kind":"general"}|}

let to_json d =
  let witness =
    match d.witness with
    | None -> ""
    | Some w -> Printf.sprintf {|,"witness":%s|} (json_string w)
  in
  Printf.sprintf {|{"code":%s,"severity":%s,"subject":%s,"message":%s%s}|}
    (json_string d.code)
    (json_string (severity_to_string d.severity))
    (subject_json d.subject) (json_string d.message) witness

let report_to_json ds =
  Printf.sprintf "[%s]" (String.concat "," (List.map to_json (sort ds)))
