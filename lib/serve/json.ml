(* Minimal JSON: the wire format of the serve protocol. The repo already
   renders JSON by hand in several places (diagnostics, Obs reports), all
   through [Obs.json_escape], which strings here use too; the server also
   has to {e parse} requests, so this module closes the loop without a
   new dependency. Only what RFC 8259 requires for this protocol:
   objects, arrays, strings with escapes, ints, floats, bools, null.
   Unicode escapes decode to UTF-8; non-ASCII bytes pass through
   untouched in both directions. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* {2 Printing} *)

let escape buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (Dlearn_obs.Obs.json_escape s);
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s -> escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* {2 Parsing} *)

type cursor = { text : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur =
  if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.text
    && String.sub cur.text cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur ("expected " ^ word)

let utf8_of_code buf code =
  (* Encode one Unicode scalar value as UTF-8. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 cur =
  let code = ref 0 in
  for _ = 1 to 4 do
    (match peek cur with
    | Some c when c >= '0' && c <= '9' ->
        code := (!code * 16) + (Char.code c - Char.code '0')
    | Some c when c >= 'a' && c <= 'f' ->
        code := (!code * 16) + (Char.code c - Char.code 'a' + 10)
    | Some c when c >= 'A' && c <= 'F' ->
        code := (!code * 16) + (Char.code c - Char.code 'A' + 10)
    | _ -> fail cur "bad \\u escape");
    advance cur
  done;
  !code

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some '"' -> advance cur; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance cur; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance cur; Buffer.add_char buf '/'; go ()
        | Some 'b' -> advance cur; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance cur; Buffer.add_char buf '\012'; go ()
        | Some 'n' -> advance cur; Buffer.add_char buf '\n'; go ()
        | Some 'r' -> advance cur; Buffer.add_char buf '\r'; go ()
        | Some 't' -> advance cur; Buffer.add_char buf '\t'; go ()
        | Some 'u' ->
            advance cur;
            let code = hex4 cur in
            let code =
              (* Surrogate pair: a high surrogate must be followed by
                 [\uDC00-\uDFFF]. *)
              if code >= 0xD800 && code <= 0xDBFF then begin
                expect cur '\\';
                expect cur 'u';
                let low = hex4 cur in
                if low < 0xDC00 || low > 0xDFFF then
                  fail cur "bad surrogate pair";
                0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
              end
              else code
            in
            utf8_of_code buf code;
            go ()
        | _ -> fail cur "bad escape")
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let continue = function
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
    | _ -> false
  in
  while continue (peek cur) do
    advance cur
  done;
  let s = String.sub cur.text start (cur.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail cur ("bad number " ^ s))

(* Containers nest by recursion, so a hostile document of a few million
   brackets would overflow the stack; documents of this repo nest a
   handful of levels. *)
let max_depth = 1000

let rec parse_value cur depth =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some ('{' | '[') when depth >= max_depth ->
      fail cur (Printf.sprintf "nesting deeper than %d" max_depth)
  | Some '"' -> String (parse_string cur)
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws cur;
          let key = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur (depth + 1) in
          fields := (key, v) :: !fields;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              members ()
          | Some '}' -> advance cur
          | _ -> fail cur "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value cur (depth + 1) in
          items := v :: !items;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              elements ()
          | Some ']' -> advance cur
          | _ -> fail cur "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected '%c'" c)

let of_string s =
  let cur = { text = s; pos = 0 } in
  let v = parse_value cur 0 in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

(* {2 Accessors} *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_field key v =
  match member key v with Some (String s) -> Some s | _ -> None

let int_field key v = match member key v with Some (Int i) -> Some i | _ -> None

let list_field key v =
  match member key v with Some (List l) -> Some l | _ -> None
