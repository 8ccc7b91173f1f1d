(* Wire protocol of the serve loop: length-prefixed JSON frames over a
   Unix-domain stream socket. A frame is a 4-byte big-endian payload
   length followed by that many bytes of JSON. Requests are objects with
   an "op" field; responses are objects with an "ok" field ({"ok":true,
   ...} or {"ok":false,"error":...}). The prefix makes framing
   independent of JSON whitespace and keeps reads exact — no
   buffering-ahead across requests, so one descriptor can be driven by
   simple blocking code on both sides. *)

exception Protocol_error of string

(* A hard ceiling on payload size: a corrupt or hostile length prefix
   must not make the server allocate gigabytes. Generous for real
   responses (full imdb3 definitions are a few KiB). *)
let max_frame = 64 * 1024 * 1024

let really_read fd buf pos len =
  let rec go pos remaining =
    if remaining > 0 then begin
      let n = Unix.read fd buf pos remaining in
      if n = 0 then raise End_of_file;
      go (pos + n) (remaining - n)
    end
  in
  go pos len

let really_write fd buf pos len =
  let rec go pos remaining =
    if remaining > 0 then begin
      let n = Unix.write fd buf pos remaining in
      go (pos + n) (remaining - n)
    end
  in
  go pos len

let read_frame fd =
  let header = Bytes.create 4 in
  really_read fd header 0 4;
  let len =
    (Char.code (Bytes.get header 0) lsl 24)
    lor (Char.code (Bytes.get header 1) lsl 16)
    lor (Char.code (Bytes.get header 2) lsl 8)
    lor Char.code (Bytes.get header 3)
  in
  if len > max_frame then
    raise (Protocol_error (Printf.sprintf "frame of %d bytes exceeds limit" len));
  let payload = Bytes.create len in
  really_read fd payload 0 len;
  Bytes.unsafe_to_string payload

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then
    raise (Protocol_error (Printf.sprintf "frame of %d bytes exceeds limit" len));
  let buf = Bytes.create (4 + len) in
  Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 buf 4 len;
  really_write fd buf 0 (4 + len)

let read_json fd =
  let payload = read_frame fd in
  try Json.of_string payload
  with Json.Parse_error msg -> raise (Protocol_error ("bad JSON: " ^ msg))

let write_json fd v = write_frame fd (Json.to_string v)

(* {2 Envelopes} *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let request op fields = Json.Obj (("op", Json.String op) :: fields)

let is_ok v = match Json.member "ok" v with Some (Json.Bool b) -> b | _ -> false

let error_of_response v =
  match Json.string_field "error" v with
  | Some msg -> msg
  | None -> "unknown error"
