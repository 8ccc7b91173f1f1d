(** The serve wire protocol: length-prefixed JSON frames (docs/SERVE.md).

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of compact JSON. Requests are [{"op": ..., ...}] objects;
    responses carry [{"ok":true, ...}] or [{"ok":false,"error":...}].
    All reads and writes are blocking and exact. *)

exception Protocol_error of string
(** Malformed frame: oversized length prefix, or a payload {!Json.of_string}
    rejects. *)

val max_frame : int
(** Hard ceiling on payload bytes in either direction (64 MiB). *)

val read_frame : Unix.file_descr -> string
(** @raise End_of_file on a cleanly closed peer.
    @raise Protocol_error on an oversized frame. *)

val write_frame : Unix.file_descr -> string -> unit

val read_json : Unix.file_descr -> Json.t
(** {!read_frame} + parse.
    @raise End_of_file on a cleanly closed peer.
    @raise Protocol_error on an oversized frame, or when the payload is
    not JSON or nests deeper than {!Json.max_depth}. *)

val write_json : Unix.file_descr -> Json.t -> unit

(** {2 Envelopes} *)

val ok : (string * Json.t) list -> Json.t
(** [{"ok":true, ...fields}] *)

val error : string -> Json.t
(** [{"ok":false,"error":msg}] *)

val request : string -> (string * Json.t) list -> Json.t
(** [{"op":op, ...fields}] *)

val is_ok : Json.t -> bool
val error_of_response : Json.t -> string
