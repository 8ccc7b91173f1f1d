(** Minimal JSON values — the wire format of the serve protocol
    (docs/SERVE.md). Printing escapes control characters; parsing
    accepts RFC 8259 documents (objects, arrays, strings with [\u]
    escapes and surrogate pairs, ints, floats, bools, null). There is
    deliberately no external dependency: the protocol needs only this. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!of_string} with a message and byte offset. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). *)

val max_depth : int
(** Deepest nesting of arrays and objects {!of_string} accepts (1000). *)

val of_string : string -> t
(** @raise Parse_error on malformed input, trailing garbage, or arrays
    and objects nested deeper than {!max_depth}. *)

val of_string_opt : string -> t option

(** {2 Accessors} — each returns [None] on a missing field or a field of
    the wrong shape. *)

val member : string -> t -> t option
val string_field : string -> t -> string option
val int_field : string -> t -> int option
val list_field : string -> t -> t list option
