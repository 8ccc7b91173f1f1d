(** Blocking client for the serve protocol: one connected Unix-domain
    socket, strictly one in-flight request. *)

type t

val connect : string -> t
(** Connect to the socket at the path.
    @raise Unix.Unix_error when nothing listens there. *)

val connect_retry : ?attempts:int -> ?delay:float -> string -> t
(** {!connect}, retrying on [ENOENT]/[ECONNREFUSED] while the server is
    still starting (default: 50 attempts, 0.1 s apart). *)

val request : t -> Json.t -> Json.t
(** Send one request frame and block for the response frame.
    @raise End_of_file when the server closed the connection.
    @raise Unix.Unix_error when the connection fails mid-request, e.g.
    [EPIPE] writing to a closed socket (with SIGPIPE ignored) or
    [ECONNRESET].
    @raise Protocol.Protocol_error on a malformed response. *)

val close : t -> unit
(** Idempotent. *)
