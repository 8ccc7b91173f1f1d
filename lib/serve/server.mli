(** The dlearn serve loop (docs/SERVE.md): one warm learning state — the
    workload's live database, a long-lived {!Dlearn_core.Context} over
    it, the workload's labelled examples — behind a Unix-domain socket
    speaking the {!Protocol} frames. Concurrent requests take a
    writer-preferring readers–writer lock: [learn]/[coverage]/[check]/
    [query]/[status] share it, [insert]/[update] exclude them, so every
    read sees whole writes, and each write invalidates the warm caches
    ({!Dlearn_core.Context.apply_delta}) before any read can observe the
    new data. The [version] a response reports counts the writes applied
    since {!create}.

    Operations (request [op] field): [ping], [status], [learn] (optional
    [pos]/[neg] prefix sizes), [coverage] (clause), [check] (optional
    clause list), [query] (clause, optional limit), [insert] / [update]
    (relation, values, id for update), [metrics], [shutdown]. Every
    request is timed under a [serve.<op>] span, and a request without a
    known op under [serve.unknown]; [serve.requests], [serve.errors] and
    [serve.connections] count on the {!Dlearn_obs.Obs} registry. *)

type t
(** The warm server state. Usable directly in-process ({!handle}) — the
    tests and the warm-path benchmark drive it without a socket. *)

val create : Dlearn_eval.Workload.t -> t
(** Adopt the workload's database and build the long-lived context over
    it, with empty caches. Writes go straight into that database: it must
    not be mutated behind the server's back afterwards. *)

val handle : t -> Json.t -> Json.t
(** Dispatch one request under the RW lock and return the response
    envelope. Every failure — a request that is not an object or has no
    string ["op"], an unknown op, bad fields, parse errors, learner
    rejections — becomes an [{"ok":false}] response counted in
    [serve.errors]; [handle] never raises. *)

val run : t -> socket_path:string -> unit
(** Bind the socket (removing a stale file first), accept connections —
    one systhread each — and serve until a [shutdown] request (or
    {!stop}) is observed; joins the connection threads and removes the
    socket file before returning. It sets SIGPIPE to be ignored for the
    whole process, so a client that hangs up before its reply costs only
    its own connection (counted in [serve.errors]), never the server. *)

val stop : t -> unit
(** Ask the accept loop to stop; safe from any thread or signal. *)
