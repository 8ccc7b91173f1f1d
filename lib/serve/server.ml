(* The dlearn serve loop: a Unix-domain socket server holding one warm
   learning state — the workload's live database, a long-lived
   {!Dlearn_core.Context} over it, and the labelled examples — and
   answering length-prefixed JSON requests ({!Protocol}). Requests share
   the warm caches: a learn after a small write re-resolves only the
   invalidated examples instead of rebuilding the context
   (docs/SERVE.md).

   Concurrency model: one systhread per connection; every request takes
   a readers–writer lock — learn/coverage/check/query/status share it,
   insert/update take it exclusively. Read requests may fan out over the
   context's domain pool internally; the RW lock orders whole requests
   against writes (relation indexes are not safe under concurrent
   mutation). A write lands in the live database and invalidates the
   context ({!Dlearn_core.Context.apply_delta}) before the writer lock is
   released, so no read ever sees new data under stale verdicts. *)

open Dlearn_relation
open Dlearn_core
open Dlearn_eval
module Obs = Dlearn_obs.Obs

(* {2 A small readers-writer lock}

   Writer-preferring: a waiting writer blocks new readers, so a stream
   of coverage requests cannot starve an insert. Requests are coarse
   (milliseconds to seconds), so fairness matters more than throughput
   of the lock itself. *)
module Rwlock = struct
  type t = {
    m : Mutex.t;
    turn : Condition.t;
    mutable readers : int;
    mutable writing : bool;
    mutable waiting_writers : int;
  }

  let create () =
    {
      m = Mutex.create ();
      turn = Condition.create ();
      readers = 0;
      writing = false;
      waiting_writers = 0;
    }

  let read t f =
    Mutex.protect t.m (fun () ->
        while t.writing || t.waiting_writers > 0 do
          Condition.wait t.turn t.m
        done;
        t.readers <- t.readers + 1);
    Fun.protect f ~finally:(fun () ->
        Mutex.protect t.m (fun () ->
            t.readers <- t.readers - 1;
            Condition.broadcast t.turn))

  let write t f =
    Mutex.protect t.m (fun () ->
        t.waiting_writers <- t.waiting_writers + 1;
        while t.writing || t.readers > 0 do
          Condition.wait t.turn t.m
        done;
        t.waiting_writers <- t.waiting_writers - 1;
        t.writing <- true);
    Fun.protect f ~finally:(fun () ->
        Mutex.protect t.m (fun () ->
            t.writing <- false;
            Condition.broadcast t.turn))
end

type t = {
  workload : Workload.t;
  db : Database.t;  (* the workload's database, written in place *)
  ctx : Context.t;
  rw : Rwlock.t;
  mutable version : int;  (* writes applied so far; guarded by [rw] *)
  stop : bool Atomic.t;
}

let requests_c = Obs.counter "serve.requests"
let errors_c = Obs.counter "serve.errors"
let connections_c = Obs.counter "serve.connections"

let create workload =
  let db = workload.Workload.db in
  {
    workload;
    db;
    ctx =
      Context.create workload.Workload.config db workload.Workload.mds
        workload.Workload.cfds;
    rw = Rwlock.create ();
    version = 0;
    stop = Atomic.make false;
  }

(* {2 Request handlers} *)

let take n l =
  if n < 0 then invalid_arg "take: negative count"
  else List.filteri (fun i _ -> i < n) l

let field_exn name req =
  match Json.member name req with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" name)

let string_exn name req =
  match Json.string_field name req with
  | Some s -> s
  | None -> failwith (Printf.sprintf "missing string field %S" name)

let tuple_exn name req =
  match field_exn name req with
  | Json.List items ->
      Tuple.of_strings
        (List.map
           (function
             | Json.String s -> s
             | _ -> failwith (Printf.sprintf "field %S: expected strings" name))
           items)
  | _ -> failwith (Printf.sprintf "field %S: expected an array" name)

let handle_status t =
  Protocol.ok
    [
      ("dataset", Json.String t.workload.Workload.name);
      ("version", Json.Int t.version);
      ("relations", Json.Int (List.length (Database.relation_names t.db)));
      ("tuples", Json.Int (Database.total_tuples t.db));
      ("pos", Json.Int (List.length t.workload.Workload.pos));
      ("neg", Json.Int (List.length t.workload.Workload.neg));
      ("cached_examples", Json.Int (Context.example_count t.ctx));
    ]

let handle_learn t req =
  let pos = t.workload.Workload.pos and neg = t.workload.Workload.neg in
  let pos =
    match Json.int_field "pos" req with Some n -> take n pos | None -> pos
  in
  let neg =
    match Json.int_field "neg" req with Some n -> take n neg | None -> neg
  in
  (* Rewind the sampling stream: a warm learn must draw exactly the
     samples a cold run would, so definitions are byte-identical. *)
  Context.reset_rng t.ctx;
  let r = Learner.learn t.ctx ~pos ~neg in
  Protocol.ok
    [
      ( "clauses",
        Json.List
          (List.map
             (fun c -> Json.String (Dlearn_logic.Clause.to_string c))
             r.Learner.definition.Dlearn_logic.Definition.clauses) );
      ( "stats",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("pos_covered", Json.Int s.Learner.pos_covered);
                   ("neg_covered", Json.Int s.Learner.neg_covered);
                 ])
             r.Learner.stats) );
      ("seconds", Json.Float r.Learner.seconds);
      ("seeds_skipped", Json.Int r.Learner.seeds_skipped);
      ("version", Json.Int t.version);
    ]

let parse_clause_exn text =
  match Dlearn_logic.Parser.clause text with
  | Ok c -> c
  | Error msg -> failwith ("clause does not parse: " ^ msg)

let handle_coverage t req =
  let c = parse_clause_exn (string_exn "clause" req) in
  let prepared = Coverage.prepare t.ctx c in
  let p, n =
    Coverage.coverage t.ctx prepared ~pos:t.workload.Workload.pos
      ~neg:t.workload.Workload.neg
  in
  Protocol.ok
    [
      ("pos_covered", Json.Int p);
      ("neg_covered", Json.Int n);
      ("pos", Json.Int (List.length t.workload.Workload.pos));
      ("neg", Json.Int (List.length t.workload.Workload.neg));
    ]

let handle_check t req =
  let open Dlearn_analysis in
  let clauses =
    match Json.list_field "clauses" req with
    | Some items ->
        List.map
          (function
            | Json.String s -> s
            | _ -> failwith "field \"clauses\": expected strings")
          items
    | None -> []
  in
  let target = t.workload.Workload.config.Config.target in
  let constraint_ds =
    Analyzer.check_constraints t.db ~mds:t.workload.Workload.mds
      ~cfds:t.workload.Workload.cfds
  in
  let clause_ds =
    List.concat_map
      (fun text ->
        match Dlearn_logic.Parser.clause text with
        | Error msg ->
            [
              Diagnostic.error ~code:"DL001" ~subject:Diagnostic.General
                ~witness:text ("clause does not parse: " ^ msg);
            ]
        | Ok c -> Analyzer.check_clause t.db ~target c)
      clauses
  in
  let ds = constraint_ds @ clause_ds in
  (* The analyzer already renders JSON; re-parse to embed structurally. *)
  Protocol.ok
    [
      ("diagnostics", Json.of_string (Diagnostic.report_to_json ds));
      ("errors", Json.Bool (Diagnostic.has_errors ds));
    ]

let handle_query t req =
  let c = parse_clause_exn (string_exn "clause" req) in
  let limit =
    match Json.int_field "limit" req with Some n -> n | None -> 25
  in
  let oracle =
    Dlearn_query.Conjunctive.oracle_of_spec
      t.workload.Workload.config.Config.sim
  in
  let rows = Dlearn_query.Conjunctive.answers ~limit t.db oracle c in
  Protocol.ok
    [
      ( "rows",
        Json.List
          (List.map
             (fun tu ->
               Json.List
                 (List.init (Tuple.arity tu) (fun i ->
                      Json.String (Value.to_string (Tuple.get tu i)))))
             rows) );
    ]

let relation_exn t name =
  match Database.find_opt t.db name with
  | Some r -> r
  | None -> failwith (Printf.sprintf "unknown relation %S" name)

(* Runs under the writer lock once the write has landed: count it and
   invalidate what the touched tuples can reach before any reader runs. *)
let applied t rel touched =
  t.version <- t.version + 1;
  let invalidated = Context.apply_delta t.ctx [ (rel, touched) ] in
  Protocol.ok
    [ ("version", Json.Int t.version); ("invalidated", Json.Int invalidated) ]

let handle_insert t req =
  let rel = string_exn "relation" req in
  let tuple = tuple_exn "values" req in
  let live = relation_exn t rel in
  Obs.span "serve.write" (fun () -> ignore (Relation.insert live tuple));
  applied t rel [ tuple ]

(* An update touches its new and its previous tuple: a value leaving a
   bottom clause invalidates as surely as one entering. *)
let handle_update t req =
  let rel = string_exn "relation" req in
  let id =
    match Json.int_field "id" req with
    | Some id -> id
    | None -> failwith "missing int field \"id\""
  in
  let tuple = tuple_exn "values" req in
  let live = relation_exn t rel in
  Obs.span "serve.write" (fun () ->
      Database.replace_relation t.db (Relation.with_tuple live id tuple));
  applied t rel [ tuple; Relation.get live id ]

let handle_metrics () =
  (* [report_json] renders the registry; re-parse to embed. *)
  Protocol.ok [ ("metrics", Json.of_string (Obs.report_json ())) ]

(* The handler of a known op. Reads share the RW lock; writes exclude
   them. *)
let route t req = function
  | "ping" -> Some (fun () -> Protocol.ok [ ("pong", Json.Bool true) ])
  | "status" -> Some (fun () -> Rwlock.read t.rw (fun () -> handle_status t))
  | "learn" -> Some (fun () -> Rwlock.read t.rw (fun () -> handle_learn t req))
  | "coverage" ->
      Some (fun () -> Rwlock.read t.rw (fun () -> handle_coverage t req))
  | "check" -> Some (fun () -> Rwlock.read t.rw (fun () -> handle_check t req))
  | "query" -> Some (fun () -> Rwlock.read t.rw (fun () -> handle_query t req))
  | "insert" ->
      Some (fun () -> Rwlock.write t.rw (fun () -> handle_insert t req))
  | "update" ->
      Some (fun () -> Rwlock.write t.rw (fun () -> handle_update t req))
  | "metrics" -> Some handle_metrics
  | "shutdown" ->
      Some
        (fun () ->
          Atomic.set t.stop true;
          Protocol.ok [])
  | _ -> None

(* Dispatch one request. Every handler error becomes an {"ok":false}
   response — a bad request must not kill the connection, let alone the
   server. [Failure] and [Invalid_argument] carry a message meant for the
   client; any other exception is reported as OCaml prints it. A request
   without a known op is timed under one span, [serve.unknown], so the
   registry does not grow a histogram per op string a client invents. *)
let handle t req =
  Obs.incr requests_c;
  let op, run =
    match Json.string_field "op" req with
    | None -> ("unknown", fun () -> failwith "request has no string \"op\" field")
    | Some op -> (
        match route t req op with
        | Some run -> (op, run)
        | None ->
            ("unknown", fun () -> failwith (Printf.sprintf "unknown op %S" op)))
  in
  try Obs.span ("serve." ^ op) run
  with exn ->
    Obs.incr errors_c;
    Protocol.error
      (match exn with
      | Failure msg | Invalid_argument msg -> msg
      | exn -> Printexc.to_string exn)

(* {2 The socket loop} *)

let rec accept_ready fd stop =
  (* Block in [select] with a short timeout so a shutdown request (or
     signal handler setting [stop]) is noticed without a connection. *)
  if Atomic.get stop then None
  else
    match Unix.select [ fd ] [] [] 0.2 with
    | [ _ ], _, _ -> Some (fst (Unix.accept fd))
    | _ -> accept_ready fd stop
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_ready fd stop

(* A peer that hangs up before its reply makes the write fail with
   [EPIPE] (SIGPIPE is ignored, see [run]) or a read fail with
   [ECONNRESET]: the connection ends there, counted as an error. *)
let serve_connection t fd =
  Obs.incr connections_c;
  let rec loop () =
    match Protocol.read_json fd with
    | req ->
        Protocol.write_json fd (handle t req);
        if not (Atomic.get t.stop) then loop ()
    | exception End_of_file -> ()
    | exception Protocol.Protocol_error msg ->
        Obs.incr errors_c;
        (try Protocol.write_json fd (Protocol.error msg)
         with Unix.Unix_error _ -> ())
  in
  let serve () =
    try loop ()
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      Obs.incr errors_c
  in
  Fun.protect serve ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())

let run t ~socket_path =
  (* Without this, a client closing its socket before its reply kills the
     whole process with SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists socket_path then Sys.remove socket_path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX socket_path);
      Unix.listen listener 16;
      let threads = ref [] in
      let rec accept_loop () =
        match accept_ready listener t.stop with
        | None -> ()
        | Some conn ->
            threads :=
              Thread.create (fun () -> serve_connection t conn) () :: !threads;
            accept_loop ()
      in
      accept_loop ();
      (* Drain: connections observe [stop] after their in-flight request
         (or close on their own); join so the caller sees quiescence. *)
      List.iter Thread.join !threads)
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      if Sys.file_exists socket_path then Sys.remove socket_path)

let stop t = Atomic.set t.stop true
