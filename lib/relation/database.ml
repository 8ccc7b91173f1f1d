(* A relation slot is either materialized or a pending loader thunk
   ([Storage.load ~lazy_load:true] registers these). The fast path —
   every lookup in a fully-loaded database — is the plain [Hashtbl.find]
   it always was, guarded by one atomic load of [pending]: while any
   thunk is outstanding, {b every} lookup detours through the lock, so a
   reader can never race [force]'s [Hashtbl.replace] (the table may be
   mid-bucket-mutation when several relations force concurrently). The
   atomic's release/acquire ordering publishes the replaced entries: a
   reader that observes [pending = 0] observes every [Loaded] slot. *)

type entry = Loaded of Relation.t | Pending of (unit -> Relation.t)

type t = {
  by_name : (string, entry) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
  pending : int Atomic.t;
  lock : Mutex.t;
}

let create () =
  {
    by_name = Hashtbl.create 16;
    order = [];
    pending = Atomic.make 0;
    lock = Mutex.create ();
  }

let register t name entry =
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Database.add_relation: duplicate %s" name);
  Hashtbl.add t.by_name name entry;
  t.order <- name :: t.order

let add_relation t r = register t (Relation.name r) (Loaded r)

let add_lazy t name load =
  register t name (Pending load);
  Atomic.incr t.pending

let create_relation t schema =
  let r = Relation.create schema in
  add_relation t r;
  r

let force t name =
  Mutex.protect t.lock (fun () ->
      (* Re-check under the lock: another caller may have forced it. *)
      match Hashtbl.find_opt t.by_name name with
      | Some (Loaded r) -> r
      | Some (Pending load) ->
          let r = load () in
          if Relation.name r <> name then
            invalid_arg
              (Printf.sprintf "Database: lazy loader for %s produced %s" name
                 (Relation.name r));
          Hashtbl.replace t.by_name name (Loaded r);
          Atomic.decr t.pending;
          r
      | None -> raise Not_found)

(* While thunks remain, even lookups of already-loaded relations take the
   lock: an unlocked [Hashtbl.find_opt] could observe the table mid-way
   through a concurrent [force]'s [Hashtbl.replace]. *)
let find t name =
  if Atomic.get t.pending = 0 then
    match Hashtbl.find_opt t.by_name name with
    | Some (Loaded r) -> r
    | Some (Pending _) | None ->
        (* A thunk registered after the atomic read; settle under lock. *)
        force t name
  else force t name

let find_opt t name = match find t name with
  | r -> Some r
  | exception Not_found -> None

let mem t name = Hashtbl.mem t.by_name name

let is_loaded t name =
  let probe () =
    match Hashtbl.find_opt t.by_name name with
    | Some (Loaded _) -> true
    | Some (Pending _) | None -> false
  in
  if Atomic.get t.pending = 0 then probe ()
  else Mutex.protect t.lock probe

let pending_count t = Atomic.get t.pending
let relation_names t = List.rev t.order
let relations t = List.map (find t) (relation_names t)

let materialize t =
  List.iter (fun name -> ignore (find t name)) (relation_names t)

(* The three summaries below must never force a pending relation —
   printing or copying a lazily-loaded database would otherwise
   materialize it, defeating the streaming-RSS point of lazy loading. *)

let fold_entries t f init =
  let read () =
    List.fold_left
      (fun acc name ->
        match Hashtbl.find_opt t.by_name name with
        | Some entry -> f acc name entry
        | None -> acc)
      init (relation_names t)
  in
  if Atomic.get t.pending = 0 then read () else Mutex.protect t.lock read

(* Loaded relations only: pending entries count for zero rather than
   being forced. [pp_summary] reports them as pending. *)
let total_tuples t =
  fold_entries t
    (fun acc _ -> function
      | Loaded r -> acc + Relation.cardinality r
      | Pending _ -> acc)
    0

(* Loaded relations are deep-copied; pending ones stay pending in the
   copy, sharing the loader thunk (it re-runs on the copy's first
   access). *)
let copy t =
  let t' = create () in
  fold_entries t
    (fun () name -> function
      | Loaded r -> add_relation t' (Relation.copy r)
      | Pending load -> add_lazy t' name load)
    ();
  t'

let pp_summary fmt t =
  let pending = pending_count t in
  Format.fprintf fmt "@[<v>database: %d relations (%d pending), %d tuples"
    (List.length t.order) pending (total_tuples t);
  fold_entries t
    (fun () name -> function
      | Loaded r ->
          Format.fprintf fmt "@,  %a: %d tuples" Schema.pp (Relation.schema r)
            (Relation.cardinality r)
      | Pending _ -> Format.fprintf fmt "@,  %s: pending" name)
    ();
  Format.fprintf fmt "@]"

let replace_relation t r =
  let name = Relation.name r in
  let swap () =
    match Hashtbl.find_opt t.by_name name with
    | Some (Loaded _) -> Hashtbl.replace t.by_name name (Loaded r)
    | Some (Pending _) | None ->
        invalid_arg
          (Printf.sprintf "Database.replace_relation: no loaded relation %s"
             name)
  in
  if Atomic.get t.pending = 0 then swap () else Mutex.protect t.lock swap
