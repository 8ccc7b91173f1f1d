type 'a state =
  | Unforced of (unit -> 'a)
  | Forced of 'a
  | Raised of exn

(* [state] is atomic so a forced cell answers without its mutex; the
   mutex only orders the one computation. *)
type 'a t = {
  m : Mutex.t;
  state : 'a state Atomic.t;
}

let make f = { m = Mutex.create (); state = Atomic.make (Unforced f) }
let return v = { m = Mutex.create (); state = Atomic.make (Forced v) }

let rec force t =
  match Atomic.get t.state with
  | Forced v -> v
  | Raised e -> raise e
  | Unforced _ ->
      Mutex.protect t.m (fun () ->
          (* Another domain may have computed it while this one waited. *)
          match Atomic.get t.state with
          | Unforced f ->
              Atomic.set t.state (try Forced (f ()) with e -> Raised e)
          | Forced _ | Raised _ -> ());
      force t

let is_forced t =
  match Atomic.get t.state with Unforced _ -> false | Forced _ | Raised _ -> true

type 'a cell = 'a t

module type TABLE = sig
  type key
  type 'a t

  val create : int -> 'a t
  val find_or_add : 'a t -> key -> (unit -> 'a) -> 'a
  val remove : 'a t -> key -> unit
  val find_opt : 'a t -> key -> 'a option
  val computed : 'a t -> (key * 'a) list
end

module Table (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type key = K.t
  type 'a t = { lock : Mutex.t; cells : 'a cell H.t }

  let create n = { lock = Mutex.create (); cells = H.create n }

  (* The lock guards the table only: the cell is forced after it is
     released, so distinct keys compute in parallel. *)
  let find_or_add t key f =
    force
      (Mutex.protect t.lock (fun () ->
           match H.find_opt t.cells key with
           | Some cell -> cell
           | None ->
               let cell = make f in
               H.add t.cells key cell;
               cell))

  let remove t key = Mutex.protect t.lock (fun () -> H.remove t.cells key)

  let value cell =
    match Atomic.get cell.state with
    | Forced v -> Some v
    | Unforced _ | Raised _ -> None

  let find_opt t key =
    Option.bind (Mutex.protect t.lock (fun () -> H.find_opt t.cells key)) value

  let computed t =
    Mutex.protect t.lock (fun () ->
        H.fold
          (fun key cell acc ->
            match value cell with Some v -> (key, v) :: acc | None -> acc)
          t.cells [])
end
