module Json = Dlearn_serve.Json

type event = { name : string; tid : int; ts_us : float; dur_us : float }

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let events_of_trace json =
  match Json.list_field "traceEvents" json with
  | None -> invalid_arg "Selftime.events_of_trace: no traceEvents array"
  | Some items ->
      List.filter_map
        (fun e ->
          let num key = Option.bind (Json.member key e) number in
          match
            ( Json.string_field "ph" e,
              Json.string_field "name" e,
              Json.int_field "tid" e,
              num "ts",
              num "dur" )
          with
          | Some "X", Some name, Some tid, Some ts_us, Some dur_us ->
              Some { name; tid; ts_us; dur_us }
          | _ -> None)
        items

type span = { event : event; self_us : float; root : event }

(* Containers come before their contents: earlier start first, and at
   equal starts the longer span first. *)
let order a b =
  match Float.compare a.ts_us b.ts_us with
  | 0 -> Float.compare b.dur_us a.dur_us
  | c -> c

(* Stamps are whole nanoseconds written in microseconds, so [ts + dur]
   of one span and [ts] of the next can differ by float rounding alone:
   a span starting within half a nanosecond of another's end follows
   it rather than nests in it. *)
let ended p e = e.ts_us >= p.ts_us +. p.dur_us -. 5e-4

(* One domain's spans, walked in start order with a stack of the open
   ancestors; each span charges its duration to the innermost ancestor
   still open when it starts. *)
let analyse_domain events acc =
  let finished = ref acc in
  let close (e, children, root) =
    finished :=
      { event = e; self_us = Float.max 0. (e.dur_us -. !children); root }
      :: !finished
  in
  let stack = ref [] in
  List.iter
    (fun e ->
      let rec unwind () =
        match !stack with
        | ((p, _, _) as top) :: rest when ended p e ->
            close top;
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      let root =
        match !stack with
        | (_, children, root) :: _ ->
            children := !children +. e.dur_us;
            root
        | [] -> e
      in
      stack := (e, ref 0., root) :: !stack)
    (List.sort order events);
  List.iter close !stack;
  !finished

let analyse events =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun e ->
      Hashtbl.replace by_tid e.tid
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_tid e.tid)))
    events;
  Hashtbl.fold (fun _ evs acc -> analyse_domain evs acc) by_tid []
