let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* ------------------------------------------------------------------ *)
(* Registry: metrics are identified by name; each holds one cell per
   writing domain. The registry mutex guards only name lookup and shard
   registration — every update after a domain's first touch of a metric
   goes through domain-local storage and plain field writes.             *)

(* One domain's shard of a metric. A cell has exactly one writing domain,
   so plain mutable fields are race-free; readers merging shards may see
   a value a few updates stale, never a torn one (OCaml immediate ints
   do not tear). *)
type cell = {
  mutable count : int;
  mutable sum : int;
  mutable mn : int;
  mutable mx : int;
}

type kind = Counter | Gauge | Histogram

type metric = {
  id : int;
  name : string;
  kind : kind;
  mutable cells : cell list; (* appended under [registry_m] *)
  mutable gauge_v : float; (* gauges only: last write wins *)
}

type counter = metric
type gauge = metric
type histogram = metric

let registry_m = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let next_id = ref 0

let intern kind name =
  Mutex.protect registry_m (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m ->
          if m.kind <> kind then
            invalid_arg
              (Printf.sprintf "Obs: metric %s already registered with another kind"
                 name);
          m
      | None ->
          let m =
            {
              id = !next_id;
              name;
              kind;
              cells = [];
              gauge_v = 0.0;
            }
          in
          incr next_id;
          Hashtbl.add registry name m;
          m)

(* Per-domain name -> metric cache so repeated lookups (notably [span],
   which resolves its histogram by name on every call) stay off the
   registry mutex. *)
let local_metrics : (string, metric) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let find_or_create kind name =
  let local = Domain.DLS.get local_metrics in
  match Hashtbl.find_opt local name with
  | Some m when m.kind = kind -> m
  | _ ->
      let m = intern kind name in
      Hashtbl.replace local name m;
      m

let counter name = find_or_create Counter name
let gauge name = find_or_create Gauge name
let histogram name = find_or_create Histogram name

(* Domain-local metric-id -> cell table. Created lazily per domain; the
   pool keeps its domains alive across batches, so each worker pays the
   registration cost once per metric. *)
let local_cells : (int, cell) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let cell_of (m : metric) =
  let local = Domain.DLS.get local_cells in
  match Hashtbl.find_opt local m.id with
  | Some c -> c
  | None ->
      let c = { count = 0; sum = 0; mn = max_int; mx = min_int } in
      Hashtbl.add local m.id c;
      Mutex.protect registry_m (fun () -> m.cells <- c :: m.cells);
      c

let add (m : counter) k =
  let c = cell_of m in
  c.count <- c.count + 1;
  c.sum <- c.sum + k

let incr m = add m 1

let value (m : counter) = List.fold_left (fun acc c -> acc + c.sum) 0 m.cells

let set_gauge (m : gauge) v = m.gauge_v <- v
let gauge_value (m : gauge) = m.gauge_v

let observe_ns (m : histogram) ns =
  let c = cell_of m in
  c.count <- c.count + 1;
  c.sum <- c.sum + ns;
  if ns < c.mn then c.mn <- ns;
  if ns > c.mx then c.mx <- ns

type histogram_snapshot = {
  count : int;
  total_ns : int;
  min_ns : int;
  max_ns : int;
}

let histogram_snapshot (m : histogram) =
  let count, total, mn, mx =
    List.fold_left
      (fun (count, total, mn, mx) (c : cell) ->
        (count + c.count, total + c.sum, min mn c.mn, max mx c.mx))
      (0, 0, max_int, min_int) m.cells
  in
  if count = 0 then { count = 0; total_ns = 0; min_ns = 0; max_ns = 0 }
  else { count; total_ns = total; min_ns = mn; max_ns = mx }

(* ------------------------------------------------------------------ *)
(* Trace events. One buffer per domain, registered globally on first
   use; recording toggles an atomic flag that every producer checks
   before touching its buffer.                                          *)

type event = {
  ev_name : string;
  ev_args : (string * string) list;
  ev_ts_ns : int;
  ev_dur_ns : int;
  ev_tid : int;
}

type buffer = { mutable evs : event list }

let buffers_m = Mutex.create ()
let buffers : buffer list ref = ref []

let local_buffer : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { evs = [] } in
      Mutex.protect buffers_m (fun () -> buffers := b :: !buffers);
      b)

let recording_flag = Atomic.make false
let trace_start_ns = Atomic.make 0
let recording () = Atomic.get recording_flag

(* Spans are pay-for-what-you-use: with neither span metrics nor trace
   recording switched on, [span] must cost nothing beyond calling its
   closure. [active_flag] is the single flag producers read on the fast
   path; it is refreshed whenever either input flag changes. *)
let metrics_flag = Atomic.make false
let active_flag = Atomic.make false

let refresh_active () =
  Atomic.set active_flag (Atomic.get metrics_flag || Atomic.get recording_flag)

let set_metrics on =
  Atomic.set metrics_flag on;
  refresh_active ()

let metrics_enabled () = Atomic.get metrics_flag
let active () = Atomic.get active_flag

let clear_events () =
  Mutex.protect buffers_m (fun () -> List.iter (fun b -> b.evs <- []) !buffers)

let start_recording () =
  clear_events ();
  Atomic.set trace_start_ns (now_ns ());
  Atomic.set recording_flag true;
  refresh_active ()

let stop_recording () =
  Atomic.set recording_flag false;
  refresh_active ()

let push_event ev =
  let b = Domain.DLS.get local_buffer in
  b.evs <- ev :: b.evs

let emit_event ?(args = []) ~name ~start_ns ~dur_ns () =
  if recording () then
    push_event
      {
        ev_name = name;
        ev_args = args;
        ev_ts_ns = start_ns;
        ev_dur_ns = dur_ns;
        ev_tid = (Domain.self () :> int);
      }

let span_slow ~args name f =
  let h = histogram name in
  let t0 = now_ns () in
  match f () with
  | v ->
      let dt = now_ns () - t0 in
      observe_ns h dt;
      emit_event ~args ~name ~start_ns:t0 ~dur_ns:dt ();
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      let dt = now_ns () - t0 in
      observe_ns h dt;
      emit_event
        ~args:(("exception", Printexc.to_string e) :: args)
        ~name ~start_ns:t0 ~dur_ns:dt ();
      Printexc.raise_with_backtrace e bt

(* The common case — no report requested, no trace recording — must not
   pay for timestamps, DLS lookups, or event argument lists: one atomic
   read, then the bare closure call. *)
let span ?(args = []) name f =
  if Atomic.get active_flag then span_slow ~args name f else f ()

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export.                                          *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_args args =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
         args)
  ^ "}"

let write_trace path =
  let evs =
    Mutex.protect buffers_m (fun () ->
        List.concat_map (fun b -> b.evs) !buffers)
  in
  let evs =
    List.sort (fun a b -> Int.compare a.ev_ts_ns b.ev_ts_ns) evs
  in
  (* Rebase to the recording start so viewers open near t = 0. *)
  let base =
    match evs with
    | [] -> Atomic.get trace_start_ns
    | e :: _ -> min e.ev_ts_ns (Atomic.get trace_start_ns)
  in
  let pid = Unix.getpid () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
      Printf.fprintf oc
        "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"dlearn\"}}"
        pid;
      let tids =
        List.sort_uniq Int.compare (List.map (fun e -> e.ev_tid) evs)
      in
      List.iter
        (fun tid ->
          Printf.fprintf oc
            ",\n\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
            pid tid tid)
        tids;
      List.iter
        (fun e ->
          Printf.fprintf oc
            ",\n\
             {\"name\":\"%s\",\"cat\":\"dlearn\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":%s}"
            (json_escape e.ev_name)
            (float_of_int (e.ev_ts_ns - base) /. 1e3)
            (float_of_int e.ev_dur_ns /. 1e3)
            pid e.ev_tid (render_args e.ev_args))
        evs;
      output_string oc "\n]}\n")

(* ------------------------------------------------------------------ *)
(* Reports.                                                            *)

let metrics_sorted () =
  Mutex.protect registry_m (fun () ->
      Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  |> List.sort (fun a b -> String.compare a.name b.name)

let secs ns = float_of_int ns /. 1e9

let pp_duration ns =
  let s = secs ns in
  if s >= 1.0 then Printf.sprintf "%.3fs" s
  else if s >= 1e-3 then Printf.sprintf "%.3fms" (s *. 1e3)
  else Printf.sprintf "%.1fus" (s *. 1e6)

let report () =
  let ms = metrics_sorted () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== observability report ==\n";
  let spans =
    List.filter_map
      (fun m ->
        if m.kind <> Histogram then None
        else
          let s = histogram_snapshot m in
          if s.count = 0 then None else Some (m, s))
      ms
    |> List.sort (fun (_, a) (_, b) -> Int.compare b.total_ns a.total_ns)
  in
  if spans <> [] then begin
    Buffer.add_string buf "spans:\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-32s %10s %12s %12s %12s\n" "name" "count" "total"
         "mean" "max");
    List.iter
      (fun (m, s) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-32s %10d %12s %12s %12s\n" m.name s.count
             (pp_duration s.total_ns)
             (pp_duration (s.total_ns / max 1 s.count))
             (pp_duration s.max_ns)))
      spans
  end;
  let counters =
    List.filter_map
      (fun m ->
        if m.kind <> Counter then None
        else
          let v = value m in
          if v = 0 then None else Some (m.name, v))
      ms
  in
  if counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-32s %14d\n" name v))
      counters
  end;
  let gauges =
    List.filter_map
      (fun m -> if m.kind = Gauge then Some (m.name, m.gauge_v) else None)
      ms
  in
  if gauges <> [] then begin
    Buffer.add_string buf "gauges:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-32s %14.2f\n" name v))
      gauges
  end;
  Buffer.contents buf

let report_json () =
  let ms = metrics_sorted () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"spans\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ','
  in
  List.iter
    (fun m ->
      if m.kind = Histogram then begin
        let s = histogram_snapshot m in
        if s.count > 0 then begin
          sep ();
          Buffer.add_string buf
            (Printf.sprintf
               "{\"name\":\"%s\",\"count\":%d,\"total_ns\":%d,\"min_ns\":%d,\"max_ns\":%d}"
               (json_escape m.name) s.count s.total_ns s.min_ns s.max_ns)
        end
      end)
    ms;
  Buffer.add_string buf "],\"counters\":[";
  first := true;
  List.iter
    (fun m ->
      if m.kind = Counter then begin
        sep ();
        Buffer.add_string buf
          (Printf.sprintf "{\"name\":\"%s\",\"value\":%d}" (json_escape m.name)
             (value m))
      end)
    ms;
  Buffer.add_string buf "],\"gauges\":[";
  first := true;
  List.iter
    (fun m ->
      if m.kind = Gauge then begin
        sep ();
        Buffer.add_string buf
          (Printf.sprintf "{\"name\":\"%s\",\"value\":%.6f}"
             (json_escape m.name) m.gauge_v)
      end)
    ms;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* {2 Process memory} *)

let peak_rss_kb () =
  (* VmHWM is the process's lifetime peak resident set — the number the
     scale bench compares streaming vs. materializing ingestion with. *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  let digits =
                    String.to_seq (String.sub line 6 (String.length line - 6))
                    |> Seq.filter (fun c -> c >= '0' && c <= '9')
                    |> String.of_seq
                  in
                  int_of_string_opt digits
                else scan ()
          in
          scan ())
