module Json = Dlearn_serve.Json

type better = Lower | Higher
type bound = { metric : string; better : better; bound : float }

let fail fmt = Printf.ksprintf invalid_arg fmt

let number = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> fail "Report: expected a number"

let str key j =
  match Json.string_field key j with
  | Some s -> s
  | None -> fail "Report: missing string field %S" key

let int key j =
  match Json.int_field key j with
  | Some i -> i
  | None -> fail "Report: missing int field %S" key

let list key j =
  match Json.list_field key j with
  | Some l -> l
  | None -> fail "Report: missing array field %S" key

let fields key j =
  match Json.member key j with
  | Some (Json.Obj kvs) -> kvs
  | _ -> fail "Report: missing object field %S" key

let bounds_of_benchmark json =
  List.map
    (fun m ->
      {
        metric = str "name" m;
        better =
          (match str "better" m with
          | "lower" -> Lower
          | "higher" -> Higher
          | other -> fail "Report: better must be lower or higher, not %S" other);
        bound =
          (match Json.member "bound" m with
          | Some v -> number v
          | None -> fail "Report: metric without a bound");
      })
    (list "end_to_end" json)

type workload = {
  name : string;
  attempted : int;
  failed : int;
  end_to_end : (string * string * float list) list;
  per_layer : (string * string * float) list;
}

type t = { seconds : int; seed : int; workloads : workload list }

let error_rate w =
  if w.attempted = 0 then 1. else float_of_int w.failed /. float_of_int w.attempted

let workload_to_json w =
  Json.Obj
    [
      ("name", Json.String w.name);
      ("attempted", Json.Int w.attempted);
      ("failed", Json.Int w.failed);
      ("error_rate", Json.Float (error_rate w));
      ( "end_to_end",
        Json.Obj
          (List.map
             (fun (m, unit, runs) ->
               ( m,
                 Json.Obj
                   (("unit", Json.String unit)
                   :: (if runs = [] then [] else [ ("median", Json.Float (Stats.median runs)) ])
                   @ [ ("runs", Json.List (List.map (fun v -> Json.Float v) runs)) ]) ))
             w.end_to_end) );
      ( "per_layer",
        Json.Obj
          (List.map
             (fun (m, unit, v) ->
               (m, Json.Obj [ ("unit", Json.String unit); ("value", Json.Float v) ]))
             w.per_layer) );
    ]

let to_json t =
  Json.Obj
    [
      ("seconds", Json.Int t.seconds);
      ("seed", Json.Int t.seed);
      ("workloads", Json.List (List.map workload_to_json t.workloads));
    ]

let workload_of_json j =
  let value key m =
    match Json.member key m with
    | Some v -> number v
    | None -> fail "Report: missing %S" key
  in
  {
    name = str "name" j;
    attempted = int "attempted" j;
    failed = int "failed" j;
    end_to_end =
      List.map
        (fun (m, v) -> (m, str "unit" v, List.map number (list "runs" v)))
        (fields "end_to_end" j);
    per_layer =
      List.map (fun (m, v) -> (m, str "unit" v, value "value" v)) (fields "per_layer" j);
  }

let of_json j =
  {
    seconds = int "seconds" j;
    seed = int "seed" j;
    workloads = List.map workload_of_json (list "workloads" j);
  }

type row = {
  workload : string;
  metric : string;
  old_value : float;
  new_value : float;
  change : float;
  allowed : float;
  regressed : bool;
}

let median_of w metric =
  List.find_map
    (fun (m, _, runs) -> if m = metric && runs <> [] then Some (Stats.median runs) else None)
    w.end_to_end

let relative ~old_value ~new_value =
  if old_value = 0. then 0. else (new_value -. old_value) /. old_value

let compare bounds ~old ~current =
  List.concat_map
    (fun ow ->
      let nw = List.find_opt (fun w -> w.name = ow.name) current.workloads in
      let metric_rows =
        List.map
          (fun (b : bound) ->
            let old_value =
              match median_of ow b.metric with
              | Some v -> v
              | None -> fail "Report.compare: %s lacks %s" ow.name b.metric
            in
            match Option.bind nw (fun w -> median_of w b.metric) with
            | None ->
                {
                  workload = ow.name;
                  metric = b.metric;
                  old_value;
                  new_value = Float.nan;
                  change = 0.;
                  allowed = b.bound;
                  regressed = true;
                }
            | Some new_value ->
                let change = relative ~old_value ~new_value in
                let worse = match b.better with Lower -> change | Higher -> -.change in
                {
                  workload = ow.name;
                  metric = b.metric;
                  old_value;
                  new_value;
                  change;
                  allowed = b.bound;
                  regressed = worse > b.bound;
                })
          bounds
      in
      let old_rate = error_rate ow in
      let new_rate = match nw with Some w -> error_rate w | None -> 1. in
      metric_rows
      @ [
          {
            workload = ow.name;
            metric = "error_rate";
            old_value = old_rate;
            new_value = new_rate;
            change = new_rate -. old_rate;
            allowed = 0.;
            regressed = new_rate > old_rate;
          };
        ])
    old.workloads

let render rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-14s %-18s %14s %14s %9s %7s  %s\n" "workload" "metric" "old"
       "new" "change" "bound" "verdict");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-14s %-18s %14.6g %14.6g %+8.1f%% %6.1f%%  %s\n" r.workload
           r.metric r.old_value r.new_value (100. *. r.change) (100. *. r.allowed)
           (if r.regressed then "REGRESSED" else "ok")))
    rows;
  Buffer.contents buf
