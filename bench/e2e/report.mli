(** Result files of [e2e.exe run] and the comparison of two of them.

    A result file holds, per workload, the per-run values of every
    end-to-end metric, the per-layer metrics of its traced run, and the
    operation counts behind [error_rate]. It is written and read through
    {!Dlearn_serve.Json}. *)

type better = Lower | Higher

(** One end-to-end metric of [BENCHMARK.json]: how it is judged and by
    how much (a share of the old median) it may worsen. *)
type bound = { metric : string; better : better; bound : float }

(** [bounds_of_benchmark json] reads the [end_to_end] list of a parsed
    [BENCHMARK.json].
    @raise Invalid_argument on a malformed entry. *)
val bounds_of_benchmark : Dlearn_serve.Json.t -> bound list

type workload = {
  name : string;
  attempted : int;
  failed : int;
  end_to_end : (string * string * float list) list;
      (** metric, unit, one value per timed run *)
  per_layer : (string * string * float) list;  (** metric, unit, value *)
}

type t = { seconds : int; seed : int; workloads : workload list }

val error_rate : workload -> float
val to_json : t -> Dlearn_serve.Json.t

(** @raise Invalid_argument on a document that is not a result file. *)
val of_json : Dlearn_serve.Json.t -> t

type row = {
  workload : string;
  metric : string;
  old_value : float;  (** median over the old file's runs *)
  new_value : float;
  change : float;  (** (new - old) / old; 0 when old is 0 *)
  allowed : float;  (** the bound; 0 for [error_rate] *)
  regressed : bool;
}

(** [compare bounds ~old ~current] lines up every workload of [old]
    with [current]: one row per bounded end-to-end metric, then one
    [error_rate] row. A metric regresses when it worsens by more than
    its bound; [error_rate] regresses on any increase. A workload or
    metric missing from [current] is reported as regressed.
    @raise Invalid_argument when a bounded metric is missing from [old]. *)
val compare : bound list -> old:t -> current:t -> row list

val render : row list -> string
