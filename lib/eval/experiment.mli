(** Experiment driver: one function per table / figure of §6.

    Every function returns a header and printable rows (and the raw runs),
    so the benchmark harness renders them as the paper does. Scale factors
    default to laptop-sized workloads; absolute numbers differ from the
    paper (see EXPERIMENTS.md), the comparisons are what is reproduced. *)

type run = {
  system : Dlearn_core.Baselines.system;
  workload_name : string;
  f1 : float;
  f1_std : float;
  precision : float;
  recall : float;
  seconds : float;  (** mean learning seconds per fold *)
}

(** [evaluate ?folds system workload] cross-validates one system on one
    workload (default 5 folds, the paper's protocol). *)
val evaluate : ?folds:int -> Dlearn_core.Baselines.system -> Workload.t -> run

(** [with_km w km] sets the top-matches parameter. *)
val with_km : Workload.t -> int -> Workload.t

(** [with_depth w d] sets the bottom-clause iteration count. *)
val with_depth : Workload.t -> int -> Workload.t

(** [with_jobs w n] sets the domain count used by coverage and fold
    fan-out (clamped to at least 1; 1 = sequential). *)
val with_jobs : Workload.t -> int -> Workload.t

(** [with_trace w (Some path)] makes {!evaluate} record the run and write
    a Chrome trace-event JSON (Perfetto-loadable) to [path] when it
    finishes; [None] disables tracing. Tracing never changes what is
    learned — see docs/OBSERVABILITY.md. *)
val with_trace : Workload.t -> string option -> Workload.t

(** [with_sample_size w s] sets the per-relation literal cap. *)
val with_sample_size : Workload.t -> int -> Workload.t

type table = {
  title : string;
  header : string list;
  rows : string list list;
  plots : (string * string * (string * float) list) list;
      (** (title, unit, points): ASCII bar charts appended to the render *)
}

val render : table -> string

(** Table 4: F1 and time for Castor-NoMD / Castor-Exact / Castor-Clean and
    DLearn at km = 2, 5, 10 over the four MD workloads. *)
val table4 : ?folds:int -> ?n:int -> unit -> table

(** Table 5: DLearn-CFD vs DLearn-Repaired at violation rates
    p = 0.05, 0.10, 0.20 over the three datasets. *)
val table5 : ?folds:int -> ?n:int -> unit -> table

(** Table 6: scaling the number of training examples on IMDB+OMDB (three
    MDs) with CFD violations, km = 5 and km = 2. *)
val table6 : ?folds:int -> ?n:int -> unit -> table

(** Table 7: the effect of the iteration count d on IMDB+OMDB (3 MDs +
    CFD violations), km = 5. *)
val table7 : ?folds:int -> ?n:int -> unit -> table

(** Figure 1 left: F1/time as the number of training examples grows
    (km = 2, IMDB+OMDB three MDs). *)
val figure1_examples : ?folds:int -> ?n:int -> unit -> table

(** Figure 1 middle/right: F1/time as sample size varies, at the given
    km. *)
val figure1_sample_size : ?folds:int -> ?n:int -> km:int -> unit -> table

(** §6.2.1: the learned definitions over Walmart+Amazon for DLearn and
    Castor-Clean, printed for qualitative comparison. *)
val qualitative_definitions : ?n:int -> unit -> string
