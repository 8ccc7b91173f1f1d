type t = {
  target : Dlearn_relation.Schema.t;
  depth : int;
  km : int;
  sample_size : int;
  sim : Dlearn_constraints.Md.sim_spec;
  exact_matching : bool;
  constant_attrs : (string * string) list;
  searchable_attrs : (string * string) list;
  sample_positives : int;
  min_pos : int;
  min_precision : float;
  max_clauses : int;
  armg_beam : int;
  climb_neg_cap : int;
  subsumption_budget : int;
  repair_state_cap : int;
  repair_result_cap : int;
  cfd_rounds : int;
  allow_dirty_constraints : bool;
  num_domains : int;
  trace : string option;
  seed : int;
}

(* OCaml 5's default [Max_domains] on 64-bit: a pool wider than this
   cannot spawn its workers. *)
let max_domains = 128

(* DLEARN_NUM_DOMAINS overrides the hardware default so CI (and any batch
   environment) can pin the parallel or the sequential path without
   plumbing a flag through every entry point. *)
let default_num_domains () =
  match Sys.getenv_opt "DLEARN_NUM_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 && n <= max_domains -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* DLEARN_TRACE=out.json records a Chrome trace of every run that goes
   through [Experiment.evaluate] (the CLI's --trace flag sets the same
   field). Empty or unset means no tracing. *)
let default_trace () =
  match Sys.getenv_opt "DLEARN_TRACE" with
  | Some s when String.trim s <> "" -> Some (String.trim s)
  | Some _ | None -> None

let default ~target =
  {
    target;
    depth = 3;
    km = 5;
    sample_size = 10;
    sim = Dlearn_constraints.Md.default_sim;
    exact_matching = false;
    constant_attrs = [];
    searchable_attrs = [];
    sample_positives = 10;
    min_pos = 2;
    min_precision = 0.7;
    max_clauses = 8;
    armg_beam = 32;
    climb_neg_cap = 40;
    subsumption_budget = 200_000;
    repair_state_cap = 512;
    repair_result_cap = 16;
    cfd_rounds = 2;
    allow_dirty_constraints = false;
    num_domains = default_num_domains ();
    trace = default_trace ();
    seed = 42;
  }

let pp fmt t =
  Format.fprintf fmt
    "{target=%s; d=%d; km=%d; sample_size=%d; threshold=%.2f; exact=%b; jobs=%d; seed=%d}"
    (Dlearn_relation.Schema.name t.target)
    t.depth t.km t.sample_size t.sim.Dlearn_constraints.Md.threshold
    t.exact_matching t.num_domains t.seed
