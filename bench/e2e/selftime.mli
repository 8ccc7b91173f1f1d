(** Self time of the spans in a Chrome trace written by
    {!Dlearn_obs.Obs.write_trace}.

    A span's self time is its duration minus the durations of its direct
    children: the spans on the same domain ([tid]) that start inside it
    and are not inside one of its other children. Spans on other domains
    never nest into each other. Timestamps are rounded to the nanosecond
    when written, so a child may appear to end just after its parent; a
    self time that rounding would make negative is clamped to 0. *)

type event = {
  name : string;
  tid : int;  (** the OCaml domain that recorded the span *)
  ts_us : float;
  dur_us : float;
}

(** [events_of_trace json] keeps the complete (["ph":"X"]) events of a
    parsed trace and drops metadata events.
    @raise Invalid_argument when [json] has no [traceEvents] array. *)
val events_of_trace : Dlearn_serve.Json.t -> event list

type span = {
  event : event;
  self_us : float;
  root : event;  (** the outermost span enclosing it on its domain *)
}

(** [analyse events] computes every span's self time and root. The
    result is in no particular order. *)
val analyse : event list -> span list
