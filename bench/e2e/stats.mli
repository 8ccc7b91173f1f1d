(** Order statistics over measured samples. *)

(** The middle sample, or the mean of the two middle samples.
    @raise Invalid_argument on an empty list. *)
val median : float list -> float

(** [quartiles xs] is [(q1, q2, q3)] computed exactly as Python's
    [statistics.quantiles(xs, n=4)] (the default exclusive method).
    @raise Invalid_argument on fewer than two samples. *)
val quartiles : float list -> float * float * float

(** [spread xs] is the interquartile distance as a share of the median,
    the run-to-run spread the benchmark bounds are checked against. *)
val spread : float list -> float
