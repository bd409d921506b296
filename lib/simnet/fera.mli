(** FERA — Forward Explicit Rate Advertising (paper §II.A, ref. [7]), the
    ERICA-descended alternative to the BCN paradigm: instead of feeding
    queue dynamics back for AIMD at the edge, the switch {e measures} the
    per-interval load, computes an explicit fair rate, and advertises it;
    sources jump straight to the advertised rate.

    The ERICA core implemented per measurement interval [T]:
    - measured input rate [R], active-flow set and per-flow rates;
    - overload factor [z = R / (u·C)] with target utilization [u];
    - advertised rate per flow: [max (u·C / n_active) (r_flow / z)].

    Explicit rate control converges in a couple of intervals without the
    oscillation of AIMD, at the cost of per-flow measurement state in the
    switch — the trade-off §II.A describes. *)

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  interval : float;  (** measurement/advertisement interval, seconds *)
  target_util : float;  (** ERICA's target utilization, e.g. 0.95 *)
  control_channel : Runner.control_channel option;
      (** interposed on the advertisement path; each advertisement is
          synthesized as a BCN frame carrying [fb = er] so loss/delay
          fault plans act on it. [None] (the default) is event-for-event
          identical to a pass-through channel. *)
}

val default_config : ?t_end:float -> ?sample_dt:float -> Fluid.Params.t -> config
(** [interval] defaults to 100 frame times, [target_util] to 0.95. *)

type result = {
  queue : Numerics.Series.t;
  agg_rate : Numerics.Series.t;
  drops : int;
  delivered_bits : float;
  utilization : float;
  advertisements : int;
  final_rates : float array;
  convergence_time : float option;
      (** first time every source is within 10%% of the fair share *)
}

val run : config -> result

val run_many : ?jobs:int -> config array -> result array
(** {!run} over {!Parallel.Pool.fan_out}: results in input order,
    byte-identical for any [jobs]. *)
