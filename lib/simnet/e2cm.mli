(** E2CM — Extended Ethernet Congestion Management (paper §II.A, ref. [9]):
    the IBM Zurich proposal that "combined some ideas of BCN and FERA".

    Modelled here as BCN's sampled sigma feedback {e plus} a per-interval
    fair-share estimate carried in the same message: the reaction point
    runs BCN's AIMD but the advertised fair rate caps the additive
    increase and floors nothing — taming BCN's per-sample unfairness
    while keeping its fast positive recovery and requiring only
    interval-aggregate (not per-flow-exact) switch state. *)

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  interval : float;  (** fair-share measurement window *)
  control_channel : Runner.control_channel option;
      (** interposed on the feedback path; each sigma message is
          synthesized as a BCN frame carrying [fb = sigma] so
          loss/delay fault plans act on it. [None] (the default) is
          event-for-event identical to a pass-through channel. *)
}

val default_config : ?t_end:float -> ?sample_dt:float -> Fluid.Params.t -> config

type result = {
  queue : Numerics.Series.t;
  agg_rate : Numerics.Series.t;
  drops : int;
  delivered_bits : float;
  utilization : float;
  messages : int;
  final_rates : float array;
}

val run : config -> result

val run_many : ?jobs:int -> config array -> result array
(** {!run} over {!Parallel.Pool.fan_out}: results in input order,
    byte-identical for any [jobs]. *)
