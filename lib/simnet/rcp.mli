(** Packet-level RCP — explicit rate feedback from the congestion
    point, the discrete counterpart of {!Fluid.Rcp}.

    Unlike the BCN loop there is no per-sample AIMD at the sources: the
    switch measures, once per control interval [T], the aggregate
    arrival rate [y] at its ingress and the standing queue [q], updates
    one advertised fair rate

    - [By_capacity]: [R <- R·(1 + (alpha·(C − y) − beta·q/T)/C)]
    - [By_load]:     [R <- R + (alpha·(C − y) − beta·q/T)/N]

    (the forward-Euler image of the fluid laws with step [T], using the
    {e live} egress capacity so capacity flaps feed straight into the
    control law), clamps it to [[1 kbit/s, C]], and sends every source
    one rate frame carrying the new [R] in the BCN feedback field.
    Sources obey the advertised rate verbatim — their pacing rate {e is}
    the last [R] received.

    The switch is the pooled {!Switch} with its congestion point off
    ([enable_bcn = false]): forwarding, tail drop, live-capacity flaps
    and queue accounting are shared with the BCN runner, and rate
    frames traverse the same optional {!Runner.control_channel}, so
    fault plans (feedback loss, delay, capacity flaps) apply to RCP
    unchanged. *)

type config = {
  params : Fluid.Params.t;
      (** link and population; the BCN gain/sampling fields are unused *)
  t_end : float;
  sample_dt : float;
  initial_rate : float;  (** per-source pacing rate at t = 0, bit/s *)
  control_delay : float;  (** switch-to-source propagation of rate frames *)
  alpha : float;
  beta : float;  (** [0] = the queue-term ablation *)
  interval : float;  (** control interval [T], seconds *)
  variant : Fluid.Rcp.variant;
  control_channel : Runner.control_channel option;
      (** interpose on rate frames (fault injection); [None] is
          byte-identical to a lossless channel *)
  on_setup : (Engine.t -> Switch.t -> unit) option;
      (** runs once before the first event (fault-plan installation) *)
}

val default_config : ?t_end:float -> ?sample_dt:float -> Fluid.Params.t -> config
(** Stock RCP gains ({!Fluid.Rcp.default_alpha} /
    {!Fluid.Rcp.default_beta}), [interval = ]{!Fluid.Rcp.default_tau},
    [By_capacity], start at 30%% of the fair share, [t_end = 20 ms],
    [control_delay = 1 µs], no channel, no setup hook. *)

type result = {
  queue : Numerics.Series.t;  (** queue occupancy, bits *)
  agg_rate : Numerics.Series.t;  (** sum of live source rates, bit/s *)
  advertised : Numerics.Series.t;
      (** the fair rate the switch is currently advertising, bit/s *)
  drops : int;  (** tail-dropped data frames *)
  delivered_bits : float;
  utilization : float;  (** delivered / (C·t_end) *)
  feedbacks : int;  (** rate frames emitted (pre-loss) *)
  final_rates : float array;  (** per-source pacing rate at t_end *)
  events_processed : int;
      (** engine events consumed — the bench suite's throughput
          denominator *)
}

val run : config -> result
(** Deterministic: no RNG anywhere in the loop, so equal configs give
    equal results. Raises [Invalid_argument] as {!Model.check} does. *)

val run_many : ?jobs:int -> config array -> result array
(** {!run} over {!Parallel.Pool.fan_out}: results in input order,
    byte-identical for any [jobs]. *)
