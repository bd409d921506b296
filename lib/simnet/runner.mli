(** Single-bottleneck (dumbbell) BCN simulation — paper Fig. 1 made
    executable: N homogeneous sources with reaction points, one core
    switch with the congestion point, a sink.

    This is the packet-level ground truth against which the fluid model
    is validated (experiment V1 of DESIGN.md). *)

type control_channel = Model.control_channel
(** A fault channel on the control-frame path; see
    {!Model.control_channel}. *)

type config = {
  params : Fluid.Params.t;
  t_end : float;  (** simulated seconds *)
  sample_dt : float;  (** trace sampling period *)
  initial_rate : float;  (** per-source starting rate, bit/s *)
  control_delay : float;  (** BCN/PAUSE propagation delay, seconds *)
  sampling : Switch.sampling;
  mode : Source.update_mode;  (** reaction-point update semantics *)
  positive_to_untagged : bool;
  broadcast_feedback : bool;
      (** deliver every BCN message to all sources — the fluid model's
          homogeneity assumption made literal; default off *)
  enable_bcn : bool;
  enable_pause : bool;
  pause_resume : float;  (** PAUSE(off) hysteresis, fraction of qsc *)
  control_channel : control_channel option;
      (** when set, every BCN/PAUSE frame passes through this channel
          before delivery (fault injection). [None] (the default) keeps
          the unperturbed direct path — byte-identical behaviour and
          allocation to a pre-faultnet runner. *)
  on_setup : (Engine.t -> Switch.t -> unit) option;
      (** called once, after the switch exists and before any event
          runs — the hook [Faultnet.Injector.install] uses to arm
          capacity flaps and blackouts. *)
  stop_on_verdict : bool;
      (** stop the run at the first trace sample that observes a FIFO
          drop: once the buffer has overflowed, the overflow verdict —
          the question Definition-1 region scans ask of a run — cannot
          change, so the remaining horizon is skipped. The trace,
          counters and [drops > 0] verdict match the same prefix of a
          full-horizon run; [utilization] is normalized by the elapsed
          (not configured) time. Default off: a full-horizon run is
          byte-identical to one without this field. *)
}

val default_config : ?t_end:float -> ?sample_dt:float -> Fluid.Params.t -> config
(** Defaults: [t_end = 20 ms], [sample_dt = 10 us], initial rate
    [max mu (2%% of the fair share)], [control_delay = 1 us],
    deterministic sampling, [mode = Zoh_fluid], fluid-faithful positive
    feedback, BCN and PAUSE enabled, [pause_resume = 0.9], no fault
    channel, no setup hook. *)

type result = {
  queue : Numerics.Series.t;  (** switch queue occupancy, bits *)
  agg_rate : Numerics.Series.t;  (** sum of source rates, bit/s *)
  flow_rates : Numerics.Series.t array;  (** per-flow rate traces *)
  latency : Numerics.Histogram.t;
      (** per-frame sojourn time through the switch, seconds *)
  queue_histogram : Numerics.Histogram.t;
      (** time-weighted queue-occupancy distribution, bits *)
  drops : int;
  dropped_bits : float;
  delivered_bits : float;
  utilization : float;  (** delivered / (C·t_end) *)
  bcn_positive : int;
  bcn_negative : int;
  pause_on_events : int;
  sampled_frames : int;
  events_processed : int;
  final_rates : float array;
}

val run : ?probe:Telemetry.Probe.t -> config -> result
(** One simulation. Internally every frame is drawn from a private
    {!Packet.Pool}, so the steady-state forwarding path allocates
    nothing per data frame.

    [probe] (default {!Telemetry.Probe.disabled}) is installed on the
    engine: switches, sources and the runner itself emit flight-recorder
    events and metrics through it. With the default disabled probe the
    emitters compile to untaken branches and the run is bit-identical
    (including allocation behaviour) to an uninstrumented one. When the
    probe is enabled, the runner flushes per-kind event counters and
    [runner.*] counters/gauges/histograms into the probe's registry
    before returning. *)

val with_seed : config -> int -> config
(** Switch the config to [Bernoulli] frame sampling driven by a fresh
    RNG state derived deterministically from [seed]. Two configs built
    from the same seed produce identical runs. *)

val run_many : ?jobs:int -> config array -> result array
(** {!run} over {!Parallel.Pool.fan_out}: results in input order,
    byte-identical for any [jobs]. *)

val replicate : ?jobs:int -> seeds:int array -> config -> result array
(** [replicate ~seeds cfg] = [run_many (Array.map (with_seed cfg) seeds)]:
    independent Monte-Carlo replicas of one scenario under Bernoulli
    sampling, one per seed, in seed order. *)

val replicate_instrumented :
  ?jobs:int -> seeds:int array -> config -> result array * Telemetry.Metrics.t
(** Like {!replicate}, but each replica runs under its own counting
    probe (a zero-capacity flight recorder: exact per-kind event counts
    and [runner.*] metrics, no event ring). The per-replica registries
    are merged in seed order after the fan-out completes, so the
    returned registry — and its {!Telemetry.Metrics.to_json_string}
    snapshot — is byte-identical for any [jobs] value. *)

val fairness : float array -> float
(** Jain's fairness index of a rate allocation:
    [(sum r)² / (n · sum r²)]; 1.0 = perfectly fair.
    Raises [Invalid_argument] on an empty array. *)
