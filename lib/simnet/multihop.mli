(** Two congestion points in series — the multi-bottleneck case the
    paper's single-bottleneck model (§III.B) abstracts away.

    {v
      long flows  ── SW_A (C_A, CPID 1) ── SW_B (C_B, CPID 2) ── sink
      short flows ───────────────────────┘
    v}

    Both switches run BCN congestion points. Long flows are sampled (and
    throttled) at {e both} points, short flows only at SW_B. With plain
    per-sample AIMD this produces the classic multi-bottleneck
    {e beat-down}: long flows receive proportionally more negative
    feedback and settle below their max-min fair share of the second
    bottleneck. The run measures that ratio. *)

type config = {
  params : Fluid.Params.t;  (** gains and thresholds (per switch) *)
  c_a : float;  (** capacity of the first hop *)
  c_b : float;  (** capacity of the second (tighter) hop *)
  n_long : int;
  n_short : int;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  strict_tagging : bool;
      (** the draft's CPID/RRT rule: positive feedback only from the
          congestion point a flow is associated with. Disabling it lets an
          uncongested upstream CP re-accelerate flows the downstream
          bottleneck is throttling (a ~30x rate inversion in this
          scenario) — the mechanism's raison d'etre. *)
}

val default_config :
  ?t_end:float -> ?n_long:int -> ?n_short:int -> Fluid.Params.t -> config
(** Defaults: [c_a = C], [c_b = C/2], 10 long + 10 short flows,
    [t_end = 20 ms], unregulated start at 2x the SW_B fair share,
    [strict_tagging = true]. *)

type result = {
  queue_a : Numerics.Series.t;
  queue_b : Numerics.Series.t;
  drops_a : int;
  drops_b : int;
  utilization_b : float;
  long_rates : float array;  (** per-long-flow goodput over the run, bit/s *)
  short_rates : float array;
  beatdown : float;
      (** mean long goodput / mean short goodput; 1.0 = no beat-down *)
  bcn_messages : int;
}

val run : config -> result

val run_many : ?jobs:int -> config array -> result array
(** {!run} over {!Parallel.Pool.fan_out}: results in input order,
    byte-identical for any [jobs]. *)
