(** BCN system parameters and the derived fluid-model coefficients.

    Units are SI throughout: bits, seconds, bit/s. The paper's worked
    example (Theorem 1, Remarks) uses N = 50 flows, C = 10 Gbit/s,
    q0 = 2.5 Mbit, Gi = 4, Gd = 1/128, Ru = 8 Mbit/s and the draft-standard
    sampling parameters w = 2, pm = 0.01; {!default} is exactly that
    configuration with the bandwidth-delay-product buffer B = 5 Mbit. *)

type t = private {
  n_flows : int;  (** N — number of homogeneous sources *)
  capacity : float;  (** C — bottleneck capacity, bit/s *)
  w : float;  (** weight of the queue-variation term in sigma *)
  pm : float;  (** sampling probability (deterministic 1/pm sampling) *)
  q0 : float;  (** reference queue length, bits *)
  buffer : float;  (** B — buffer size, bits *)
  qsc : float;  (** severe-congestion (PAUSE) threshold, bits *)
  gi : float;  (** Gi — additive-increase gain *)
  gd : float;  (** Gd — multiplicative-decrease gain *)
  ru : float;  (** Ru — rate increase unit, bit/s *)
  mu : float;  (** initial per-source rate, bit/s *)
}

val make :
  ?w:float ->
  ?pm:float ->
  ?qsc:float ->
  ?mu:float ->
  n_flows:int ->
  capacity:float ->
  q0:float ->
  buffer:float ->
  gi:float ->
  gd:float ->
  ru:float ->
  unit ->
  t
(** Defaults: [w = 2], [pm = 0.01], [qsc = 0.9·buffer], [mu = 0].
    Raises [Invalid_argument] when any constraint fails:
    every float field finite; positive N, C, q0, B, Gi, Gd, Ru, w, pm;
    [pm <= 1]; [q0 < B];
    [q0 <= qsc <= B]; [0 <= mu]. *)

val default : t
(** The paper's Theorem-1 example with the BDP buffer (5 Mbit). *)

val with_buffer : t -> float -> t
(** Functional update of [buffer] (and [qsc], kept at the same fraction). *)

val with_gains : ?gi:float -> ?gd:float -> ?ru:float -> t -> t
val with_q0 : t -> float -> t
val with_flows : t -> int -> t

val with_capacity : t -> float -> t
(** Functional update of [capacity]. The derived coefficients [k],
    {!a_threshold}, {!b_threshold} and {!equilibrium_rate} follow
    automatically (they are computed, not stored) — this is the
    capacity axis of the [(N, C)] stability plane. *)

val with_sampling : ?w:float -> ?pm:float -> t -> t

(** {1 Derived fluid-model coefficients (paper §IV.A)} *)

val a : t -> float
(** [a = Ru·Gi·N]. *)

val b : t -> float
(** [b = Gd]. *)

val k : t -> float
(** [k = w / (pm·C)] — slope parameter of the switching line [x + k·y = 0]. *)

val equilibrium_rate : t -> float
(** [C/N] — per-source rate at the equilibrium. *)

val a_threshold : t -> float
(** [4·pm²·C²/w² = 4/k²] — the Case boundary for the increase subsystem. *)

val b_threshold : t -> float
(** [4·pm²·C/w² = 4/(k²·C)] — the Case boundary for the decrease
    subsystem. *)

val loop_params : t -> Control.Linear_baseline.loop_params
(** Projection for the linear-analysis baseline. *)

val bdp_buffer : t -> rtt:float -> float
(** Bandwidth-delay-product rule of thumb: [C·rtt]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
