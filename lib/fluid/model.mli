(** The BCN fluid-flow model (paper §III).

    Two views of the same dynamics:

    - the {e normalized} switched system in [(x, y)] coordinates
      ([x = q − q0], [y = N·r − C]), eqn (8) — the object of the
      phase-plane analysis; it ignores the buffer walls;
    - the {e physical} simulation in [(q, r)] coordinates, eqns (4)/(7),
      with the buffer clamps [0 <= q <= B] applied, drop accounting at the
      full-buffer wall and the empty-queue behaviour that produces the
      warm-up phase of §IV.C. *)

val sigma : Params.t -> x:float -> y:float -> float
(** The feedback variable on normalized coordinates:
    [sigma = −(x + k·y)] (eqn (6)). Positive means rate increase. *)

val sigma_physical : Params.t -> q:float -> dq:float -> float
(** Eqn (1) with eqn (5): [sigma = (q0 − q) − (w/(pm·C))·dq]. *)

val to_xy : Params.t -> q:float -> r:float -> Numerics.Vec2.t
(** [(x, y) = (q − q0, N·r − C)]. *)

val of_xy : Params.t -> Numerics.Vec2.t -> float * float
(** Inverse of {!to_xy}: [(q, r)]. *)

val normalized_system : Params.t -> Phaseplane.System.t
(** Eqn (8): [x' = y]; [y' = −a(x + ky)] in the increase region,
    [y' = −b(y + C)(x + ky)] in the decrease region. The switching
    function is [sigma]. *)

type field = { a : float; b : float; k : float; c : float }
(** The constants of eqn (8), unboxed in one flat record. *)

val field : Params.t -> field

val accel : field -> float -> float -> float
(** [accel f x y] is [y'] of eqn (8) at [(x, y)], with [lin = x + k·y]:
    [−a·lin] when [−lin >= 0], else [−b·(y + C)·lin]. It is the single
    copy of that expression: {!normalized_system}'s in-place [rhs] and
    {!Stability.first_excursion}'s kernel inline it. *)

val start_point : Params.t -> Numerics.Vec2.t
(** [(−q0, 0)] — the canonical initial point of §IV.C (end of warm-up). *)

val cold_start_point : Params.t -> Numerics.Vec2.t
(** [(−q0, N·mu − C)] — empty queue, sources at their initial rate. *)

(** Result of a physical (buffer-clamped) fluid simulation. *)
type phys = {
  q : Numerics.Series.t;  (** queue length, bits *)
  r : Numerics.Series.t;  (** per-source rate, bit/s *)
  sigma_t : Numerics.Series.t;  (** feedback variable over time *)
  dropped_bits : float;  (** fluid volume lost at the full-buffer wall *)
  idle_time : float;
      (** time the queue spent empty with the link under-utilized, after
          the initial warm-up has first filled the queue *)
  warmup_end : float;  (** first time the queue becomes positive *)
}

val simulate_physical :
  ?h:float ->
  ?q_init:float ->
  ?r_init:float ->
  t_end:float ->
  Params.t ->
  phys
(** Fixed-step (RK4, default [h = 1e-6] s) integration of the clamped
    physical model from [(q_init, r_init)] (defaults: empty queue, rate
    [mu]). The clamp keeps [0 <= q <= B]; fluid arriving beyond [B] is
    counted in [dropped_bits]; time with [q = 0] and [N·r < C] after the
    queue has first filled counts toward [idle_time]. *)

val warmup_duration : Params.t -> float
(** [T0 = (C − N·mu)/(a·q0)] — the duration of the initial acceleration
    along [x = −q0] (paper §IV.C). Raises [Invalid_argument] when
    [N·mu >= C] (no warm-up needed). *)
