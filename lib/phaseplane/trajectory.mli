(** Trajectory integration with phase-plane bookkeeping.

    Integrates a {!System.t} from an initial point, localizing the events
    the paper's analysis cares about:
    - crossings of the switching line (region changes),
    - crossings of the horizontal axis [y = 0], where [x(t)] attains its
      local extrema (since [dx/dt = y]; see paper Figs. 4–6),
    and stopping on convergence to the equilibrium, on leaving a bounding
    box, or at the time horizon. *)

type solver = Numerics.Ode.solver =
  | Fixed of Numerics.Ode.method_ * float  (** method and step size *)
  | Adaptive of float * float  (** rtol, atol *)

type stop_reason =
  | Time_limit
  | Converged  (** entered the [converge_radius] ball around the origin *)
  | Left_box  (** exited the bounding box *)

type crossing = {
  ct : float;  (** time of crossing *)
  cp : Numerics.Vec2.t;  (** crossing point *)
}

type t = {
  sol : Numerics.Ode.solution;  (** raw solver output *)
  switch_crossings : crossing list;  (** switching-line crossings *)
  axis_crossings : crossing list;  (** [y = 0] crossings = extrema of [x] *)
  stop : stop_reason;
}

val integrate :
  ?solver:solver ->
  ?t_max:float ->
  ?converge_radius:float ->
  ?box:Numerics.Vec2.t * Numerics.Vec2.t ->
  System.t ->
  Numerics.Vec2.t ->
  t
(** Defaults: adaptive solver ([rtol=1e-9], [atol=1e-12]), [t_max=100.],
    no convergence ball, no box. [box] is given as [(lo, hi)] corners. *)

val events_for :
  ?converge_radius:float ->
  ?box:Numerics.Vec2.t * Numerics.Vec2.t ->
  System.t ->
  Numerics.Ode.event list
(** The exact event list {!integrate} hands the solver, in the same
    order. Exposed so the batched driver ({!Front}) reproduces the event
    semantics of per-point integration bit for bit. *)

val of_solution : Numerics.Ode.solution -> t
(** Wrap a raw solver solution with the phase-plane bookkeeping
    ({!integrate}'s post-processing: crossing extraction and stop
    classification). *)

val points : t -> (float * Numerics.Vec2.t) array
(** Accepted integration points as [(t, p)]. *)

val final : t -> float * Numerics.Vec2.t
(** Last accepted point. *)

val x_series : t -> Numerics.Series.t
(** [x(t)] along the trajectory. *)

val y_series : t -> Numerics.Series.t
(** [y(t)] along the trajectory. *)

val x_max : t -> float
(** Greatest [x] over the trajectory (the queue overshoot, in normalized
    coordinates, when the trajectory starts at [(-q0, 0)]). *)

val x_min : t -> float
(** Least [x] over the trajectory (the undershoot). *)
