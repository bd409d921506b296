(** Planar autonomous dynamical systems, smooth or switched.

    The BCN fluid model is a {e variable-structure} system: the plane is
    split by a switching line [sigma(p) = 0] into two half-planes, each
    governed by its own smooth field (paper eqn (8)). This module gives
    that structure a first-class representation so the trajectory,
    Poincaré-map and portrait machinery can stay generic. *)

type field = Numerics.Vec2.t -> Numerics.Vec2.t
(** Autonomous planar vector field. *)

type t =
  | Smooth of field
  | Switched of {
      sigma : Numerics.Vec2.t -> float;  (** switching function *)
      pos : field;  (** dynamics where [sigma > 0] *)
      neg : field;  (** dynamics where [sigma < 0] *)
    }
  | Switched_fast of {
      sigma : Numerics.Vec2.t -> float;
      pos : field;
      neg : field;
      rhs : Numerics.Ode.field_auto;
          (** allocation-free form: [rhs y dst] with [y = [|x; y|]].
              MUST be bit-for-bit identical to the closure dispatch
              [if sigma p >= 0. then pos p else neg p] — mirror the
              closure expressions exactly (the test suite locks this
              for the systems built by [Fluid.Model]). *)
      batch : Numerics.Ode.Batch.rhs;
          (** SoA sweep over a whole front; per lane it must write the
              same bits as [rhs]. *)
    }
      (** A switched system that additionally carries hand-specialized
          allocation-free right-hand sides. The closure fields keep the
          portrait/Poincaré machinery generic; the [rhs]/[batch] fields
          are what the in-place and batched solvers use, so hot loops
          over such a system allocate nothing per evaluation. *)
  | Smooth_fast of {
      f : field;
      rhs : Numerics.Ode.field_auto;
          (** allocation-free form; must mirror [f] bit for bit (same
              contract as the [Switched_fast] fields). *)
      batch : Numerics.Ode.Batch.rhs;
          (** SoA sweep; per lane it must write the same bits as
              [rhs]. *)
    }
      (** A smooth system (no switching line) with hand-specialized
          allocation-free right-hand sides — the rate-based fluid
          models ({!Fluid.Rcp}) have a single governing field, so the
          switched representation would be wrong and the plain [Smooth]
          fallback would allocate two [Vec2] per evaluation. *)

val eval : t -> Numerics.Vec2.t -> Numerics.Vec2.t
(** Field value at a point; on the switching line ([sigma = 0]) the
    [pos] branch is used (the paper's rate-increase law, consistent with
    BCN sending a positive message when [sigma >= 0] and [q < q0]). *)

val region : t -> Numerics.Vec2.t -> [ `Pos | `Neg | `Boundary ]
(** Which branch governs the point ([`Boundary] within [1e-12]·scale). *)

val to_auto : t -> Numerics.Ode.field_auto
(** In-place form for the production solvers ({!Numerics.Ode.solve},
    {!Numerics.Ode.step_auto_into}); the systems here are all
    autonomous. For [Switched_fast] and [Smooth_fast] this is the
    carried [rhs] (zero allocation per evaluation); otherwise it funnels
    through the closures (two [Vec2] per evaluation) with identical
    results. *)

val batch_rhs : t -> Numerics.Ode.Batch.rhs
(** SoA sweep for batched front integration. [Switched_fast] and
    [Smooth_fast] systems use their dedicated sweep; any other system
    falls back to a lane-by-lane closure evaluation with bit-identical
    results. *)

val sigma_opt : t -> (Numerics.Vec2.t -> float) option
(** The switching function, when the system has one. *)

val linear : Numerics.Mat2.t -> t
(** The LTI system [dp/dt = A·p]. *)

val switched_linear :
  sigma:(Numerics.Vec2.t -> float) ->
  pos:Numerics.Mat2.t ->
  neg:Numerics.Mat2.t ->
  t
(** Piecewise-linear system with matrices per half-plane. *)
