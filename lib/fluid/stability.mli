(** Strong stability of the BCN system (paper Definition 1 and §IV.C).

    Definition 1: the queue system is {e strongly stable} when, after a
    finite transient, [0 < q(t) < B] — the buffer neither overflows
    (dropped frames) nor underflows (wasted link). In normalized
    coordinates, every excursion of [x = q − q0] must stay inside
    [(−q0, B − q0)] after the trajectory leaves its initial point.

    Two independent evaluations are provided:
    - {e semi-analytic}: the first overshoot/undershoot of the linearized
      switched system via the closed-form flow map (eqns (36)–(38));
    - {e numeric}: direct integration of the full nonlinear system (8),
      which keeps the [(y + C)] factor the paper linearizes away. *)

type verdict = {
  case : Cases.case;
  analytic_max : float option;
      (** [max¹x] (Case 1) / [max²x] (Case 2); [None] for Cases 3–5 *)
  analytic_min : float option;  (** [min¹x] (Case 1) *)
  numeric_max : float;  (** first-excursion max of the nonlinear system *)
  numeric_min : float;  (** first-excursion min *)
  overflow_margin : float;
      (** [B − q0 − numeric_max]: positive = no overflow *)
  underflow_margin : float;
      (** [numeric_min + q0]: positive = no underflow *)
  strongly_stable : bool;
      (** numeric verdict: both margins strictly positive *)
  analytic_strongly_stable : bool option;
      (** Propositions 2–4 evaluated with the semi-analytic extrema;
          [None] when the case needs extrema that do not exist *)
}

val first_excursion : ?t_max:float -> Params.t -> float * float
(** [(max x, min x)] of the nonlinear system (8) launched from
    [(−q0, 0)] and integrated to [t_max]: [max x] over the whole run,
    and [min x] from the second switching-line crossing to [t_max] —
    from the first crossing when there is only one, over the whole run
    when there is none. The default horizon is 12 periods of the slower
    subsystem. The run is Dormand–Prince 5(4) at rtol [1e-9], atol
    [1e-12], in one fused loop: the right-hand side, the step controller
    and the fold over accepted samples are inline, no trajectory is kept
    and the allocation does not grow with the horizon. Its samples carry
    the bits of [Ode.solve (Adaptive (1e-9, 1e-12))] on
    {!Model.normalized_system}. Raises [Invalid_argument] when [t_max]
    is not finite or not positive, and [Failure] when the step budget
    ({!Numerics.Ode.max_steps}) runs out. *)

val analyze : ?t_max:float -> Params.t -> verdict

val proposition2 : Params.t -> bool option
(** Case-1 criterion: [max¹x < B − q0] and [min¹x > −q0].
    [None] when the parameters are not in Case 1. *)

val proposition3 : Params.t -> bool option
(** Case-2 criterion: [max²x < B − q0]. [None] outside Case 2. *)

val proposition4 : Params.t -> bool option
(** Cases 3–5: always strongly stable. [None] outside those cases. *)

val pp_verdict : Format.formatter -> verdict -> unit
