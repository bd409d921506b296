(** Initial-value-problem solvers for systems of ordinary differential
    equations, with event (zero-crossing) detection.

    The BCN fluid model (paper eqns (4)/(7), normalized form (8)) is a
    *switched* ODE: the right-hand side changes across the switching line
    [sigma = 0]. Integrating it accurately requires localizing the crossing
    inside a step, which the [events] machinery below provides: an event is
    a scalar guard function whose sign change is bisected to a time
    tolerance, the state at the crossing is recorded, and integration can
    optionally terminate there.

    The module has two tiers. The {e reference tier} ({!step},
    {!solve_fixed}, {!solve_adaptive}) is plain allocating code over
    closures; the {e production tier} ({!step_auto_into}, {!solve}) runs
    the same arithmetic in place over autonomous fields. The two agree
    bit for bit — the test suite checks every sample, occurrence, step
    count and right-hand-side call count.

    State vectors are [float array]s of arbitrary dimension. Fields must
    not retain or mutate the array they are given. *)

type field = float -> float array -> float array
(** [f t y] returns [dy/dt]; must allocate (or at least not alias) its
    result. *)

(** Fixed-step explicit methods. *)
type method_ =
  | Euler  (** order 1 *)
  | Heun  (** order 2 *)
  | Rk4  (** classic order 4 *)

(** Direction of the guard's sign change that fires an event. *)
type direction = Up | Down | Both

type event = {
  ev_name : string;
  guard : float -> float array -> float;
  dir : direction;
  terminal : bool;  (** stop integration at the event *)
}

type occurrence = { oc_name : string; oc_t : float; oc_y : float array }

type monitor = {
  on_step : float -> float -> unit;
      (** [on_step t h] after each accepted step ending at time [t] with
          step size [h]. *)
  on_reject : float -> float -> unit;
      (** [on_reject t h] after each rejected trial step of size [h]
          attempted from time [t] (adaptive methods only). *)
}
(** Telemetry hook for the reference solvers. Numerics sits below
    [lib/telemetry] in the dependency stack, so the hook is a plain
    callback record; [Telemetry.Probe.ode_monitor] adapts a probe into
    one. Passing no monitor costs one pattern match per step and
    allocates nothing. *)

type solution = {
  ts : float array;  (** accepted step times, [ts.(0) = t0] *)
  ys : float array array;  (** [ys.(i)] is the state at [ts.(i)] *)
  occs : occurrence list;  (** events fired, in chronological order *)
  terminated : occurrence option;
      (** the terminal event that stopped integration, if any *)
  n_steps : int;  (** accepted steps *)
  n_rejected : int;  (** rejected steps (adaptive methods only) *)
}

type solver =
  | Fixed of method_ * float  (** method and step size *)
  | Adaptive of float * float
      (** Dormand–Prince 5(4) with PI-style step control: rtol, atol *)

val h_min : float
(** Smallest step the adaptive solvers take ([1e-14]); a step at most
    [1.0001·h_min] is accepted whatever its error. *)

val max_steps : int
(** Step attempts (accepted or rejected) an adaptive run may make
    before it fails with ["max_steps exhausted"]. *)

val state_at : solution -> float -> float array
(** [state_at sol t] linearly interpolates the stored trajectory at time
    [t]. Clamps outside the stored range. *)

(** {1 Reference tier} *)

val step : method_ -> field -> float -> float array -> float -> float array
(** [step m f t y h] advances one step of size [h]. *)

val solve_fixed :
  ?method_:method_ ->
  ?events:event list ->
  ?monitor:monitor ->
  h:float ->
  t_end:float ->
  field ->
  t0:float ->
  y0:float array ->
  solution
(** Fixed-step integration from [t0] to [t_end] with step [h] (the last
    step is shortened to land exactly on [t_end]). Guards are evaluated at
    step boundaries; a sign change is refined by bisection on the step
    fraction to a relative time tolerance of 1e-12. [t_end <= t0] yields
    the initial point alone. Raises [Invalid_argument] unless [h > 0] and
    [h], [t0], [t_end] are finite. *)

val solve_adaptive :
  ?rtol:float ->
  ?atol:float ->
  ?events:event list ->
  ?monitor:monitor ->
  t_end:float ->
  field ->
  t0:float ->
  y0:float array ->
  solution
(** Adaptive Dormand–Prince 5(4) integration with PI-style step control.
    Defaults: [rtol=1e-8], [atol=1e-10]. The first trial step is
    [(t_end - t0) / 100], steps never exceed [t_end - t0] nor go below
    [1e-14], and at most [2_000_000] trial steps are taken. Raises
    [Invalid_argument] if [t0] or [t_end] is not finite or
    [t_end <= t0], and [Failure] if the step size underflows or the step
    budget is exhausted before [t_end]. *)

val convergence_order :
  method_ -> field -> t0:float -> y0:float array -> t_end:float ->
  exact:(float -> float array) -> float
(** Empirical convergence order of a fixed-step method, estimated from the
    error ratio between step sizes [h] and [h/2]. Used by the test suite. *)

(** {1 Production tier} *)

type field_auto = float array -> float array -> unit
(** Autonomous in-place right-hand side: [f y dst] writes [dy/dt] into
    [dst] ([dst] never aliases [y]). Because no [float] crosses the
    closure boundary (OCaml boxes float arguments of indirect calls),
    stepping an autonomous field performs {e zero} minor-heap allocation
    per step — the BCN systems are all autonomous. *)

type workspace
(** Preallocated stage buffers for one in-place integration; create
    once, reuse across steps. A workspace is not safe to share between
    domains — create one per domain. *)

val workspace : int -> workspace
(** [workspace dim] allocates buffers for states of dimension [dim] (or
    smaller). Raises [Invalid_argument] if [dim < 1]. *)

val step_auto_into :
  workspace -> method_ -> field_auto -> float array -> float ->
  float array -> unit
(** [step_auto_into ws m f y h dst] advances one step of size [h],
    writing the new state into [dst]. [dst == y] is allowed (true
    in-place update). Bit-for-bit equal to [step m _ t y h] for the
    equivalent field, with zero minor-heap allocation per step (asserted
    by the test suite via [Gc.minor_words]). Raises [Invalid_argument] if
    the state is larger than the workspace. *)

type guard_spec = {
  gs_names : string array;
  gs_dirs : direction array;
  gs_terminal : bool array;
  gs_eval : int -> float array -> float array -> unit;
      (** [gs_eval e pt dst] evaluates guard [e] at the packed sample
          [pt = [|t; y_0; ...; y_{dim-1}|]], writing its value to
          [dst.(e)]. Packing keeps floats out of call boundaries so
          hand-written guard sets stay allocation-free, and the
          per-index form lets event localization evaluate only the
          guard it bisects. *)
}
(** A closure-free rendering of an {!event} list: parallel arrays of
    names/directions/terminal flags plus one guard evaluator. Guards
    must be pure. *)

val guards_of_events : dim:int -> event list -> guard_spec
(** Adapter from an {!event} list (guards evaluate exactly as the
    reference solvers evaluate them). Costs a boxed time and a state
    blit per evaluation — hand-build a {!guard_spec} for
    zero-allocation runs. *)

(** Where {!solve} sends the trajectory. *)
type _ sink =
  | Record : solution sink
      (** Store every sample and occurrence and return them. *)
  | Stream : {
      on_point : float array -> unit;
          (** Each sample — the initial state, each accepted step and,
              on termination, the event state last — as the one reused
              packed buffer [[|t; y...|]]; copy it to keep it. *)
      on_event : int -> float array -> unit;
          (** Each occurrence, in chronological order: the guard's index
              into [gs_names] and the event state through the same
              borrowed packed buffer. *)
    }
      -> unit sink
      (** Hand each sample and occurrence to a callback and forget it.
          With a closure-free {!guard_spec} the run allocates nothing
          per step. *)

val solve :
  solver ->
  guard_spec ->
  'r sink ->
  field_auto ->
  t0:float ->
  t_end:float ->
  y0:float array ->
  'r
(** The production driver: {!solve_fixed} or {!solve_adaptive} (same
    defaults, limits and exceptions) for an autonomous field. Every
    sample, occurrence, terminal event, [n_steps] and [n_rejected] is
    bit-for-bit what the reference solver returns for the equivalent
    field and event list, and the field is called the same number of
    times: with [Adaptive], the [Record] sink evaluates each accepted
    step a second time, as the reference driver does; the [Stream] sink
    keeps the trial state instead (7 right-hand-side calls fewer per
    accepted step, same bits). *)

(** {1 Event machinery for external drivers}

    Exposed so batched front integrators ({!Phaseplane.Front}-style
    lock-step drivers living outside this module) can reproduce the
    driver's event semantics exactly. *)

val fires : direction -> float -> float -> bool
(** [fires dir g_prev g_next] — does a guard moving from [g_prev] to
    [g_next] across one accepted step fire an event of direction [dir]?
    (A guard exactly at [0.] before the step never fires.) *)

val localize_into :
  (float -> float array -> float -> float array -> unit) ->
  event ->
  float ->
  float array ->
  float ->
  float array ->
  float * float array
(** [localize_into single_into ev t y h scratch] bisects the event time
    inside the accepted step [t, t+h] starting from [y], evaluating
    intermediate states with [single_into] into [scratch]
    (allocation-free); returns [(t_event, y_event)] with [y_event]
    freshly allocated. Bit-identical to the drivers' localization when
    [single_into] writes the bits the driver's step function returns. *)

(** {1 Batched structure-of-arrays stepping}

    A front of [n] independent planar (2-D) states advanced in
    lock-step: one contiguous [float array] lane per coordinate for the
    state, the four RK stages and the scratch sweeps, so each stage is
    a single pass over unboxed memory and the right-hand side is one
    sweep over all lanes instead of [n] closure calls. Per-lane
    arithmetic mirrors {!step_auto_into} expression for expression, so
    advancing lane [i] is bit-for-bit identical to advancing
    [[|xs.(i); ys.(i)|]] with the scalar stepper. Used by
    [Phaseplane.Front] and the strong-stability basin raster. *)
module Batch : sig
  type t = {
    n : int;  (** number of lanes *)
    xs : float array;  (** state, first coordinate, one slot per lane *)
    ys : float array;  (** state, second coordinate *)
    k1x : float array;
    k1y : float array;
    k2x : float array;
    k2y : float array;
    k3x : float array;
    k3y : float array;
    k4x : float array;
    k4y : float array;
    tmpx : float array;  (** stage-state scratch *)
    tmpy : float array;
    sg : float array;  (** sweep scratch: switching-function values *)
    sa : float array;  (** sweep scratch: one branch of a switched RHS *)
    sb : float array;  (** sweep scratch: the other branch *)
    active : Bytes.t;
        (** per-lane flag; ['\000'] = frozen. The stepper never writes
            an inactive lane — clear the flag the moment a lane's
            verdict is decided and its state stays at the decision
            point while the rest of the front keeps going. *)
    mutable h : float;  (** step size; set with {!set_h} *)
  }

  type rhs = t -> float array -> float array -> float array -> float array -> unit
  (** [f b srcx srcy dstx dsty] writes the derivative of every lane in
      one sweep. [src] never aliases [dst]; sweeps may compute (ignored)
      garbage for inactive lanes. The scratch lanes [sg]/[sa]/[sb] are
      free for the sweep's own use (switching masks, branch values). *)

  val create : int -> t
  (** [create n] — a front of [n] lanes, all active, [h = 0.]. *)

  val set_h : t -> float -> unit
  (** Store the step size. A separate (one-time) store rather than a
      per-call [float] argument: a float crossing a non-inlined call
      boundary is boxed, and hoisting it keeps {!step} allocation-free. *)

  val is_active : t -> int -> bool
  val set_active : t -> int -> bool -> unit

  val select :
    t ->
    mask:float array ->
    pos:float array ->
    neg:float array ->
    dst:float array ->
    unit
  (** Per-lane select on [mask.(i) >= 0.] — the σ-switch of the paper's
      variable-structure systems applied as its own sweep after both
      branch sweeps. Kept as a comparison (not an arithmetic blend,
      which would break bit-identity at [-0.0]). *)

  val step_rk4 : t -> rhs -> unit
  (** Advance every active lane one RK4 step of size [h] in place.
      Zero minor-heap allocation. *)

  val step : t -> method_ -> rhs -> unit
  (** Method-dispatching variant of {!step_rk4} (Euler / Heun / RK4). *)
end
