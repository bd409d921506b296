(** The strong-stability basin: from which initial states [(q, r)] does
    the BCN system satisfy Definition 1?

    The paper analyzes the canonical start [(q, r) = (0, mu)] (empty
    queue, warm-up). Operationally one also cares about recovery from
    {e any} state — after a routing change, a flow join, or a PAUSE
    episode the system restarts from an arbitrary queue/rate point. This
    module rasterizes the plane: each cell is integrated forward and
    classified by whether the trajectory stays inside the buffer walls.

    Classification of a cell (physical coordinates, launch at the cell
    center): the clamped physical model of {!Model.simulate_physical} is
    stepped with RK4 from [t = 0] to the horizon, with its wall clamps
    and its drop and idle accounting, and the run gets
    - [Overflow] if [q > B] after any step (packets would drop); this
      wins over [Underflow];
    - [Underflow] if, after warm-up (the first step with
      [q > 1e-9·B]), some step ends with [q <= 1e-9·B] and [N·r < C]
      (the link idles);
    - [Safe] otherwise. *)

type verdict = Safe | Overflow | Underflow

type raster = {
  q_grid : float array;  (** queue-axis cell centers, bits *)
  r_grid : float array;  (** per-source-rate cell centers, bit/s *)
  q_max : float;  (** queue-axis extent (the buffer size), bits *)
  r_max : float;  (** rate-axis extent, bit/s *)
  cells : verdict array array;  (** [cells.(i).(j)] at [(q i, r j)] *)
  safe_fraction : float;
}

val classify :
  ?t_max:float -> Params.t -> q:float -> r:float -> verdict
(** Classify a single initial state ([0 <= q <= B] and a finite
    [r >= 0] required). Default horizon: 12 periods of the slower
    subsystem. *)

val classify_front :
  ?t_max:float ->
  ?jobs:int ->
  Params.t ->
  (float * float) array ->
  verdict array
(** Classify a whole front of [(q, r)] initial states in one batched
    integration. Each RK4 step is four fused sweeps over the lanes still
    undecided, each evaluating the right-hand side inline and folding
    its stage slope into a running sum; nothing is called and nothing is
    allocated per step. A lane leaves the sweeps the moment its verdict
    is decided (the first dropped bit decides [Overflow], which has
    priority over [Underflow], so idle signals never decide early).
    Verdicts are bit-identical to per-point {!classify}, for any front
    and any [jobs] (chunk boundaries depend only on the input length).
    Raises [Invalid_argument] if a [q] is not in [[0, B]], an [r] is not
    finite and [>= 0], or [t_max] is not finite and [> 0]. *)

val raster :
  ?t_max:float ->
  ?nq:int ->
  ?nr:int ->
  ?r_max:float ->
  ?jobs:int ->
  Params.t ->
  raster
(** Raster over [q in [0, B]] x [r in [0, r_max]] (default
    [r_max = 2·C/N], grid 24 x 24). Raises [Invalid_argument] unless
    [r_max] is finite and [> 0]. *)

val render : raster -> string
(** ASCII heat map: ['.'] safe, ['#'] overflow, ['o'] underflow; the
    queue axis is horizontal. *)

val to_csv : path:string -> raster -> unit
