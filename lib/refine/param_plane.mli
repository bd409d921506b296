(** Adaptive tracing of stability regions in parameter space — the
    phase-plane basin figures' [(a, b)] normalized-gain plane, or any
    other two-parameter slice, with the nonlinear strong-stability
    verdict ({!Fluid.Stability.analyze}'s [strongly_stable], from
    {!Fluid.Stability.first_excursion} alone) at each probed point. *)

type store = (string -> bool option) * (string -> bool -> unit)

val gains : Fluid.Params.t -> x:float -> y:float -> Fluid.Params.t
(** Interpret [(x, y)] as the paper's normalized gains [(a, b)]:
    [a = N·Gi·Ru] (so [Gi = a / (Ru·N)]) and [b = Gd], applied over the
    base parameter point. *)

val verdicts :
  ?t_max:float ->
  ?jobs:int ->
  (x:float -> y:float -> Fluid.Params.t) ->
  (float * float) array ->
  bool array
(** [true] = strongly stable (numeric verdict) at [apply ~x ~y]. Each
    wave fans out over an order-preserving pool — byte-identical for
    any [jobs]. *)

val material :
  ?t_max:float ->
  (x:float -> y:float -> Fluid.Params.t) ->
  x:float ->
  y:float ->
  string
(** Key material: versioned tag + horizon + canonical encoding of the
    {e applied} parameter point (the parameters fully determine the
    verdict, so two planes sharing a point share its cache entry). *)

val trace :
  ?t_max:float ->
  ?jobs:int ->
  ?store:store ->
  ?coarse:int * int ->
  ?levels:int ->
  ?edge_iters:int ->
  (x:float -> y:float -> Fluid.Params.t) ->
  Engine.domain ->
  Engine.t
(** Adaptively refine the stable/unstable boundary of the plane
    [apply] parameterizes over [domain]. Defaults as
    {!Safe_plane.trace}. *)
