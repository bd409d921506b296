open Numerics

type variant = By_capacity | By_load

type params = {
  base : Params.t;
  alpha : float;
  beta : float;
  tau : float;
  variant : variant;
}

let default_alpha = 0.4
let default_beta = 0.226
let default_tau = 1.2e-4

let make ?(alpha = default_alpha) ?(beta = default_beta) ?(tau = default_tau)
    ?(variant = By_capacity) base =
  if not (alpha > 0.) then invalid_arg "Rcp.make: alpha must be > 0";
  if not (beta >= 0.) then invalid_arg "Rcp.make: beta must be >= 0";
  if not (tau > 0.) then invalid_arg "Rcp.make: tau must be > 0";
  { base; alpha; beta; tau; variant }

let equilibrium p =
  (0., p.base.Params.capacity /. float_of_int p.base.Params.n_flows)

let char_poly p = (p.alpha /. p.tau, p.beta /. (p.tau *. p.tau))

let lti p =
  if p.beta = 0. then None
  else
    let m, n = char_poly p in
    Some (Control.Lti2.make ~m ~n)

let stable p =
  let m, n = char_poly p in
  Control.Routh.second_order n m

let damping_ratio p =
  if p.beta = 0. then infinity else p.alpha /. (2. *. sqrt p.beta)

let settling_time p = Option.map Control.Lti2.settling_time_2pct (lti p)

let eigenvalues p =
  match lti p with
  | Some l -> Control.Lti2.eigenvalues l
  | None -> Mat2.Real_pair (-.p.alpha /. p.tau, 0.)

let to_xy p ~q ~r =
  Vec2.make q
    ((float_of_int p.base.Params.n_flows *. r) -. p.base.Params.capacity)

let of_xy p (v : Vec2.t) =
  ( v.Vec2.x,
    (v.Vec2.y +. p.base.Params.capacity)
    /. float_of_int p.base.Params.n_flows )

(* Both variants share the correction term [alpha·y + beta·x/tau] (the
   normalized image of [alpha·(C − load) − beta·q/tau], sign flipped);
   the in-place and batched right-hand sides repeat the closure
   expressions verbatim so the fast solver paths are bit-identical to
   the closure dispatch — same contract as [Model.normalized_system]. *)
let system p =
  let alpha = p.alpha and beta = p.beta and tau = p.tau in
  let c = p.base.Params.capacity in
  match p.variant with
  | By_load ->
      let f (v : Vec2.t) =
        Vec2.make v.Vec2.y
          (-.((alpha *. v.Vec2.y) +. (beta *. v.Vec2.x /. tau)) /. tau)
      in
      let rhs (y : float array) (dst : float array) =
        dst.(0) <- y.(1);
        dst.(1) <- -.((alpha *. y.(1)) +. (beta *. y.(0) /. tau)) /. tau
      in
      let batch (bt : Ode.Batch.t) xs ys dxs dys =
        let n = bt.Ode.Batch.n in
        for i = 0 to n - 1 do
          let yv = Array.unsafe_get ys i in
          Array.unsafe_set dys i
            (-.((alpha *. yv) +. (beta *. Array.unsafe_get xs i /. tau))
            /. tau)
        done;
        Array.blit ys 0 dxs 0 n
      in
      Phaseplane.System.Smooth_fast { f; rhs; batch }
  | By_capacity ->
      let f (v : Vec2.t) =
        Vec2.make v.Vec2.y
          (-.((v.Vec2.y +. c)
             *. ((alpha *. v.Vec2.y) +. (beta *. v.Vec2.x /. tau)))
          /. (c *. tau))
      in
      let rhs (y : float array) (dst : float array) =
        dst.(0) <- y.(1);
        dst.(1) <-
          -.((y.(1) +. c) *. ((alpha *. y.(1)) +. (beta *. y.(0) /. tau)))
          /. (c *. tau)
      in
      let batch (bt : Ode.Batch.t) xs ys dxs dys =
        let n = bt.Ode.Batch.n in
        for i = 0 to n - 1 do
          let yv = Array.unsafe_get ys i in
          Array.unsafe_set dys i
            (-.((yv +. c)
               *. ((alpha *. yv) +. (beta *. Array.unsafe_get xs i /. tau)))
            /. (c *. tau))
        done;
        Array.blit ys 0 dxs 0 n
      in
      Phaseplane.System.Smooth_fast { f; rhs; batch }

let start_point p =
  let _, rstar = equilibrium p in
  to_xy p ~q:0. ~r:(0.3 *. rstar)

type phys = { q : Series.t; r : Series.t; dropped_bits : float }

let simulate ?(h = 1e-6) ?q_init ?r_init ~t_end p =
  if h <= 0. then invalid_arg "Rcp.simulate: h <= 0";
  if t_end <= 0. then invalid_arg "Rcp.simulate: t_end <= 0";
  let n = float_of_int p.base.Params.n_flows in
  let c = p.base.Params.capacity and bsize = p.base.Params.buffer in
  let alpha = p.alpha and beta = p.beta and tau = p.tau in
  let q_init = match q_init with Some v -> v | None -> 0. in
  let r_init =
    match r_init with Some v -> v | None -> 0.3 *. (c /. n)
  in
  let wall_eps = 1e-9 *. bsize in
  (* Clamped physical model: queue variation is zero at the buffer
     walls (the router's counters cannot see bits that were never
     enqueued), but the control law still reads the raw arrival rate. *)
  let field (y : float array) (dst : float array) =
    let q = y.(0) and r = y.(1) in
    let inflow = (n *. r) -. c in
    let dq =
      if q <= wall_eps && inflow < 0. then 0.
      else if q >= bsize -. wall_eps && inflow > 0. then 0.
      else inflow
    in
    let corr = (alpha *. (c -. (n *. r))) -. (beta *. q /. tau) in
    dst.(0) <- dq;
    dst.(1) <-
      (match p.variant with
      | By_capacity -> r *. corr /. (c *. tau)
      | By_load -> corr /. (n *. tau))
  in
  let steps = int_of_float (Float.ceil (t_end /. h)) in
  let ts = Array.make (steps + 1) 0. in
  let qs = Array.make (steps + 1) q_init in
  let rs = Array.make (steps + 1) r_init in
  let ws = Ode.workspace 2 in
  let y = [| q_init; r_init |] in
  let dropped = ref 0. in
  for i = 1 to steps do
    Ode.step_auto_into ws Ode.Rk4 field y h y;
    if y.(0) > bsize then begin
      dropped := !dropped +. (y.(0) -. bsize);
      y.(0) <- bsize
    end;
    if y.(0) < 0. then y.(0) <- 0.;
    if y.(1) < 0. then y.(1) <- 0.;
    ts.(i) <- float_of_int i *. h;
    qs.(i) <- y.(0);
    rs.(i) <- y.(1)
  done;
  { q = Series.make ts qs; r = Series.make ts rs; dropped_bits = !dropped }
