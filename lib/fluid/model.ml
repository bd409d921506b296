open Numerics

let sigma p ~x ~y = -.(x +. (Params.k p *. y))

let sigma_physical p ~q ~dq =
  (p.Params.q0 -. q) -. (p.Params.w /. (p.Params.pm *. p.Params.capacity) *. dq)

let to_xy p ~q ~r =
  Vec2.make (q -. p.Params.q0)
    ((float_of_int p.Params.n_flows *. r) -. p.Params.capacity)

let of_xy p (v : Vec2.t) =
  ( v.Vec2.x +. p.Params.q0,
    (v.Vec2.y +. p.Params.capacity) /. float_of_int p.Params.n_flows )

type field = { a : float; b : float; k : float; c : float }

let field p =
  { a = Params.a p; b = Params.b p; k = Params.k p; c = p.Params.capacity }

let[@inline] accel f x y =
  let lin = x +. (f.k *. y) in
  if -.lin >= 0. then -.f.a *. lin else -.f.b *. (y +. f.c) *. lin

let normalized_system p =
  let f = field p in
  let a = f.a and b = f.b and k = f.k and c = f.c in
  let sw (v : Vec2.t) = -.(v.Vec2.x +. (k *. v.Vec2.y)) in
  (* The in-place and batched right-hand sides mirror the closures
     expression for expression ([lin] is the shared subexpression
     [x +. (k *. y)]; negation and reuse of an identical subexpression
     are bit-exact), so the fast solver paths produce the same bits as
     the closure dispatch [if sigma >= 0 then pos else neg]. *)
  let rhs (y : float array) (dst : float array) =
    let y0 = y.(0) and y1 = y.(1) in
    dst.(0) <- y1;
    dst.(1) <- accel f y0 y1
  in
  let batch (bt : Ode.Batch.t) xs ys dxs dys =
    let n = bt.Ode.Batch.n in
    let sg = bt.Ode.Batch.sg
    and sa = bt.Ode.Batch.sa
    and sb = bt.Ode.Batch.sb in
    for i = 0 to n - 1 do
      let yv = Array.unsafe_get ys i in
      let lin = Array.unsafe_get xs i +. (k *. yv) in
      Array.unsafe_set sg i (-.lin);
      Array.unsafe_set sa i (-.a *. lin);
      Array.unsafe_set sb i (-.b *. (yv +. c) *. lin)
    done;
    Array.blit ys 0 dxs 0 n;
    Ode.Batch.select bt ~mask:sg ~pos:sa ~neg:sb ~dst:dys
  in
  Phaseplane.System.Switched_fast
    {
      sigma = sw;
      pos =
        (fun v ->
          Vec2.make v.Vec2.y (-.a *. (v.Vec2.x +. (k *. v.Vec2.y))));
      neg =
        (fun v ->
          Vec2.make v.Vec2.y
            (-.b *. (v.Vec2.y +. c) *. (v.Vec2.x +. (k *. v.Vec2.y))));
      rhs;
      batch;
    }

let start_point p = Vec2.make (-.p.Params.q0) 0.

let cold_start_point p =
  Vec2.make (-.p.Params.q0)
    ((float_of_int p.Params.n_flows *. p.Params.mu) -. p.Params.capacity)

type phys = {
  q : Series.t;
  r : Series.t;
  sigma_t : Series.t;
  dropped_bits : float;
  idle_time : float;
  warmup_end : float;
}

let simulate_physical ?(h = 1e-6) ?q_init ?r_init ~t_end p =
  if h <= 0. then invalid_arg "Model.simulate_physical: h <= 0";
  if t_end <= 0. then invalid_arg "Model.simulate_physical: t_end <= 0";
  let n = float_of_int p.Params.n_flows in
  let c = p.Params.capacity and bsize = p.Params.buffer in
  let gi = p.Params.gi and gd = p.Params.gd and ru = p.Params.ru in
  let q_init = match q_init with Some v -> v | None -> 0. in
  let r_init = match r_init with Some v -> v | None -> p.Params.mu in
  let wall_eps = 1e-9 *. bsize in
  (* Right-hand side of the clamped physical model. At the buffer walls the
     measured queue variation is zero (nothing can be enqueued beyond B,
     nothing dequeued below 0), which is what the switch's counters see. *)
  let deriv (y : float array) (dst : float array) =
    let q = y.(0) and r = y.(1) in
    let inflow = (n *. r) -. c in
    let dq =
      if q <= wall_eps && inflow < 0. then 0.
      else if q >= bsize -. wall_eps && inflow > 0. then 0.
      else inflow
    in
    let s = sigma_physical p ~q ~dq in
    dst.(0) <- dq;
    dst.(1) <- (if s >= 0. then gi *. ru *. s else gd *. s *. Float.max r 0.)
  in
  let steps = int_of_float (Float.ceil (t_end /. h)) in
  let ts = Array.make (steps + 1) 0. in
  let qs = Array.make (steps + 1) q_init in
  let rs = Array.make (steps + 1) r_init in
  let sg = Array.make (steps + 1) 0. in
  let ws = Ode.workspace 2 in
  let y = [| q_init; r_init |] in
  let d = [| 0.; 0. |] in
  let dropped = ref 0. in
  let idle = ref 0. in
  let warmup_end = ref nan in
  let record i t =
    ts.(i) <- t;
    qs.(i) <- y.(0);
    rs.(i) <- y.(1);
    deriv y d;
    sg.(i) <- sigma_physical p ~q:y.(0) ~dq:d.(0)
  in
  record 0 0.;
  for i = 1 to steps do
    Ode.step_auto_into ws Ode.Rk4 deriv y h y;
    (* wall clamps and accounting *)
    if y.(0) > bsize then begin
      dropped := !dropped +. (y.(0) -. bsize);
      y.(0) <- bsize
    end;
    if y.(0) < 0. then y.(0) <- 0.;
    if y.(1) < 0. then y.(1) <- 0.;
    if Float.is_nan !warmup_end && y.(0) > wall_eps then
      warmup_end := float_of_int i *. h;
    if
      (not (Float.is_nan !warmup_end))
      && y.(0) <= wall_eps
      && (n *. y.(1)) < c
    then idle := !idle +. h;
    record i (float_of_int i *. h)
  done;
  {
    q = Series.make ts qs;
    r = Series.make ts rs;
    sigma_t = Series.make ts sg;
    dropped_bits = !dropped;
    idle_time = !idle;
    warmup_end = (if Float.is_nan !warmup_end then t_end else !warmup_end);
  }

let warmup_duration p =
  let n_mu = float_of_int p.Params.n_flows *. p.Params.mu in
  if n_mu >= p.Params.capacity then
    invalid_arg "Model.warmup_duration: sources already saturate the link";
  (p.Params.capacity -. n_mu) /. (Params.a p *. p.Params.q0)
