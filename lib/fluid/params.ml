type t = {
  n_flows : int;
  capacity : float;
  w : float;
  pm : float;
  q0 : float;
  buffer : float;
  qsc : float;
  gi : float;
  gd : float;
  ru : float;
  mu : float;
}

let validate p =
  let req cond msg = if not cond then invalid_arg ("Params: " ^ msg) in
  let fin = Float.is_finite in
  req
    (fin p.capacity && fin p.w && fin p.pm && fin p.q0 && fin p.buffer
   && fin p.qsc && fin p.gi && fin p.gd && fin p.ru && fin p.mu)
    "every float field must be finite";
  req (p.n_flows > 0) "n_flows must be positive";
  req (p.capacity > 0.) "capacity must be positive";
  req (p.w > 0.) "w must be positive";
  req (p.pm > 0. && p.pm <= 1.) "pm must be in (0, 1]";
  req (p.q0 > 0.) "q0 must be positive";
  req (p.buffer > 0.) "buffer must be positive";
  req (p.q0 < p.buffer) "q0 must be below the buffer size";
  req (p.qsc >= p.q0 && p.qsc <= p.buffer) "qsc must be in [q0, buffer]";
  req (p.gi > 0.) "gi must be positive";
  req (p.gd > 0.) "gd must be positive";
  req (p.ru > 0.) "ru must be positive";
  req (p.mu >= 0.) "mu must be nonnegative";
  p

let make ?(w = 2.) ?(pm = 0.01) ?qsc ?(mu = 0.) ~n_flows ~capacity ~q0 ~buffer
    ~gi ~gd ~ru () =
  let qsc = match qsc with Some v -> v | None -> 0.9 *. buffer in
  validate { n_flows; capacity; w; pm; q0; buffer; qsc; gi; gd; ru; mu }

let mega = 1e6

let default =
  make ~n_flows:50 ~capacity:10e9 ~q0:(2.5 *. mega) ~buffer:(5. *. mega)
    ~gi:4. ~gd:(1. /. 128.) ~ru:(8. *. mega) ()

let with_buffer p buffer =
  let frac = p.qsc /. p.buffer in
  validate { p with buffer; qsc = frac *. buffer }

let with_gains ?gi ?gd ?ru p =
  let pick o v = match o with Some x -> x | None -> v in
  validate { p with gi = pick gi p.gi; gd = pick gd p.gd; ru = pick ru p.ru }

let with_q0 p q0 = validate { p with q0 }
let with_flows p n_flows = validate { p with n_flows }
let with_capacity p capacity = validate { p with capacity }

let with_sampling ?w ?pm p =
  let pick o v = match o with Some x -> x | None -> v in
  validate { p with w = pick w p.w; pm = pick pm p.pm }

let a p = p.ru *. p.gi *. float_of_int p.n_flows
let b p = p.gd
let k p = p.w /. (p.pm *. p.capacity)
let equilibrium_rate p = p.capacity /. float_of_int p.n_flows

let a_threshold p =
  let kp = k p in
  4. /. (kp *. kp)

let b_threshold p =
  let kp = k p in
  4. /. (kp *. kp *. p.capacity)

let loop_params p =
  { Control.Linear_baseline.a = a p; b = b p; k = k p; c = p.capacity }

let bdp_buffer p ~rtt = p.capacity *. rtt

let pp ppf p =
  Format.fprintf ppf
    "@[<v>N = %d flows, C = %g bit/s@,\
     q0 = %g bit, B = %g bit, qsc = %g bit@,\
     Gi = %g, Gd = %g, Ru = %g bit/s@,\
     w = %g, pm = %g, mu = %g bit/s@,\
     derived: a = %g, b = %g, k = %g@]"
    p.n_flows p.capacity p.q0 p.buffer p.qsc p.gi p.gd p.ru p.w p.pm p.mu
    (a p) (b p) (k p)

let to_string p = Format.asprintf "%a" pp p
