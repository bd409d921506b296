open Numerics

type verdict = Safe | Overflow | Underflow

type raster = {
  q_grid : float array;
  r_grid : float array;
  q_max : float;
  r_max : float;
  cells : verdict array array;
  safe_fraction : float;
}

let slower_period p =
  Float.max
    (2. *. Float.pi /. sqrt (Linearized.stiffness p Linearized.Increase))
    (2. *. Float.pi /. sqrt (Linearized.stiffness p Linearized.Decrease))

(* [Model.simulate_physical]'s clamped right-hand side, one component
   each, over its constants hoisted into a flat float record:
   [s = (q0 -. q) -. ((w /. (pm *. c)) *. dq)] and
   [gi *. ru *. s = (gi *. ru) *. s] hoist to [wc]/[giru] without
   changing a bit (same operations, same order). Closed and inlined,
   the helpers read each constant with one load from the record; as
   closures over [classify_batch]'s locals each constant would be a
   second load, of a boxed float. *)
type rhs = {
  nf : float;
  c : float;
  bsize : float;
  wall_eps : float;
  q0 : float;
  wc : float;
  giru : float;
  gd : float;
}

let rhs_of p =
  {
    nf = float_of_int p.Params.n_flows;
    c = p.Params.capacity;
    bsize = p.Params.buffer;
    wall_eps = 1e-9 *. p.Params.buffer;
    q0 = p.Params.q0;
    wc = p.Params.w /. (p.Params.pm *. p.Params.capacity);
    giru = p.Params.gi *. p.Params.ru;
    gd = p.Params.gd;
  }

let[@inline] dq_at f q r =
  let inflow = (f.nf *. r) -. f.c in
  if q <= f.wall_eps && inflow < 0. then 0.
  else if q >= f.bsize -. f.wall_eps && inflow > 0. then 0.
  else inflow

(* [Float.max r 0.] is written as the comparison it stands for ([+0.]
   for [±0.] and negatives, NaN kept): the stdlib version calls
   [caml_signbit] twice, and under the Closure middle end each call
   spills every live float register. *)
let[@inline] dr_at f q r dq =
  let s = (f.q0 -. q) -. (f.wc *. dq) in
  if s >= 0. then f.giru *. s
  else f.gd *. s *. (if r > 0. then r else if r <> r then r else 0.)

(* Batched verdict kernel. The physical model is stepped exactly as
   [Model.simulate_physical] steps it — RK4 on the clamped right-hand
   side, then the same wall clamps and idle accounting — but over a
   whole front of initial states at once, recording only the verdict
   bits per lane instead of full time series.

   Each RK4 step is four fused sweeps over the live lanes. A sweep
   evaluates the right-hand side at the lane's stage input, folds the
   stage slope into a running sum in RK4's order
   [((k1 + 2 k2) + 2 k3) + k4], and writes the next stage input
   [x + (h/2) k] ([x + h k] after stage 3). The fourth sweep also
   finishes the step [x + (h/6) sum] and does the wall accounting, so a
   step reads and writes each lane's six floats four times and calls
   nothing. Per lane these are [Ode.step_auto_into]'s expressions in
   its order, so each lane is bit for bit the scalar run.

   Lanes are packed: the first [live] slots hold the undecided lanes,
   and [lane.(j)] is the front index slot [j] stands for. The first
   dropped bit decides a lane ([Overflow] has priority over
   [Underflow]; idle signals decide nothing until the horizon), so an
   overflowing lane takes the last live lane into its slot and the live
   count drops. Lanes are independent, so the order of slots changes
   no bit. *)
let classify_batch ~t_end ~h p (pts : (float * float) array) =
  let m = Array.length pts in
  let f = rhs_of p in
  let h2 = h /. 2. and h6 = h /. 6. in
  let lane = Array.init m Fun.id in
  let xs = Array.map fst pts and ys = Array.map snd pts in
  (* stage input, and the running slope sum *)
  let tx = Array.copy xs and ty = Array.copy ys in
  let sx = Array.make m 0. and sy = Array.make m 0. in
  let warmed = Bytes.make m '\000' and idle = Bytes.make m '\000' in
  let verdicts = Array.make m Safe in
  let live = ref m in
  let steps = int_of_float (Float.ceil (t_end /. h)) in
  let i = ref 1 in
  while !i <= steps && !live > 0 do
    let n = !live in
    for j = 0 to n - 1 do
      let q = Array.unsafe_get tx j and r = Array.unsafe_get ty j in
      let dq = dq_at f q r in
      let dr = dr_at f q r dq in
      Array.unsafe_set sx j dq;
      Array.unsafe_set sy j dr;
      Array.unsafe_set tx j (Array.unsafe_get xs j +. (h2 *. dq));
      Array.unsafe_set ty j (Array.unsafe_get ys j +. (h2 *. dr))
    done;
    for j = 0 to n - 1 do
      let q = Array.unsafe_get tx j and r = Array.unsafe_get ty j in
      let dq = dq_at f q r in
      let dr = dr_at f q r dq in
      Array.unsafe_set sx j (Array.unsafe_get sx j +. (2. *. dq));
      Array.unsafe_set sy j (Array.unsafe_get sy j +. (2. *. dr));
      Array.unsafe_set tx j (Array.unsafe_get xs j +. (h2 *. dq));
      Array.unsafe_set ty j (Array.unsafe_get ys j +. (h2 *. dr))
    done;
    for j = 0 to n - 1 do
      let q = Array.unsafe_get tx j and r = Array.unsafe_get ty j in
      let dq = dq_at f q r in
      let dr = dr_at f q r dq in
      Array.unsafe_set sx j (Array.unsafe_get sx j +. (2. *. dq));
      Array.unsafe_set sy j (Array.unsafe_get sy j +. (2. *. dr));
      Array.unsafe_set tx j (Array.unsafe_get xs j +. (h *. dq));
      Array.unsafe_set ty j (Array.unsafe_get ys j +. (h *. dr))
    done;
    (* last stage, then the wall clamps and accounting in
       [simulate_physical]'s order *)
    let j = ref 0 in
    while !j < !live do
      let k = !j in
      let q = Array.unsafe_get tx k and r = Array.unsafe_get ty k in
      let dq = dq_at f q r in
      let dr = dr_at f q r dq in
      let x = Array.unsafe_get xs k +. (h6 *. (Array.unsafe_get sx k +. dq)) in
      let y = Array.unsafe_get ys k +. (h6 *. (Array.unsafe_get sy k +. dr)) in
      if x > f.bsize then begin
        verdicts.(lane.(k)) <- Overflow;
        (* the last live lane, not yet through this sweep, takes slot k *)
        let l = !live - 1 in
        lane.(k) <- lane.(l);
        xs.(k) <- xs.(l);
        ys.(k) <- ys.(l);
        tx.(k) <- tx.(l);
        ty.(k) <- ty.(l);
        sx.(k) <- sx.(l);
        sy.(k) <- sy.(l);
        Bytes.set warmed k (Bytes.get warmed l);
        Bytes.set idle k (Bytes.get idle l);
        live := l
      end
      else begin
        let x = if x < 0. then 0. else x in
        let y = if y < 0. then 0. else y in
        Array.unsafe_set xs k x;
        Array.unsafe_set ys k y;
        Array.unsafe_set tx k x;
        Array.unsafe_set ty k y;
        if Bytes.unsafe_get warmed k = '\000' && x > f.wall_eps then
          Bytes.unsafe_set warmed k '\001';
        if
          Bytes.unsafe_get warmed k = '\001'
          && x <= f.wall_eps
          && f.nf *. y < f.c
        then Bytes.unsafe_set idle k '\001';
        incr j
      end
    done;
    incr i
  done;
  for k = 0 to !live - 1 do
    if Bytes.get idle k = '\001' then verdicts.(lane.(k)) <- Underflow
  done;
  verdicts

let classify_front ?t_max ?(jobs = 1) p pts =
  (* written so that NaN fails every check *)
  Array.iter
    (fun (q, r) ->
      if not (q >= 0. && q <= p.Params.buffer) then
        invalid_arg "Safe_region.classify: q outside [0, B]";
      if not (r >= 0. && Float.is_finite r) then
        invalid_arg "Safe_region.classify: r not finite and >= 0")
    pts;
  let t_end = match t_max with Some t -> t | None -> 12. *. slower_period p in
  if not (t_end > 0. && Float.is_finite t_end) then
    invalid_arg "Safe_region.classify: t_max not finite and > 0";
  let h = Float.min 1e-6 (slower_period p /. 500.) in
  let m = Array.length pts in
  if jobs <= 1 || m <= 1 then classify_batch ~t_end ~h p pts
  else
    let jobs = Stdlib.min jobs m in
    let bounds =
      List.init jobs (fun k -> (k * m / jobs, ((k + 1) * m / jobs) - 1))
    in
    let chunks =
      Parallel.Pool.with_pool ~size:jobs (fun pool ->
          Parallel.Pool.map pool
            (fun (lo, hi) ->
              classify_batch ~t_end ~h p (Array.sub pts lo (hi - lo + 1)))
            bounds)
    in
    Array.concat chunks

let classify ?t_max p ~q ~r =
  (classify_front ?t_max p [| (q, r) |]).(0)

let raster ?t_max ?(nq = 24) ?(nr = 24) ?r_max ?jobs p =
  if nq < 2 || nr < 2 then invalid_arg "Safe_region.raster: grid too small";
  let r_max =
    match r_max with Some v -> v | None -> 2. *. Params.equilibrium_rate p
  in
  if not (r_max > 0. && Float.is_finite r_max) then
    invalid_arg "Safe_region.raster: r_max not finite and > 0";
  (* keep cell centers strictly inside the walls *)
  let q_grid =
    Array.init nq (fun i ->
        p.Params.buffer *. (float_of_int i +. 0.5) /. float_of_int nq)
  in
  let r_grid =
    Array.init nr (fun j ->
        r_max *. (float_of_int j +. 0.5) /. float_of_int nr)
  in
  (* row-major front: lane i*nr + j is cell (i, j) *)
  let pts =
    Array.init (nq * nr) (fun idx ->
        (q_grid.(idx / nr), r_grid.(idx mod nr)))
  in
  let verdicts = classify_front ?t_max ?jobs p pts in
  let cells =
    Array.init nq (fun i -> Array.init nr (fun j -> verdicts.((i * nr) + j)))
  in
  let safe = ref 0 in
  Array.iter
    (Array.iter (fun v -> if v = Safe then incr safe))
    cells;
  {
    q_grid;
    r_grid;
    q_max = p.Params.buffer;
    r_max;
    cells;
    safe_fraction = float_of_int !safe /. float_of_int (nq * nr);
  }

let glyph = function Safe -> '.' | Overflow -> '#' | Underflow -> 'o'

let render ra =
  let nq = Array.length ra.q_grid and nr = Array.length ra.r_grid in
  let buf = Buffer.create ((nq + 16) * (nr + 4)) in
  Buffer.add_string buf
    (Printf.sprintf
       "strong-stability basin ('.' safe, '#' overflow, 'o' underflow); \
        safe fraction = %.2f\n"
       ra.safe_fraction);
  Buffer.add_string buf "r (bit/s)\n";
  for j = nr - 1 downto 0 do
    let label =
      if j = nr - 1 || j = 0 then
        Printf.sprintf "%8s |" (Report.Table.si ra.r_grid.(j))
      else Printf.sprintf "%8s |" ""
    in
    Buffer.add_string buf label;
    for i = 0 to nq - 1 do
      Buffer.add_char buf (glyph ra.cells.(i).(j))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (Printf.sprintf "%8s +%s\n" "" (String.make nq '-'));
  Buffer.add_string buf
    (Printf.sprintf "%8s  q: 0 .. %s (buffer)\n" "" (Report.Table.si ra.q_max));
  Buffer.contents buf

and to_csv ~path ra =
  let rows = ref [] in
  Array.iteri
    (fun i q ->
      Array.iteri
        (fun j r ->
          let v =
            match ra.cells.(i).(j) with
            | Safe -> 0.
            | Overflow -> 1.
            | Underflow -> -1.
          in
          rows := [ q; r; v ] :: !rows)
        ra.r_grid;
      ignore q)
    ra.q_grid;
  Report.Csv.write_floats ~path ~header:[ "q"; "r"; "verdict" ]
    (List.rev !rows)
