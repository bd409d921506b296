(* The batched-front contract (DESIGN.md §12): Ode.Batch advances every
   active lane bit-for-bit like the scalar in-place stepper, frozen
   lanes never move, the step allocates nothing, and the figure-level
   batched drivers (Portrait, Safe_region.classify_front) are
   byte-identical across pool sizes. The safe-region kernel is also held
   to Model.simulate_physical cell by cell, to a verbatim copy of its
   Ode.Batch predecessor verdict by verdict, to a flat allocation count,
   and to rejecting non-finite inputs. Small and fast on purpose: this
   executable is the @batch-smoke alias.

   The system under test is the paper-shaped switched limit-cycle system
   from Dcecc_core.Figures — a [Switched_fast] carrying both the scalar
   [rhs] and the SoA [batch] sweep, so the equivalence exercised here is
   the one the figure paths rely on. *)

open Numerics

let lc_sys, _ = Dcecc_core.Figures.genuine_limit_cycle_system ()
let methods = [| Ode.Euler; Ode.Heun; Ode.Rk4 |]

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

(* Scalar reference: iterate the per-point zero-alloc stepper. *)
let scalar_trajectory ~method_ ~steps ~h (x0, y0) =
  let ws = Ode.workspace 2 in
  let rhs = Phaseplane.System.to_auto lc_sys in
  let y = [| x0; y0 |] in
  let dst = [| 0.; 0. |] in
  for _ = 1 to steps do
    Ode.step_auto_into ws method_ rhs y h dst;
    y.(0) <- dst.(0);
    y.(1) <- dst.(1)
  done;
  (y.(0), y.(1))

let batch_of_lanes lanes ~h =
  let n = List.length lanes in
  let bt = Ode.Batch.create n in
  List.iteri
    (fun i (x, y, act) ->
      bt.Ode.Batch.xs.(i) <- x;
      bt.Ode.Batch.ys.(i) <- y;
      Ode.Batch.set_active bt i act)
    lanes;
  Ode.Batch.set_h bt h;
  bt

(* Any front size, any active mask, any method: active lanes match the
   scalar stepper bit-for-bit, frozen lanes keep their initial bits. *)
let prop_batch_matches_scalar =
  QCheck.Test.make ~name:"batched step = scalar step_auto_into (bits)"
    ~count:200
    QCheck.(
      quad
        (list_of_size (Gen.int_range 1 32)
           (triple (float_range (-5.) 5.) (float_range (-5.) 5.) bool))
        (int_range 1 25) (float_range 1e-4 0.05) (int_range 0 2))
    (fun (lanes, steps, h, mi) ->
      let method_ = methods.(mi) in
      let bt = batch_of_lanes lanes ~h in
      let rhs = Phaseplane.System.batch_rhs lc_sys in
      for _ = 1 to steps do
        Ode.Batch.step bt method_ rhs
      done;
      List.for_all
        (fun (i, (x0, y0, act)) ->
          if act then begin
            let ex, ey = scalar_trajectory ~method_ ~steps ~h (x0, y0) in
            bits_equal bt.Ode.Batch.xs.(i) ex
            && bits_equal bt.Ode.Batch.ys.(i) ey
          end
          else
            bits_equal bt.Ode.Batch.xs.(i) x0
            && bits_equal bt.Ode.Batch.ys.(i) y0)
        (List.mapi (fun i l -> (i, l)) lanes))

(* The front driver reproduces the per-point driver including event
   semantics (convergence freeze, box exit, guard localization). *)
let prop_front_matches_trajectory =
  QCheck.Test.make ~name:"Front.integrate = Trajectory.integrate (bytes)"
    ~count:30
    QCheck.(
      list_of_size (Gen.int_range 1 8)
        (pair (float_range (-4.) 4.) (float_range (-4.) 4.)))
    (fun pts ->
      let h = 1e-3 and t_max = 0.5 in
      let points = List.map (fun (x, y) -> Vec2.make x y) pts in
      let front =
        Phaseplane.Front.integrate ~h ~t_max lc_sys (Array.of_list points)
      in
      let per_point =
        List.map
          (fun p ->
            Phaseplane.Trajectory.integrate
              ~solver:(Phaseplane.Trajectory.Fixed (Ode.Rk4, h))
              ~t_max lc_sys p)
          points
      in
      List.for_all2
        (fun a b -> Marshal.to_string a [] = Marshal.to_string b [])
        (Array.to_list front) per_point)

(* Once warm, stepping a front must not touch the minor heap — the whole
   point of the SoA layout. *)
let test_batch_zero_alloc () =
  let lanes = List.init 64 (fun i -> (0.1 *. float_of_int i, 1., true)) in
  let bt = batch_of_lanes lanes ~h:1e-3 in
  let rhs = Phaseplane.System.batch_rhs lc_sys in
  for _ = 1 to 10 do
    Ode.Batch.step_rk4 bt rhs
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Ode.Batch.step_rk4 bt rhs
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 1000 steps" 0. dw

(* Figure-level byte-identity across pool sizes: the batched portrait
   and the safe-region front must not depend on how the front is
   chunked over domains. *)
let test_portrait_jobs_identity () =
  let pts =
    Phaseplane.Portrait.grid ~lo:(Vec2.make (-3.) (-3.))
      ~hi:(Vec2.make 3. 3.) ~nx:5 ~ny:5
  in
  let solver = Phaseplane.Trajectory.Fixed (Ode.Rk4, 1e-3) in
  let j1 =
    Phaseplane.Portrait.compute ~solver ~t_max:0.5 ~jobs:1 lc_sys pts
  in
  let j4 =
    Phaseplane.Portrait.compute ~solver ~t_max:0.5 ~jobs:4 lc_sys pts
  in
  Alcotest.(check string) "portrait jobs 1 = jobs 4"
    (Marshal.to_string j1 [])
    (Marshal.to_string j4 [])

let test_safe_region_jobs_identity () =
  let p = Fluid.Params.default in
  let states =
    Array.init 12 (fun i ->
        ( float_of_int (i mod 4) /. 4. *. p.Fluid.Params.buffer,
          float_of_int i /. 12. *. 2.
          *. Fluid.Params.equilibrium_rate p ))
  in
  let j1 = Fluid.Safe_region.classify_front ~jobs:1 p states in
  let j4 = Fluid.Safe_region.classify_front ~jobs:4 p states in
  Alcotest.(check string) "safe region jobs 1 = jobs 4"
    (Marshal.to_string j1 [])
    (Marshal.to_string j4 [])

(* The step and horizon [Safe_region.classify_front] uses. *)
let slower_period p =
  Float.max
    (2. *. Float.pi
    /. sqrt (Fluid.Linearized.stiffness p Fluid.Linearized.Increase))
    (2. *. Float.pi
    /. sqrt (Fluid.Linearized.stiffness p Fluid.Linearized.Decrease))

let default_t_end p = 12. *. slower_period p
let default_h p = Float.min 1e-6 (slower_period p /. 500.)

(* The batched safe-region kernel against its scalar oracle: each cell
   of a raster, stepped by [Model.simulate_physical] with the step and
   horizon [classify_front] uses, gives the kernel's verdict. The two
   6x5 rasters hold only Safe and Overflow cells; the 3x3 raster at
   gi / 256, gd x 64 holds Underflow cells too, so all three verdicts
   meet the oracle. *)
let test_safe_region_oracle () =
  let oracle p (q, r) =
    let run =
      Fluid.Model.simulate_physical ~h:(default_h p) ~q_init:q ~r_init:r
        ~t_end:(default_t_end p) p
    in
    if run.Fluid.Model.dropped_bits > 0. then Fluid.Safe_region.Overflow
    else if run.Fluid.Model.idle_time > 0. then Fluid.Safe_region.Underflow
    else Fluid.Safe_region.Safe
  in
  let base = Fluid.Params.default in
  let seen = ref [] in
  List.iter
    (fun (label, nq, nr, p) ->
      let ra = Fluid.Safe_region.raster ~nq ~nr p in
      Array.iteri
        (fun i q ->
          Array.iteri
            (fun j r ->
              let v = ra.Fluid.Safe_region.cells.(i).(j) in
              seen := v :: !seen;
              Alcotest.(check bool)
                (Printf.sprintf "%s: cell (%d, %d)" label i j)
                true
                (v = oracle p (q, r)))
            ra.Fluid.Safe_region.r_grid)
        ra.Fluid.Safe_region.q_grid)
    [
      ("default buffer", 6, 5, base);
      ( "Theorem-1 buffer",
        6,
        5,
        Fluid.Params.with_buffer base
          (1.1 *. Fluid.Criterion.required_buffer base) );
      ( "gi / 256, gd x 64",
        3,
        3,
        Fluid.Params.with_gains ~gi:(base.Fluid.Params.gi /. 256.)
          ~gd:(base.Fluid.Params.gd *. 64.) base );
    ];
  List.iter
    (fun v ->
      Alcotest.(check bool) "every verdict met the oracle" true
        (List.mem v !seen))
    Fluid.Safe_region.[ Safe; Overflow; Underflow ]

(* Verbatim copy of the kernel [Safe_region.classify_front] ran before
   its fused rewrite: lock-step RK4 over [Ode.Batch] lanes with the
   right-hand side as a sweep closure. The differential below holds the
   fused kernel to it verdict for verdict. *)
let reference_classify_batch ~t_end ~h p (pts : (float * float) array) =
  let open Fluid in
  let open Safe_region in
  let m = Array.length pts in
  let nf = float_of_int p.Params.n_flows in
  let c = p.Params.capacity and bsize = p.Params.buffer in
  let gd = p.Params.gd in
  let giru = p.Params.gi *. p.Params.ru in
  let q0 = p.Params.q0 in
  let wc = p.Params.w /. (p.Params.pm *. p.Params.capacity) in
  let wall_eps = 1e-9 *. bsize in
  let bt = Ode.Batch.create m in
  let xs = bt.Ode.Batch.xs and ys = bt.Ode.Batch.ys in
  Array.iteri
    (fun i (q, r) ->
      xs.(i) <- q;
      ys.(i) <- r)
    pts;
  (* [Model.simulate_physical]'s [deriv], one sweep per RK stage:
     [s = (q0 -. q) -. ((w /. (pm *. c)) *. dq)] and
     [gi *. ru *. s = (gi *. ru) *. s] hoist to [wc]/[giru] without
     changing a bit (same operations, same order). *)
  let deriv _bt (qs : float array) (rs : float array) (dqs : float array)
      (drs : float array) =
    for i = 0 to m - 1 do
      let q = Array.unsafe_get qs i and r = Array.unsafe_get rs i in
      let inflow = (nf *. r) -. c in
      let dq =
        if q <= wall_eps && inflow < 0. then 0.
        else if q >= bsize -. wall_eps && inflow > 0. then 0.
        else inflow
      in
      let s = (q0 -. q) -. (wc *. dq) in
      let dr = if s >= 0. then giru *. s else gd *. s *. Float.max r 0. in
      Array.unsafe_set dqs i dq;
      Array.unsafe_set drs i dr
    done
  in
  Ode.Batch.set_h bt h;
  let overflow = Bytes.make m '\000' in
  let idle = Bytes.make m '\000' in
  let warmed = Bytes.make m '\000' in
  let steps = int_of_float (Float.ceil (t_end /. h)) in
  let n_active = ref m in
  let i = ref 1 in
  while !i <= steps && !n_active > 0 do
    Ode.Batch.step_rk4 bt deriv;
    for j = 0 to m - 1 do
      if Ode.Batch.is_active bt j then
        (* wall clamps and accounting, in [simulate_physical]'s order *)
        if xs.(j) > bsize then begin
          Bytes.unsafe_set overflow j '\001';
          Ode.Batch.set_active bt j false;
          decr n_active
        end
        else begin
          if xs.(j) < 0. then xs.(j) <- 0.;
          if ys.(j) < 0. then ys.(j) <- 0.;
          if Bytes.unsafe_get warmed j = '\000' && xs.(j) > wall_eps then
            Bytes.unsafe_set warmed j '\001';
          if
            Bytes.unsafe_get warmed j = '\001'
            && xs.(j) <= wall_eps
            && nf *. ys.(j) < c
          then Bytes.unsafe_set idle j '\001'
        end
    done;
    incr i
  done;
  Array.init m (fun j ->
      if Bytes.get overflow j = '\001' then Overflow
      else if Bytes.get idle j = '\001' then Underflow
      else Safe)

let differential_points =
  let base = Fluid.Params.default in
  let gi = base.Fluid.Params.gi and gd = base.Fluid.Params.gd in
  [
    ("default", base);
    ( "Theorem-1 buffer",
      Fluid.Params.with_buffer base
        (1.1 *. Fluid.Criterion.required_buffer base) );
    ("gi x 4", Fluid.Params.with_gains ~gi:(gi *. 4.) base);
    ( "gi / 256, gd x 64",
      Fluid.Params.with_gains ~gi:(gi /. 256.) ~gd:(gd *. 64.) base );
    ("gi / 1000", Fluid.Params.with_gains ~gi:(gi /. 1000.) base);
  ]

(* A front of [n] lanes: the wall lanes (0, 0), (B, r_eq) and (B / 2, 0)
   first, as many as fit, then a low-discrepancy spread over
   [0, B] x [0, 2 r_eq]. *)
let differential_front p n =
  let b = p.Fluid.Params.buffer in
  let r_eq = Fluid.Params.equilibrium_rate p in
  let walls = [| (0., 0.); (b, r_eq); (b /. 2., 0.) |] in
  Array.init n (fun k ->
      if k < Array.length walls then walls.(k)
      else
        let frac x = x -. Float.of_int (truncate x) in
        let kf = float_of_int k in
        (b *. frac (kf *. 0.6180339887498949),
         2. *. r_eq *. frac (kf *. 0.7548776662466927)))

let front_sizes = [ 1; 2; 3; 7; 64; 257 ]

let verdicts_string vs =
  Marshal.to_string (vs : Fluid.Safe_region.verdict array) []

let reference p pts =
  reference_classify_batch ~t_end:(default_t_end p) ~h:(default_h p) p pts

(* Seventeen lanes on the segment from [a] to [b] (whose reference
   verdicts differ) that straddle a verdict boundary to within a few
   ulps: thirteen 16-way sections, each keeping the first pair of
   neighbours whose reference verdicts differ. Coarse fronts miss a
   kernel whose arithmetic moves the boundary a little (a wrong RK4
   stage weight passes them all); these lanes catch any shift of more
   than a few ulps. *)
let boundary_front p (qa, ra) (qb, rb) =
  let lane s = (qa +. (s *. (qb -. qa)), ra +. (s *. (rb -. ra))) in
  let section lo hi =
    Array.init 17 (fun k ->
        if k = 0 then lo
        else if k = 16 then hi
        else lo +. ((hi -. lo) *. float_of_int k /. 16.))
  in
  let rec narrow lo hi rounds =
    let ss = section lo hi in
    if rounds = 0 then Array.map lane ss
    else
      let vs = reference p (Array.map lane ss) in
      let k = ref 0 in
      while vs.(!k) = vs.(!k + 1) do
        incr k
      done;
      narrow ss.(!k) ss.(!k + 1) (rounds - 1)
  in
  narrow 0. 1. 13

(* The fused kernel gives the reference kernel's verdict on every lane,
   and any pool size gives the same verdicts: on fronts of every size
   and on fronts straddling each verdict boundary the 257-lane front
   crosses from a Safe lane. *)
let test_safe_region_differential () =
  let check label p pts =
    let j1 = Fluid.Safe_region.classify_front ~jobs:1 p pts in
    let j4 = Fluid.Safe_region.classify_front ~jobs:4 p pts in
    Alcotest.(check string)
      (label ^ ": fused = reference")
      (verdicts_string (reference p pts))
      (verdicts_string j1);
    Alcotest.(check string)
      (label ^ ": jobs 1 = jobs 4")
      (verdicts_string j1) (verdicts_string j4)
  in
  List.iter
    (fun (label, p) ->
      List.iter
        (fun n ->
          check
            (Printf.sprintf "%s, %d lanes" label n)
            p (differential_front p n))
        front_sizes;
      let pts = differential_front p 257 in
      let vs = reference p pts in
      let first v =
        let rec go k =
          if k = Array.length vs then None
          else if vs.(k) = v then Some pts.(k)
          else go (k + 1)
        in
        go 0
      in
      match first Fluid.Safe_region.Safe with
      | None -> ()
      | Some safe ->
          List.iter
            (fun (name, v) ->
              match first v with
              | None -> ()
              | Some other ->
                  check
                    (Printf.sprintf "%s, Safe/%s boundary" label name)
                    p
                    (boundary_front p safe other))
            Fluid.Safe_region.[ ("Overflow", Overflow); ("Underflow", Underflow) ])
    differential_points

(* The kernel allocates its lanes once per call and nothing per step:
   a call 16x longer allocates the same minor words. *)
let test_safe_region_flat_alloc () =
  let p = Fluid.Params.default in
  let pts = differential_front p 64 in
  let words t_max =
    ignore (Fluid.Safe_region.classify_front ~t_max p pts);
    let w0 = Gc.minor_words () in
    ignore (Fluid.Safe_region.classify_front ~t_max p pts);
    Gc.minor_words () -. w0
  in
  let short = words 1e-3 and long = words 16e-3 in
  Alcotest.(check bool)
    (Printf.sprintf "minor words at 1 ms (%.0f) and 16 ms (%.0f) within 64"
       short long)
    true
    (Float.abs (long -. short) <= 64.)

(* Non-finite inputs are rejected, not classified. *)
let test_safe_region_non_finite () =
  let p = Fluid.Params.default in
  let rejects label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" label
  in
  let classify ?t_max q r () =
    ignore (Fluid.Safe_region.classify ?t_max p ~q ~r)
  in
  rejects "q = nan" (classify nan 1e8);
  rejects "q = infinity" (classify infinity 1e8);
  rejects "r = nan" (classify 1e6 nan);
  rejects "r = infinity" (classify 1e6 infinity);
  rejects "t_max = nan" (classify ~t_max:nan 1e6 1e8);
  rejects "t_max = infinity" (classify ~t_max:infinity 1e6 1e8);
  rejects "front with a nan lane" (fun () ->
      ignore
        (Fluid.Safe_region.classify_front p [| (1e6, 1e8); (nan, 1e8) |]));
  List.iter
    (fun r_max ->
      rejects
        (Printf.sprintf "raster r_max = %g" r_max)
        (fun () ->
          ignore (Fluid.Safe_region.raster ~nq:2 ~nr:2 ~r_max ~t_max:1e-5 p)))
    [ nan; infinity; 0.; -1. ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "batch"
    [
      qsuite "equivalence"
        [ prop_batch_matches_scalar; prop_front_matches_trajectory ];
      ( "allocation",
        [ Alcotest.test_case "batched step allocates zero" `Quick
            test_batch_zero_alloc ] );
      ( "determinism",
        [
          Alcotest.test_case "portrait jobs identity" `Quick
            test_portrait_jobs_identity;
          Alcotest.test_case "safe region jobs identity" `Quick
            test_safe_region_jobs_identity;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "safe region = simulate_physical" `Quick
            test_safe_region_oracle;
        ] );
      ( "safe region",
        [
          Alcotest.test_case "fused kernel = reference kernel" `Quick
            test_safe_region_differential;
          Alcotest.test_case "no per-step allocation" `Quick
            test_safe_region_flat_alloc;
          Alcotest.test_case "non-finite inputs rejected" `Quick
            test_safe_region_non_finite;
        ] );
    ]
