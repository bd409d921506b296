(* The batched-front contract (DESIGN.md §12): Ode.Batch advances every
   active lane bit-for-bit like the scalar in-place stepper, frozen
   lanes never move, the step allocates nothing, and the figure-level
   drivers built on the front (Portrait, Safe_region.classify_front) are
   byte-identical across pool sizes. Small and fast on purpose: this
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

(* The batched safe-region kernel against its scalar oracle: each cell
   of a 6x5 raster, stepped by [Model.simulate_physical] with the step
   and horizon [classify_front] uses, gives the kernel's verdict. *)
let test_safe_region_oracle () =
  let slower_period p =
    Float.max
      (2. *. Float.pi
      /. sqrt (Fluid.Linearized.stiffness p Fluid.Linearized.Increase))
      (2. *. Float.pi
      /. sqrt (Fluid.Linearized.stiffness p Fluid.Linearized.Decrease))
  in
  let oracle p (q, r) =
    let t_end = 12. *. slower_period p in
    let h = Float.min 1e-6 (slower_period p /. 500.) in
    let run = Fluid.Model.simulate_physical ~h ~q_init:q ~r_init:r ~t_end p in
    if run.Fluid.Model.dropped_bits > 0. then Fluid.Safe_region.Overflow
    else if run.Fluid.Model.idle_time > 0. then Fluid.Safe_region.Underflow
    else Fluid.Safe_region.Safe
  in
  let base = Fluid.Params.default in
  List.iter
    (fun (label, p) ->
      let ra = Fluid.Safe_region.raster ~nq:6 ~nr:5 p in
      Array.iteri
        (fun i q ->
          Array.iteri
            (fun j r ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: cell (%d, %d)" label i j)
                true
                (ra.Fluid.Safe_region.cells.(i).(j) = oracle p (q, r)))
            ra.Fluid.Safe_region.r_grid)
        ra.Fluid.Safe_region.q_grid)
    [
      ("default buffer", base);
      ( "Theorem-1 buffer",
        Fluid.Params.with_buffer base
          (1.1 *. Fluid.Criterion.required_buffer base) );
    ]

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
    ]
