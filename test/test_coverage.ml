(* Breadth coverage: exercises the API corners the focused suites skip —
   accessors, printers, option handling, small utilities. *)

open Numerics

let checkf eps = Alcotest.(check (float eps))

(* ---------------- Vec2 / Mat2 extras ---------------- *)

let test_vec2_array_roundtrip () =
  let v = Vec2.make 3. (-4.) in
  let v' = Vec2.of_array (Vec2.to_array v) in
  Alcotest.(check bool) "roundtrip" true (Vec2.equal v v');
  checkf 1e-12 "angle" (atan2 (-4.) 3.) (Vec2.angle v);
  Alcotest.(check bool) "of_array short" true
    (try
       ignore (Vec2.of_array [| 1. |]);
       false
     with Invalid_argument _ -> true)

let test_mat2_algebra () =
  let a = Mat2.make 1. 2. 3. 4. and b = Mat2.make 5. 6. 7. 8. in
  Alcotest.(check bool) "add" true
    (Mat2.equal (Mat2.add a b) (Mat2.make 6. 8. 10. 12.));
  Alcotest.(check bool) "sub" true
    (Mat2.equal (Mat2.sub b a) (Mat2.make 4. 4. 4. 4.));
  Alcotest.(check bool) "scale" true
    (Mat2.equal (Mat2.scale 2. a) (Mat2.make 2. 4. 6. 8.));
  Alcotest.(check bool) "transpose" true
    (Mat2.equal (Mat2.transpose a) (Mat2.make 1. 3. 2. 4.));
  let r1 = Mat2.row1 a and r2 = Mat2.row2 a in
  Alcotest.(check bool) "rows" true
    (Mat2.equal (Mat2.of_rows r1 r2) a);
  Alcotest.(check bool) "singular inv" true
    (try
       ignore (Mat2.inv (Mat2.make 1. 2. 2. 4.));
       false
     with Failure _ -> true)

(* ---------------- Poly extras ---------------- *)

let test_poly_derivative_and_sub () =
  (* d/dx (1 + 2x + 3x^2) = 2 + 6x *)
  let d = Poly.derivative [| 1.; 2.; 3. |] in
  checkf 1e-12 "d c0" 2. d.(0);
  checkf 1e-12 "d c1" 6. d.(1);
  let z = Poly.sub [| 1.; 2. |] [| 1.; 2. |] in
  Alcotest.(check int) "zero poly degree" 0 (Poly.degree z);
  checkf 1e-12 "zero poly" 0. (Poly.eval z 3.)

let test_poly_normalization () =
  let p = Poly.make [| 1.; 2.; 0.; 0. |] in
  Alcotest.(check int) "trailing zeros dropped" 1 (Poly.degree p);
  let pp = Format.asprintf "%a" Poly.pp p in
  Alcotest.(check bool) "printer" true (String.length pp > 0)

(* ---------------- Ode fixed-step events ---------------- *)

let test_ode_fixed_step_events () =
  let harmonic _t y = [| y.(1); -.y.(0) |] in
  let ev =
    {
      Ode.ev_name = "zero";
      guard = (fun _t y -> y.(0));
      dir = Ode.Down;
      terminal = true;
    }
  in
  let sol =
    Ode.solve_fixed ~method_:Ode.Rk4 ~events:[ ev ] ~h:1e-3 ~t_end:10.
      harmonic ~t0:0. ~y0:[| 1.; 0. |]
  in
  match sol.Ode.terminated with
  | Some oc -> checkf 1e-6 "fixed-step event at pi/2" (Float.pi /. 2.) oc.Ode.oc_t
  | None -> Alcotest.fail "event missed"

let test_ode_invalid_args () =
  let f _t y = [| -.y.(0) |] in
  let fa y dst = dst.(0) <- -.y.(0) in
  let rejects name thunk =
    Alcotest.(check bool) name true
      (try
         ignore (thunk ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "h <= 0" (fun () ->
      Ode.solve_fixed ~h:0. ~t_end:1. f ~t0:0. ~y0:[| 1. |]);
  rejects "t_end <= t0" (fun () ->
      Ode.solve_adaptive ~t_end:0. f ~t0:1. ~y0:[| 1. |]);
  (* non-finite steps and horizons: a NaN step would loop forever, a NaN
     horizon would return a silent one-point solution *)
  List.iter
    (fun (label, v) ->
      rejects ("solve_fixed h = " ^ label) (fun () ->
          Ode.solve_fixed ~h:v ~t_end:1. f ~t0:0. ~y0:[| 1. |]);
      rejects ("solve_fixed t_end = " ^ label) (fun () ->
          Ode.solve_fixed ~h:0.1 ~t_end:v f ~t0:0. ~y0:[| 1. |]);
      rejects ("solve_fixed t0 = " ^ label) (fun () ->
          Ode.solve_fixed ~h:0.1 ~t_end:1. f ~t0:v ~y0:[| 1. |]);
      rejects ("solve_adaptive t_end = " ^ label) (fun () ->
          Ode.solve_adaptive ~t_end:v f ~t0:0. ~y0:[| 1. |]);
      rejects ("solve_adaptive t0 = " ^ label) (fun () ->
          Ode.solve_adaptive ~t_end:1. f ~t0:v ~y0:[| 1. |]);
      rejects ("solve Fixed h = " ^ label) (fun () ->
          Ode.solve (Ode.Fixed (Ode.Rk4, v)) (Ode.guards_of_events ~dim:1 [])
            Ode.Record fa ~t0:0. ~t_end:1. ~y0:[| 1. |]);
      rejects ("solve Adaptive t_end = " ^ label) (fun () ->
          Ode.solve (Ode.Adaptive (1e-8, 1e-10)) (Ode.guards_of_events ~dim:1 [])
            Ode.Record fa ~t0:0. ~t_end:v ~y0:[| 1. |]);
      rejects ("Front.integrate h = " ^ label) (fun () ->
          Phaseplane.Front.integrate ~h:v
            (Phaseplane.System.linear (Mat2.make 0. 1. (-1.) 0.))
            [| Vec2.make 1. 0. |]);
      rejects ("Front.integrate t_max = " ^ label) (fun () ->
          Phaseplane.Front.integrate ~h:0.1 ~t_max:v
            (Phaseplane.System.linear (Mat2.make 0. 1. (-1.) 0.))
            [| Vec2.make 1. 0. |]))
    [ ("nan", nan); ("inf", infinity); ("-inf", neg_infinity) ];
  (* a fixed-step horizon at or before t0 still yields the initial point *)
  let sol = Ode.solve_fixed ~h:0.1 ~t_end:0. f ~t0:1. ~y0:[| 1. |] in
  Alcotest.(check int) "fixed t_end <= t0: one point" 1 (Array.length sol.Ode.ts)

(* ---------------- Series extras ---------------- *)

let test_series_slice_map2 () =
  let s = Series.make [| 0.; 1.; 2.; 3. |] [| 0.; 10.; 20.; 30. |] in
  let sl = Series.slice s 1. 2. in
  Alcotest.(check int) "slice length" 2 (Series.length sl);
  let doubled = Series.map2 ( +. ) s s in
  checkf 1e-12 "map2" 60. (Series.at doubled 3.);
  let lst = Series.to_list s in
  Alcotest.(check int) "to_list" 4 (List.length lst);
  let txt = Format.asprintf "%a" Series.pp s in
  Alcotest.(check bool) "pp" true (String.length txt > 0)

let test_series_argmax_min () =
  let s = Series.make [| 0.; 1.; 2. |] [| 5.; -1.; 3. |] in
  let t, v = Series.argmax s in
  checkf 1e-12 "argmax t" 0. t;
  checkf 1e-12 "argmax v" 5. v;
  let t, v = Series.argmin s in
  checkf 1e-12 "argmin t" 1. t;
  checkf 1e-12 "argmin v" (-1.) v

(* ---------------- Stats extras ---------------- *)

let test_stats_ci95 () =
  let xs = Array.make 100 5. in
  let m, half = Stats.mean_ci95 xs in
  checkf 1e-12 "mean" 5. m;
  checkf 1e-12 "zero width for constant" 0. half

(* ---------------- Histogram extras ---------------- *)

let test_histogram_to_series_and_reset () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  Histogram.add h 1.;
  Histogram.add h 3.;
  let s = Histogram.to_series h in
  Alcotest.(check int) "5 bins" 5 (Series.length s);
  checkf 1e-12 "midpoint" 1. s.Series.ts.(0);
  Histogram.reset h;
  checkf 1e-12 "reset" 0. (Histogram.count h)

(* ---------------- Control extras ---------------- *)

let test_lti2_times () =
  let s = Control.Lti2.make ~m:2. ~n:25. in
  (match Control.Lti2.peak_time s with
  | Some tp -> checkf 1e-9 "peak time" (Float.pi /. (5. *. sqrt 0.96)) tp
  | None -> Alcotest.fail "underdamped has peak time");
  checkf 1e-9 "settling" (4. /. 1.) (Control.Lti2.settling_time_2pct s);
  Alcotest.(check bool) "overdamped no overshoot" true
    (Control.Lti2.step_overshoot (Control.Lti2.make ~m:11. ~n:25.) = None)

let test_tf_zeros_and_scale () =
  let h = Control.Tf.make [| -2.; 1. |] [| 3.; 1. |] in
  (match Control.Tf.zeros h with
  | [ Poly.Real z ] -> checkf 1e-9 "zero at 2" 2. z
  | _ -> Alcotest.fail "expected one zero");
  let g = Control.Tf.scale 3. (Control.Tf.gain 2.) in
  checkf 1e-12 "scaled gain" 6. (Control.Tf.magnitude g 1.)

let test_nyquist_locus_shape () =
  let l = Control.Tf.make [| 1. |] [| 1.; 1. |] in
  let c = Control.Nyquist.locus ~n:100 l in
  Alcotest.(check int) "n points" 100 (Array.length c.Control.Nyquist.ws);
  (* |L(jw)| <= 1 everywhere for 1/(s+1) *)
  Array.iteri
    (fun i _ ->
      let m =
        sqrt
          ((c.Control.Nyquist.res.(i) ** 2.) +. (c.Control.Nyquist.ims.(i) ** 2.))
      in
      Alcotest.(check bool) "bounded" true (m <= 1.0001))
    c.Control.Nyquist.ws

(* ---------------- Fluid extras ---------------- *)

let test_bdp_and_buffer_for () =
  let p = Fluid.Params.default in
  checkf 1. "bdp" 5e6 (Fluid.Params.bdp_buffer p ~rtt:5e-4);
  let b = Fluid.Criterion.buffer_for ~headroom:1.2 p in
  checkf 1. "buffer_for" (1.2 *. Fluid.Criterion.required_buffer p) b;
  Alcotest.(check bool) "headroom < 1 rejected" true
    (try
       ignore (Fluid.Criterion.buffer_for ~headroom:0.5 p);
       false
     with Invalid_argument _ -> true)

let test_cold_start_point () =
  let p = Fluid.Params.default in
  let v = Fluid.Model.cold_start_point p in
  checkf 1e-6 "x = -q0" (-.p.Fluid.Params.q0) v.Vec2.x;
  checkf 1e-6 "y = -C (mu = 0)" (-.p.Fluid.Params.capacity) v.Vec2.y

let test_spiral_period_and_contraction_relation () =
  let c = Fluid.Spiral.coeffs ~m:2. ~n:25. in
  checkf 1e-12 "period" (2. *. Float.pi /. c.Fluid.Spiral.beta)
    (Fluid.Spiral.period c);
  checkf 1e-12 "contraction"
    (exp (2. *. Float.pi *. c.Fluid.Spiral.alpha /. c.Fluid.Spiral.beta))
    (Fluid.Spiral.contraction_per_turn c)

let test_transient_pp () =
  let m =
    Fluid.Transient.measure ~horizon:1e-3
      (Fluid.Params.with_buffer Fluid.Params.default 30e6)
  in
  let txt = Format.asprintf "%a" Fluid.Transient.pp_metrics m in
  Alcotest.(check bool) "pp renders" true (String.length txt > 20)

(* ---------------- Simnet extras ---------------- *)

let test_switch_accessors () =
  let p = Fluid.Params.default in
  let cfg = Simnet.Switch.default_config p ~cpid:9 in
  let sw = Simnet.Switch.create cfg ~control_out:(fun _ _ -> ()) in
  Alcotest.(check int) "config cpid" 9 (Simnet.Switch.config sw).Simnet.Switch.cpid;
  checkf 1e-12 "empty queue" 0. (Simnet.Switch.queue_bits sw);
  Alcotest.(check bool) "not paused" false (Simnet.Switch.upstream_paused sw);
  checkf 1e-9 "fluid sampling period"
    (12000. /. (p.Fluid.Params.pm *. p.Fluid.Params.capacity))
    (Simnet.Switch.fluid_sampling_period p)

let test_source_accessors () =
  let src =
    Simnet.Source.create ~id:7 ~initial_rate:1e6 ~gi:1. ~gd:0.1 ~ru:1e5
      ~send:(fun _ _ -> ())
      ()
  in
  Alcotest.(check int) "id" 7 (Simnet.Source.id src);
  Alcotest.(check int) "no frames yet" 0 (Simnet.Source.frames_sent src);
  checkf 1e-12 "no bits yet" 0. (Simnet.Source.bits_sent src);
  Alcotest.(check bool) "not paused" false (Simnet.Source.is_paused src);
  Alcotest.(check bool) "rejects bad rate" true
    (try
       ignore
         (Simnet.Source.create ~id:0 ~initial_rate:0. ~gi:1. ~gd:1. ~ru:1.
            ~send:(fun _ _ -> ())
            ());
       false
     with Invalid_argument _ -> true)

let test_packet_pp () =
  let pp p = Format.asprintf "%a" Simnet.Packet.pp p in
  Alcotest.(check bool) "data" true
    (String.length (pp (Simnet.Packet.make_data ~seq:1 ~now:0. ~flow:2 ~rrt:(Some 3))) > 0);
  Alcotest.(check bool) "bcn" true
    (String.length (pp (Simnet.Packet.make_bcn ~seq:1 ~now:0. ~flow:2 ~fb:(-1.) ~cpid:3)) > 0);
  Alcotest.(check bool) "pause" true
    (String.length (pp (Simnet.Packet.make_pause ~seq:1 ~now:0. ~on:false)) > 0)

let test_workload_mean_rates () =
  checkf 1e-9 "cbr" 5e6 (Simnet.Workload.mean_offered_rate (Simnet.Workload.cbr ~id:0 ~rate:5e6));
  let inc =
    Simnet.Workload.incast ~ids:[ 0; 1 ] ~burst_frames:10 ~period:0.1 ()
  in
  checkf 1e-6 "incast" (2. *. 10. *. 12000. /. 0.1)
    (Simnet.Workload.mean_offered_rate inc)

let test_qcn_quantize_validation () =
  Alcotest.(check bool) "bits < 1" true
    (try
       ignore (Simnet.Qcn.quantize ~bits:0 ~fb_max:1. (-0.5));
       false
     with Invalid_argument _ -> true)

(* Every packet model rejects a zero, negative or non-finite horizon,
   sample period or control interval up front: each of these used to
   hang, exhaust memory or return a silent one-sample trace. *)
let test_packet_model_validation () =
  let p = Fluid.Params.default in
  let module S = Simnet in
  let runs ~t_end ~sample_dt =
    [
      ( "Runner",
        fun () ->
          ignore
            (S.Runner.run
               { (S.Runner.default_config p) with S.Runner.t_end; sample_dt })
      );
      ( "E2cm",
        fun () ->
          ignore (S.E2cm.run { (S.E2cm.default_config p) with S.E2cm.t_end; sample_dt })
      );
      ( "Fera",
        fun () ->
          ignore (S.Fera.run { (S.Fera.default_config p) with S.Fera.t_end; sample_dt })
      );
      ( "Rcp",
        fun () ->
          ignore (S.Rcp.run { (S.Rcp.default_config p) with S.Rcp.t_end; sample_dt })
      );
      ( "Multihop",
        fun () ->
          ignore
            (S.Multihop.run
               { (S.Multihop.default_config p) with S.Multihop.t_end; sample_dt })
      );
      ( "Qcn",
        fun () ->
          ignore (S.Qcn.run { (S.Qcn.default_config p) with S.Qcn.t_end; sample_dt })
      );
      ( "Topology",
        fun () ->
          ignore
            (S.Topology.victim_scenario
               { (S.Topology.default_config p) with S.Topology.t_end; sample_dt })
      );
    ]
  in
  let intervals interval =
    [
      ( "E2cm",
        fun () ->
          ignore
            (S.E2cm.run
               { (S.E2cm.default_config ~t_end:1e-3 p) with S.E2cm.interval })
      );
      ( "Fera",
        fun () ->
          ignore
            (S.Fera.run
               { (S.Fera.default_config ~t_end:1e-3 p) with S.Fera.interval })
      );
      ( "Rcp",
        fun () ->
          ignore
            (S.Rcp.run { (S.Rcp.default_config ~t_end:1e-3 p) with S.Rcp.interval })
      );
    ]
  in
  let rejects name thunk =
    Alcotest.(check bool) name true
      (try
         thunk ();
         false
       with Invalid_argument _ -> true)
  in
  List.iter
    (fun (label, v) ->
      List.iter
        (fun (model, thunk) -> rejects (model ^ " t_end = " ^ label) thunk)
        (runs ~t_end:v ~sample_dt:1e-5);
      List.iter
        (fun (model, thunk) -> rejects (model ^ " sample_dt = " ^ label) thunk)
        (runs ~t_end:1e-3 ~sample_dt:v);
      List.iter
        (fun (model, thunk) -> rejects (model ^ " interval = " ^ label) thunk)
        (intervals v))
    [ ("0", 0.); ("-1", -1.); ("nan", nan); ("inf", infinity) ]

(* ---------------- Analysis / Figures extras ---------------- *)

let test_analysis_to_string_contains_sections () =
  let r = Dcecc_core.Analysis.run (Fluid.Params.with_buffer Fluid.Params.default 16e6) in
  let text = Dcecc_core.Analysis.to_string r in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has theorem section" true (contains "Theorem 1");
  Alcotest.(check bool) "has baseline section" true (contains "linear baseline");
  Alcotest.(check bool) "has strong stability" true (contains "strong stability")

let test_figures_all_ids_unique () =
  (* just the id list (cheap figure evaluation is covered elsewhere) *)
  let ids =
    [
      "fig3_taxonomy"; "fig4_spiral"; "fig5_node"; "fig6_case1";
      "fig7_limit_cycle"; "fig8_case2"; "fig9_case3"; "fig10_case4";
      "t1_criterion"; "v1_fluid_vs_packet"; "v2_linear_vs_strong";
      "a1_transient_sampling"; "a2_delay_margin"; "a3_solver_ablation";
      "p1_paradigms"; "p2_aimd_fairness"; "w1_cross_traffic";
      "b1_safe_region"; "m1_multihop";
    ]
  in
  Alcotest.(check int) "19 experiments" 19
    (List.length (List.sort_uniq compare ids))

let () =
  Alcotest.run "coverage"
    [
      ( "numerics-extras",
        [
          Alcotest.test_case "vec2 arrays" `Quick test_vec2_array_roundtrip;
          Alcotest.test_case "mat2 algebra" `Quick test_mat2_algebra;
          Alcotest.test_case "poly derivative/sub" `Quick
            test_poly_derivative_and_sub;
          Alcotest.test_case "poly normalization" `Quick test_poly_normalization;
          Alcotest.test_case "fixed-step events" `Quick test_ode_fixed_step_events;
          Alcotest.test_case "ode validation" `Quick test_ode_invalid_args;
          Alcotest.test_case "series slice/map2" `Quick test_series_slice_map2;
          Alcotest.test_case "series argmax/min" `Quick test_series_argmax_min;
          Alcotest.test_case "stats ci95" `Quick test_stats_ci95;
          Alcotest.test_case "histogram series/reset" `Quick
            test_histogram_to_series_and_reset;
        ] );
      ( "control-extras",
        [
          Alcotest.test_case "lti2 times" `Quick test_lti2_times;
          Alcotest.test_case "tf zeros/scale" `Quick test_tf_zeros_and_scale;
          Alcotest.test_case "nyquist locus" `Quick test_nyquist_locus_shape;
        ] );
      ( "fluid-extras",
        [
          Alcotest.test_case "bdp/buffer_for" `Quick test_bdp_and_buffer_for;
          Alcotest.test_case "cold start" `Quick test_cold_start_point;
          Alcotest.test_case "spiral relations" `Quick
            test_spiral_period_and_contraction_relation;
          Alcotest.test_case "transient pp" `Quick test_transient_pp;
        ] );
      ( "simnet-extras",
        [
          Alcotest.test_case "switch accessors" `Quick test_switch_accessors;
          Alcotest.test_case "source accessors" `Quick test_source_accessors;
          Alcotest.test_case "packet pp" `Quick test_packet_pp;
          Alcotest.test_case "workload rates" `Quick test_workload_mean_rates;
          Alcotest.test_case "qcn validation" `Quick test_qcn_quantize_validation;
          Alcotest.test_case "packet model validation" `Quick
            test_packet_model_validation;
        ] );
      ( "core-extras",
        [
          Alcotest.test_case "analysis text" `Quick
            test_analysis_to_string_contains_sections;
          Alcotest.test_case "experiment ids" `Quick test_figures_all_ids_unique;
        ] );
    ]
