(* Unit and property tests for the numerics substrate. *)

open Numerics

let check_float = Alcotest.(check (float 1e-9))
let checkf eps = Alcotest.(check (float eps))

(* ---------------- Vec2 ---------------- *)

let test_vec2_ops () =
  let u = Vec2.make 3. 4. in
  let v = Vec2.make (-1.) 2. in
  check_float "norm" 5. (Vec2.norm u);
  check_float "dot" 5. (Vec2.dot u v);
  check_float "cross" 10. (Vec2.cross u v);
  Alcotest.(check bool)
    "add" true
    (Vec2.equal (Vec2.add u v) (Vec2.make 2. 6.));
  Alcotest.(check bool)
    "scale" true
    (Vec2.equal (Vec2.scale 2. u) (Vec2.make 6. 8.));
  check_float "dist" (Vec2.norm (Vec2.sub u v)) (Vec2.dist u v)

let test_vec2_rotate () =
  let u = Vec2.make 1. 0. in
  let r = Vec2.rotate (Float.pi /. 2.) u in
  Alcotest.(check bool) "rotate 90" true (Vec2.equal ~eps:1e-12 r (Vec2.make 0. 1.));
  let back = Vec2.rotate (-.Float.pi /. 2.) r in
  Alcotest.(check bool) "rotate back" true (Vec2.equal ~eps:1e-12 back u)

let test_vec2_normalize_zero () =
  Alcotest.check_raises "zero vector" (Invalid_argument "Vec2.normalize: zero vector")
    (fun () -> ignore (Vec2.normalize Vec2.zero))

let test_vec2_lerp () =
  let a = Vec2.make 0. 0. and b = Vec2.make 2. 4. in
  Alcotest.(check bool) "midpoint" true
    (Vec2.equal (Vec2.lerp a b 0.5) (Vec2.make 1. 2.))

(* ---------------- Mat2 ---------------- *)

let test_mat2_basic () =
  let m = Mat2.make 1. 2. 3. 4. in
  check_float "det" (-2.) (Mat2.det m);
  check_float "trace" 5. (Mat2.trace m);
  let mi = Mat2.inv m in
  Alcotest.(check bool) "inv" true
    (Mat2.equal ~eps:1e-12 (Mat2.mul m mi) Mat2.identity)

let test_mat2_eigen_real () =
  (* [[2,0],[0,3]] has eigenvalues 2, 3 *)
  let m = Mat2.make 2. 0. 0. 3. in
  match Mat2.eigenvalues m with
  | Mat2.Real_pair (l1, l2) ->
      check_float "l1" 2. l1;
      check_float "l2" 3. l2
  | Mat2.Complex_pair _ -> Alcotest.fail "expected real eigenvalues"

let test_mat2_eigen_complex () =
  (* rotation-like: [[0,1],[-1,0]] has eigenvalues ±i *)
  let m = Mat2.make 0. 1. (-1.) 0. in
  match Mat2.eigenvalues m with
  | Mat2.Complex_pair { re; im } ->
      check_float "re" 0. re;
      check_float "im" 1. im
  | Mat2.Real_pair _ -> Alcotest.fail "expected complex eigenvalues"

let test_mat2_eigenvector () =
  let m = Mat2.make 2. 1. 0. 3. in
  let v = Mat2.eigenvector m 2. in
  let mv = Mat2.apply m v in
  Alcotest.(check bool) "A v = 2 v" true
    (Vec2.equal ~eps:1e-9 mv (Vec2.scale 2. v))

let test_mat2_char_poly () =
  let m = Mat2.make 1. 2. 3. 4. in
  let c0, c1 = Mat2.char_poly m in
  check_float "c0 = det" (Mat2.det m) c0;
  check_float "c1 = -trace" (-.Mat2.trace m) c1

(* ---------------- Poly ---------------- *)

let test_poly_eval () =
  let p = Poly.make [| 1.; 2.; 3. |] in
  (* 1 + 2x + 3x^2 at x=2: 1+4+12 = 17 *)
  check_float "eval" 17. (Poly.eval p 2.);
  Alcotest.(check int) "degree" 2 (Poly.degree p)

let test_poly_mul () =
  (* (1+x)(1-x) = 1 - x^2 *)
  let p = Poly.mul [| 1.; 1. |] [| 1.; -1. |] in
  check_float "c0" 1. p.(0);
  check_float "c1" 0. p.(1);
  check_float "c2" (-1.) p.(2)

let test_poly_quadratic_roots () =
  (* x^2 - 5x + 6 = (x-2)(x-3) *)
  match Poly.roots_quadratic [| 6.; -5.; 1. |] with
  | Poly.Real r1, Poly.Real r2 ->
      check_float "r1" 2. r1;
      check_float "r2" 3. r2
  | _ -> Alcotest.fail "expected real roots"

let test_poly_quadratic_complex () =
  (* x^2 + 1 *)
  match Poly.roots_quadratic [| 1.; 0.; 1. |] with
  | Poly.Complex { re = r1; im = i1 }, Poly.Complex { re = r2; im = i2 } ->
      check_float "re1" 0. r1;
      check_float "re2" 0. r2;
      check_float "im sum" 0. (i1 +. i2);
      check_float "|im|" 1. (Float.abs i1)
  | _ -> Alcotest.fail "expected complex roots"

let test_poly_cubic_roots () =
  (* (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6 *)
  let roots = Poly.roots_cubic [| -6.; 11.; -6.; 1. |] in
  let reals =
    List.filter_map (function Poly.Real r -> Some r | Poly.Complex _ -> None) roots
    |> List.sort compare
  in
  Alcotest.(check int) "three real" 3 (List.length reals);
  List.iter2 (fun expect got -> checkf 1e-6 "root" expect got) [ 1.; 2.; 3. ] reals

let test_poly_durand_kerner () =
  (* (x-1)(x-2)(x-3)(x-4) *)
  let p = Poly.of_roots [ 1.; 2.; 3.; 4. ] in
  let roots = Poly.roots p in
  let reals =
    List.filter_map (function Poly.Real r -> Some r | Poly.Complex _ -> None) roots
    |> List.sort compare
  in
  Alcotest.(check int) "four real" 4 (List.length reals);
  List.iter2 (fun expect got -> checkf 1e-6 "root" expect got) [ 1.; 2.; 3.; 4. ] reals

let test_poly_is_hurwitz () =
  Alcotest.(check bool) "stable" true (Poly.is_hurwitz (Poly.of_roots [ -1.; -2.; -3. ]));
  Alcotest.(check bool) "unstable" false (Poly.is_hurwitz (Poly.of_roots [ -1.; 2. ]))

let prop_poly_roots_satisfy =
  QCheck.Test.make ~name:"random cubic roots satisfy p(r) ~ 0" ~count:200
    QCheck.(triple (float_range (-5.) 5.) (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (r1, r2, r3) ->
      let p = Poly.of_roots [ r1; r2; r3 ] in
      let roots = Poly.roots_cubic p in
      List.for_all
        (function
          | Poly.Real r -> Float.abs (Poly.eval p r) < 1e-6 *. (1. +. (Float.abs r ** 3.))
          | Poly.Complex { re; im } ->
              let vr, vi = Poly.eval_complex p (re, im) in
              sqrt ((vr *. vr) +. (vi *. vi)) < 1e-6 *. (1. +. ((re *. re) +. (im *. im)) ** 1.5))
        roots)

(* ---------------- Roots ---------------- *)

let test_bisect () =
  let r = Roots.bisect (fun x -> (x *. x) -. 2.) 0. 2. in
  checkf 1e-10 "sqrt 2" (sqrt 2.) r

let test_brent () =
  let r = Roots.brent (fun x -> cos x -. x) 0. 1. in
  checkf 1e-10 "dottie" 0.7390851332151607 r

let test_newton () =
  let r = Roots.newton (fun x -> (x *. x) -. 2.) (fun x -> 2. *. x) 1. in
  checkf 1e-10 "sqrt 2" (sqrt 2.) r

let test_secant () =
  let r = Roots.secant (fun x -> exp x -. 2.) 0. 1. in
  checkf 1e-9 "ln 2" (log 2.) r

let test_no_bracket () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Roots.bisect (fun x -> (x *. x) +. 1.) (-1.) 1.);
       false
     with Roots.No_bracket _ -> true)

let test_bracket_expansion () =
  let a, b = Roots.bracket (fun x -> x -. 10.) 0. 1. in
  Alcotest.(check bool) "contains root" true (a <= 10. && 10. <= b)

let test_find_all () =
  (* sin has roots at 0, pi, 2pi in [−1, 7] *)
  let roots = Roots.find_all ~n:1000 sin (-1.) 7. in
  Alcotest.(check int) "three roots" 3 (List.length roots);
  List.iter2
    (fun expect got -> checkf 1e-8 "root" expect got)
    [ 0.; Float.pi; 2. *. Float.pi ]
    roots

let test_fixed_point () =
  (* x = cos x *)
  let r = Roots.fixed_point cos 1. in
  checkf 1e-9 "dottie" 0.7390851332151607 r

let prop_brent_inverse =
  QCheck.Test.make ~name:"brent inverts monotone cubic" ~count:200
    QCheck.(float_range (-10.) 10.)
    (fun target ->
      let f x = (x *. x *. x) +. x -. target in
      let r = Roots.brent f (-50.) 50. in
      Float.abs (f r) < 1e-6)

(* ---------------- Ode ---------------- *)

let decay _t y = [| -.y.(0) |]

let test_ode_exact_decay () =
  let sol = Ode.solve_fixed ~method_:Ode.Rk4 ~h:0.01 ~t_end:1. decay ~t0:0. ~y0:[| 1. |] in
  let yn = sol.Ode.ys.(Array.length sol.Ode.ys - 1) in
  checkf 1e-8 "e^-1" (exp (-1.)) yn.(0)

let test_ode_convergence_orders () =
  let exact t = [| exp (-.t) |] in
  let order m = Ode.convergence_order m decay ~t0:0. ~y0:[| 1. |] ~t_end:1. ~exact in
  Alcotest.(check bool) "euler ~1" true (Float.abs (order Ode.Euler -. 1.) < 0.2);
  Alcotest.(check bool) "heun ~2" true (Float.abs (order Ode.Heun -. 2.) < 0.2);
  Alcotest.(check bool) "rk4 ~4" true (Float.abs (order Ode.Rk4 -. 4.) < 0.3)

let harmonic _t y = [| y.(1); -.y.(0) |]

let test_ode_adaptive_harmonic () =
  let sol =
    Ode.solve_adaptive ~rtol:1e-10 ~atol:1e-12 ~t_end:(2. *. Float.pi) harmonic
      ~t0:0. ~y0:[| 1.; 0. |]
  in
  let yn = sol.Ode.ys.(Array.length sol.Ode.ys - 1) in
  checkf 1e-7 "x after full period" 1. yn.(0);
  checkf 1e-7 "v after full period" 0. yn.(1)

let test_ode_monitor_counts () =
  (* the monitor hook must see exactly the accepted/rejected steps the
     solution reports, and must not change the trajectory *)
  let steps = ref 0 and rejects = ref 0 and last_t = ref nan in
  let monitor =
    {
      Ode.on_step =
        (fun t _h ->
          incr steps;
          last_t := t);
      on_reject = (fun _t _h -> incr rejects);
    }
  in
  let sol =
    Ode.solve_adaptive ~rtol:1e-6 ~atol:1e-9 ~monitor ~t_end:(2. *. Float.pi)
      harmonic ~t0:0. ~y0:[| 1.; 0. |]
  in
  Alcotest.(check int) "on_step == n_steps" sol.Ode.n_steps !steps;
  Alcotest.(check int) "on_reject == n_rejected" sol.Ode.n_rejected !rejects;
  check_float "last on_step lands on t_end" (2. *. Float.pi) !last_t;
  let bare =
    Ode.solve_adaptive ~rtol:1e-6 ~atol:1e-9 ~t_end:(2. *. Float.pi) harmonic
      ~t0:0. ~y0:[| 1.; 0. |]
  in
  Alcotest.(check int) "monitor does not perturb step count"
    bare.Ode.n_steps sol.Ode.n_steps;
  (* fixed-step: every step accepted, none rejected *)
  steps := 0;
  rejects := 0;
  let fsol =
    Ode.solve_fixed ~method_:Ode.Rk4 ~monitor ~h:0.01 ~t_end:1. decay ~t0:0.
      ~y0:[| 1. |]
  in
  Alcotest.(check int) "fixed on_step" fsol.Ode.n_steps !steps;
  Alcotest.(check int) "fixed on_reject" 0 !rejects

let test_ode_event_detection () =
  (* x(t) = cos t crosses 0 at pi/2 *)
  let ev =
    {
      Ode.ev_name = "zero";
      guard = (fun _t y -> y.(0));
      dir = Ode.Down;
      terminal = true;
    }
  in
  let sol =
    Ode.solve_adaptive ~rtol:1e-10 ~atol:1e-12 ~events:[ ev ] ~t_end:10.
      harmonic ~t0:0. ~y0:[| 1.; 0. |]
  in
  match sol.Ode.terminated with
  | Some oc -> checkf 1e-7 "crossing at pi/2" (Float.pi /. 2.) oc.Ode.oc_t
  | None -> Alcotest.fail "event not detected"

let test_ode_event_direction () =
  (* Up-only event must skip the Down crossing at pi/2 and fire at 3pi/2 *)
  let ev =
    {
      Ode.ev_name = "up";
      guard = (fun _t y -> y.(0));
      dir = Ode.Up;
      terminal = true;
    }
  in
  let sol =
    Ode.solve_adaptive ~rtol:1e-10 ~atol:1e-12 ~events:[ ev ] ~t_end:10.
      harmonic ~t0:0. ~y0:[| 1.; 0. |]
  in
  match sol.Ode.terminated with
  | Some oc -> checkf 1e-6 "crossing at 3pi/2" (3. *. Float.pi /. 2.) oc.Ode.oc_t
  | None -> Alcotest.fail "event not detected"

let test_ode_nonterminal_events () =
  let ev =
    {
      Ode.ev_name = "zero";
      guard = (fun _t y -> y.(0));
      dir = Ode.Both;
      terminal = false;
    }
  in
  let sol =
    Ode.solve_adaptive ~rtol:1e-9 ~atol:1e-12 ~events:[ ev ]
      ~t_end:(4. *. Float.pi) harmonic ~t0:0. ~y0:[| 1.; 0. |]
  in
  (* cos crosses zero 4 times in [0, 4pi] *)
  Alcotest.(check int) "four crossings" 4 (List.length sol.Ode.occs)

let test_ode_state_at () =
  let sol = Ode.solve_fixed ~method_:Ode.Rk4 ~h:0.01 ~t_end:1. decay ~t0:0. ~y0:[| 1. |] in
  let y = Ode.state_at sol 0.5 in
  checkf 1e-4 "interpolated" (exp (-0.5)) y.(0)

let prop_adaptive_energy =
  QCheck.Test.make ~name:"harmonic oscillator conserves energy" ~count:25
    QCheck.(pair (float_range 0.2 2.) (float_range (-2.) 2.))
    (fun (x0, v0) ->
      let sol =
        Ode.solve_adaptive ~rtol:1e-10 ~atol:1e-13 ~t_end:10. harmonic ~t0:0.
          ~y0:[| x0; v0 |]
      in
      let yn = sol.Ode.ys.(Array.length sol.Ode.ys - 1) in
      let e0 = (x0 *. x0) +. (v0 *. v0) in
      let e1 = (yn.(0) *. yn.(0)) +. (yn.(1) *. yn.(1)) in
      Float.abs (e1 -. e0) < 1e-6 *. e0)

(* ---------------- Quad ---------------- *)

let test_quad_simpson () =
  checkf 1e-8 "int sin [0,pi]" 2. (Quad.simpson sin 0. Float.pi 200)

let test_quad_adaptive () =
  checkf 1e-9 "int exp [0,1]" (exp 1. -. 1.) (Quad.adaptive_simpson exp 0. 1.)

let test_quad_trapezoid_samples () =
  let ts = Array.init 101 (fun i -> float_of_int i /. 100.) in
  let vs = Array.map (fun t -> t) ts in
  checkf 1e-9 "int x [0,1]" 0.5 (Quad.trapezoid_samples ts vs)

(* ---------------- Interp ---------------- *)

let test_interp_linear () =
  let xs = [| 0.; 1.; 2. |] and ys = [| 0.; 10.; 0. |] in
  checkf 1e-12 "mid" 5. (Interp.linear xs ys 0.5);
  checkf 1e-12 "clamp lo" 0. (Interp.linear xs ys (-1.));
  checkf 1e-12 "clamp hi" 0. (Interp.linear xs ys 5.)

let test_interp_hermite_endpoints () =
  let v = Interp.hermite 0. 1. 2. 5. 0. 0. 0. in
  checkf 1e-12 "left endpoint" 2. v;
  let v = Interp.hermite 0. 1. 2. 5. 0. 0. 1. in
  checkf 1e-12 "right endpoint" 5. v

let test_interp_zero_crossings () =
  let xs = [| 0.; 1.; 2.; 3. |] and ys = [| 1.; -1.; -1.; 2. |] in
  let zs = Interp.zero_crossings xs ys in
  Alcotest.(check int) "two crossings" 2 (List.length zs);
  checkf 1e-12 "first" 0.5 (List.nth zs 0)

(* ---------------- Stats ---------------- *)

let test_stats_basic () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean xs);
  checkf 1e-9 "stddev" (sqrt (32. /. 7.)) (Stats.stddev xs);
  check_float "median" 4.5 (Stats.median xs);
  check_float "min" 2. (Stats.min xs);
  check_float "max" 9. (Stats.max xs)

let test_stats_percentile () =
  let xs = Array.init 101 float_of_int in
  check_float "p25" 25. (Stats.percentile 25. xs);
  check_float "p100" 100. (Stats.percentile 100. xs)

let test_stats_corr () =
  let a = [| 1.; 2.; 3.; 4. |] in
  let b = Array.map (fun x -> (2. *. x) +. 1.) a in
  checkf 1e-12 "perfect corr" 1. (Stats.corr a b);
  let c = Array.map (fun x -> -.x) a in
  checkf 1e-12 "anti corr" (-1.) (Stats.corr a c)

let test_stats_rmse () =
  let a = [| 0.; 0. |] and b = [| 3.; 4. |] in
  checkf 1e-12 "rmse" (5. /. sqrt 2.) (Stats.rmse a b);
  check_float "max abs" 4. (Stats.max_abs_err a b)

(* ---------------- Series ---------------- *)

let test_series_basic () =
  let s = Series.of_fn (fun t -> t *. t) 0. 1. 101 in
  checkf 1e-3 "integral x^2" (1. /. 3.) (Series.integral s);
  checkf 1e-3 "time average" (1. /. 3.) (Series.time_average s);
  checkf 1e-12 "at" 0.25 (Series.at s 0.5)

let test_series_extrema () =
  let s = Series.of_fn sin 0. (2. *. Float.pi) 1001 in
  let ex = Series.local_extrema s in
  Alcotest.(check int) "max and min" 2 (List.length ex);
  (match ex with
  | (t1, v1, `Max) :: (t2, v2, `Min) :: [] ->
      checkf 1e-2 "t max" (Float.pi /. 2.) t1;
      checkf 1e-4 "v max" 1. v1;
      checkf 1e-2 "t min" (3. *. Float.pi /. 2.) t2;
      checkf 1e-4 "v min" (-1.) v2
  | _ -> Alcotest.fail "unexpected extrema structure")

let test_series_crossings () =
  let s = Series.of_fn sin 0.1 6.2 1000 in
  let cs = Series.crossings s in
  Alcotest.(check int) "one crossing" 1 (List.length cs);
  checkf 1e-3 "at pi" Float.pi (List.hd cs)

let test_series_within () =
  let s = Series.of_fn sin 0. 6. 100 in
  Alcotest.(check bool) "within [-2,2]" true (Series.within s (-2.) 2.);
  Alcotest.(check bool) "not within [0,2]" false (Series.within s 0. 2.)

let test_series_monotone_guard () =
  Alcotest.(check bool) "rejects decreasing ts" true
    (try
       ignore (Series.make [| 1.; 0. |] [| 0.; 0. |]);
       false
     with Invalid_argument _ -> true)

(* ---------------- Histogram ---------------- *)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.7; 9.99 ];
  check_float "count" 4. (Histogram.count h);
  check_float "bin 0" 1. (Histogram.bin_mass h 0);
  check_float "bin 1" 2. (Histogram.bin_mass h 1);
  check_float "bin 9" 1. (Histogram.bin_mass h 9);
  let a, b = Histogram.bin_edges h 1 in
  check_float "edge lo" 1. a;
  check_float "edge hi" 2. b

let test_histogram_out_of_range () =
  let h = Histogram.create ~lo:0. ~hi:1. ~bins:4 in
  Histogram.add h (-5.);
  Histogram.add h 2.;
  Histogram.add h 1.;
  (* hi itself overflows: bins are [lo, hi) *)
  check_float "underflow" 1. (Histogram.underflow h);
  check_float "overflow" 2. (Histogram.overflow h);
  check_float "total" 3. (Histogram.count h)

let test_histogram_quantile () =
  let h = Histogram.create ~lo:0. ~hi:100. ~bins:100 in
  for i = 0 to 99 do
    Histogram.add h (float_of_int i +. 0.5)
  done;
  checkf 1.5 "median" 50. (Histogram.quantile h 0.5);
  checkf 1.5 "p90" 90. (Histogram.quantile h 0.9);
  checkf 1.5 "mean" 50. (Histogram.mean h)

let test_histogram_weighted_and_merge () =
  let a = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  let b = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  Histogram.add_weighted a 2.5 3.;
  Histogram.add_weighted b 2.5 1.;
  let m = Histogram.merge a b in
  check_float "merged mass" 4. (Histogram.bin_mass m 2);
  Alcotest.(check bool) "geometry mismatch rejected" true
    (try
       ignore (Histogram.merge a (Histogram.create ~lo:0. ~hi:5. ~bins:10));
       false
     with Invalid_argument _ -> true)

let test_histogram_quantile_all_underflow () =
  (* every sample below [lo]: the quantile must sit at [lo] for any p,
     because all mass is counted there *)
  let h = Histogram.create ~lo:10. ~hi:20. ~bins:8 in
  List.iter (Histogram.add h) [ 1.; 2.; 3. ];
  check_float "p0.01" 10. (Histogram.quantile h 0.01);
  check_float "median" 10. (Histogram.quantile h 0.5);
  check_float "p0.99" 10. (Histogram.quantile h 0.99);
  check_float "count kept" 3. (Histogram.count h)

let test_histogram_quantile_all_overflow () =
  let h = Histogram.create ~lo:0. ~hi:1. ~bins:8 in
  List.iter (Histogram.add h) [ 5.; 6.; 1. ] (* hi itself overflows too *);
  check_float "p0.01" 1. (Histogram.quantile h 0.01);
  check_float "median" 1. (Histogram.quantile h 0.5);
  check_float "p0.99" 1. (Histogram.quantile h 0.99)

let test_histogram_quantile_single_bin () =
  (* one bin spanning the whole range: quantiles are pure linear
     interpolation across [lo, hi] *)
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:1 in
  for _ = 1 to 4 do
    Histogram.add h 5.
  done;
  check_float "p25" 2.5 (Histogram.quantile h 0.25);
  check_float "median" 5. (Histogram.quantile h 0.5);
  check_float "p100" 10. (Histogram.quantile h 1.)

let test_histogram_quantile_empty_raises () =
  let h = Histogram.create ~lo:0. ~hi:1. ~bins:4 in
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Histogram.quantile h 0.5);
       false
     with Invalid_argument _ -> true)

let test_histogram_copy_independent () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:10 in
  Histogram.add h 2.5;
  Histogram.add h (-1.);
  let c = Histogram.copy h in
  Histogram.add h 2.5;
  Histogram.add c 7.5;
  check_float "original bin 2" 2. (Histogram.bin_mass h 2);
  check_float "copy bin 2" 1. (Histogram.bin_mass c 2);
  check_float "copy bin 7" 1. (Histogram.bin_mass c 7);
  check_float "original bin 7" 0. (Histogram.bin_mass h 7);
  check_float "copy underflow" 1. (Histogram.underflow c)

(* merge must equal the histogram of the concatenated sample streams,
   bin for bin, including the out-of-range mass *)
let prop_histogram_merge_is_concat =
  QCheck.Test.make ~name:"merge == histogram of concatenated samples"
    ~count:100
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 0 100) (float_range (-20.) 120.))
        (list_of_size (QCheck.Gen.int_range 0 100) (float_range (-20.) 120.)))
    (fun (xs, ys) ->
      let mk vals =
        let h = Histogram.create ~lo:0. ~hi:100. ~bins:16 in
        List.iter (Histogram.add h) vals;
        h
      in
      let m = Histogram.merge (mk xs) (mk ys) in
      let c = mk (xs @ ys) in
      let ok = ref (Histogram.underflow m = Histogram.underflow c
                    && Histogram.overflow m = Histogram.overflow c) in
      for i = 0 to Histogram.bin_count m - 1 do
        if Histogram.bin_mass m i <> Histogram.bin_mass c i then ok := false
      done;
      !ok)

let prop_histogram_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantiles are monotone" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (float_range 0. 100.))
    (fun xs ->
      let h = Histogram.create ~lo:0. ~hi:100. ~bins:32 in
      List.iter (Histogram.add h) xs;
      let q25 = Histogram.quantile h 0.25 in
      let q50 = Histogram.quantile h 0.5 in
      let q75 = Histogram.quantile h 0.75 in
      q25 <= q50 && q50 <= q75)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "numerics"
    [
      ( "vec2",
        [
          Alcotest.test_case "ops" `Quick test_vec2_ops;
          Alcotest.test_case "rotate" `Quick test_vec2_rotate;
          Alcotest.test_case "normalize zero" `Quick test_vec2_normalize_zero;
          Alcotest.test_case "lerp" `Quick test_vec2_lerp;
        ] );
      ( "mat2",
        [
          Alcotest.test_case "basic" `Quick test_mat2_basic;
          Alcotest.test_case "eigen real" `Quick test_mat2_eigen_real;
          Alcotest.test_case "eigen complex" `Quick test_mat2_eigen_complex;
          Alcotest.test_case "eigenvector" `Quick test_mat2_eigenvector;
          Alcotest.test_case "char poly" `Quick test_mat2_char_poly;
        ] );
      ( "poly",
        [
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "mul" `Quick test_poly_mul;
          Alcotest.test_case "quadratic real" `Quick test_poly_quadratic_roots;
          Alcotest.test_case "quadratic complex" `Quick test_poly_quadratic_complex;
          Alcotest.test_case "cubic" `Quick test_poly_cubic_roots;
          Alcotest.test_case "durand-kerner" `Quick test_poly_durand_kerner;
          Alcotest.test_case "hurwitz" `Quick test_poly_is_hurwitz;
        ] );
      qsuite "poly-props" [ prop_poly_roots_satisfy ];
      ( "roots",
        [
          Alcotest.test_case "bisect" `Quick test_bisect;
          Alcotest.test_case "brent" `Quick test_brent;
          Alcotest.test_case "newton" `Quick test_newton;
          Alcotest.test_case "secant" `Quick test_secant;
          Alcotest.test_case "no bracket" `Quick test_no_bracket;
          Alcotest.test_case "bracket expansion" `Quick test_bracket_expansion;
          Alcotest.test_case "find all" `Quick test_find_all;
          Alcotest.test_case "fixed point" `Quick test_fixed_point;
        ] );
      qsuite "roots-props" [ prop_brent_inverse ];
      ( "ode",
        [
          Alcotest.test_case "exact decay" `Quick test_ode_exact_decay;
          Alcotest.test_case "convergence orders" `Quick test_ode_convergence_orders;
          Alcotest.test_case "adaptive harmonic" `Quick test_ode_adaptive_harmonic;
          Alcotest.test_case "monitor counts" `Quick test_ode_monitor_counts;
          Alcotest.test_case "event detection" `Quick test_ode_event_detection;
          Alcotest.test_case "event direction" `Quick test_ode_event_direction;
          Alcotest.test_case "nonterminal events" `Quick test_ode_nonterminal_events;
          Alcotest.test_case "state_at" `Quick test_ode_state_at;
        ] );
      qsuite "ode-props" [ prop_adaptive_energy ];
      ( "quad",
        [
          Alcotest.test_case "simpson" `Quick test_quad_simpson;
          Alcotest.test_case "adaptive" `Quick test_quad_adaptive;
          Alcotest.test_case "samples" `Quick test_quad_trapezoid_samples;
        ] );
      ( "interp",
        [
          Alcotest.test_case "linear" `Quick test_interp_linear;
          Alcotest.test_case "hermite" `Quick test_interp_hermite_endpoints;
          Alcotest.test_case "zero crossings" `Quick test_interp_zero_crossings;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "corr" `Quick test_stats_corr;
          Alcotest.test_case "rmse" `Quick test_stats_rmse;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "out of range" `Quick test_histogram_out_of_range;
          Alcotest.test_case "quantile" `Quick test_histogram_quantile;
          Alcotest.test_case "weighted + merge" `Quick
            test_histogram_weighted_and_merge;
          Alcotest.test_case "quantile all-underflow" `Quick
            test_histogram_quantile_all_underflow;
          Alcotest.test_case "quantile all-overflow" `Quick
            test_histogram_quantile_all_overflow;
          Alcotest.test_case "quantile single bin" `Quick
            test_histogram_quantile_single_bin;
          Alcotest.test_case "quantile empty raises" `Quick
            test_histogram_quantile_empty_raises;
          Alcotest.test_case "copy independent" `Quick
            test_histogram_copy_independent;
        ] );
      qsuite "histogram-props"
        [ prop_histogram_quantile_monotone; prop_histogram_merge_is_concat ];
      ( "series",
        [
          Alcotest.test_case "basic" `Quick test_series_basic;
          Alcotest.test_case "extrema" `Quick test_series_extrema;
          Alcotest.test_case "crossings" `Quick test_series_crossings;
          Alcotest.test_case "within" `Quick test_series_within;
          Alcotest.test_case "monotone guard" `Quick test_series_monotone_guard;
        ] );
    ]
