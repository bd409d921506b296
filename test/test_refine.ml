(* Tests for the adaptive boundary-refinement engine and the PR's
   satellites: quadtree-vs-dense-oracle equivalence on half-planes
   (where corner disagreement detects the boundary exactly at every
   stride), jobs byte-identity, warm-memo zero-backend-calls (Hashtbl
   and content-addressed store), the streaming Transient.measure and
   the fused Stability.first_excursion and Stability.analyze against
   reference copies of their recorded implementations, the streaming
   solver sink against the
   recording one on the fluid model,
   the Safe_region.render extent-label fix, and Resilience.scan. *)

module Engine = Refine.Engine

let marshal_eq msg a b =
  Alcotest.(check bool)
    msg true
    (String.equal (Marshal.to_string a []) (Marshal.to_string b []))

(* ---------------- engine vs dense oracle ---------------- *)

let halfplane a b c (pts : (float * float) array) =
  Array.map (fun (x, y) -> (a *. x) +. (b *. y) +. c >= 0.) pts

let unit_dom = { Engine.x0 = 0.; x1 = 1.; y0 = 0.; y1 = 1. }

(* A straight line crossing any axis-aligned square leaves corners on
   both sides (both half-planes are convex), so corner disagreement
   finds every crossed cell at every stride: the adaptive boundary
   must equal the dense-oracle mixed set exactly. *)
let qcheck_halfplane =
  QCheck.Test.make ~name:"adaptive boundary = dense oracle (half-planes)"
    ~count:100
    QCheck.(
      triple (float_range (-1.) 1.) (float_range (-1.) 1.)
        (float_range (-1.5) 1.5))
    (fun (a, b, c) ->
      let f = halfplane a b c in
      let t = Engine.refine ~coarse:(4, 4) ~levels:2 unit_dom f in
      let dense, _ = Engine.dense_mixed_cells unit_dom ~nx:16 ~ny:16 f in
      if t.Engine.boundary_cells <> dense then
        QCheck.Test.fail_reportf "boundary cells: adaptive %d, dense %d"
          (Array.length t.Engine.boundary_cells)
          (Array.length dense);
      (* every evaluated corner agrees with the verdict function *)
      Array.iter
        (fun (i, j, v) ->
          let pt = Engine.point t i j in
          if v <> (f [| pt |]).(0) then
            QCheck.Test.fail_reportf "corner (%d, %d) disagrees" i j)
        t.Engine.corners;
      (* every uniform leaf is genuinely uniform on the fine lattice *)
      Array.iter
        (fun l ->
          for i = l.Engine.li to l.Engine.li + l.Engine.lstride do
            for j = l.Engine.lj to l.Engine.lj + l.Engine.lstride do
              if (f [| Engine.point t i j |]).(0) <> l.Engine.lverdict then
                QCheck.Test.fail_reportf "leaf (%d, %d) not uniform"
                  l.Engine.li l.Engine.lj
            done
          done)
        t.Engine.leaves;
      (* traced segments stay inside their cells' bounding boxes *)
      Array.iter
        (fun s ->
          if
            not
              (s.Engine.ax >= 0. && s.Engine.ax <= 1. && s.Engine.ay >= 0.
             && s.Engine.ay <= 1. && s.Engine.bx >= 0. && s.Engine.bx <= 1.
             && s.Engine.by >= 0. && s.Engine.by <= 1.)
          then QCheck.Test.fail_report "segment endpoint outside the domain")
        t.Engine.segments;
      true)

let test_engine_savings () =
  (* the headline property on a non-trivial boundary: strictly fewer
     evaluations than the dense corner lattice at equal resolution *)
  let f = halfplane 1. 0.7 (-0.8) in
  let t = Engine.refine ~coarse:(4, 4) ~levels:4 unit_dom f in
  let _, dense_evals = Engine.dense_mixed_cells unit_dom ~nx:64 ~ny:64 f in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %d < dense %d evaluations" t.Engine.evaluations
       dense_evals)
    true
    (t.Engine.evaluations * 4 < dense_evals)

(* ---------------- jobs byte-identity ---------------- *)

let test_jobs_identity () =
  let p = Fluid.Params.default in
  let t1 = Refine.Safe_plane.trace ~jobs:1 ~coarse:(4, 4) ~levels:2 p in
  let t4 = Refine.Safe_plane.trace ~jobs:4 ~coarse:(4, 4) ~levels:2 p in
  marshal_eq "safe-plane refinement jobs 1 = jobs 4" t1 t4

(* ---------------- warm refinement is free ---------------- *)

let counting_backend f calls pts =
  incr calls;
  f pts

let test_warm_zero_calls () =
  let tbl : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let memo =
    {
      Engine.key = (fun ~x ~y -> Printf.sprintf "%.17g,%.17g" x y);
      lookup = Hashtbl.find_opt tbl;
      save = Hashtbl.replace tbl;
    }
  in
  let calls = ref 0 in
  let f = counting_backend (halfplane 0.9 1.1 (-1.)) calls in
  let cold = Engine.refine ~memo ~coarse:(4, 4) ~levels:2 unit_dom f in
  let cold_calls = !calls in
  Alcotest.(check bool) "cold refinement calls the backend" true (cold_calls > 0);
  calls := 0;
  let warm = Engine.refine ~memo ~coarse:(4, 4) ~levels:2 unit_dom f in
  Alcotest.(check int) "warm refinement: zero backend calls" 0 !calls;
  marshal_eq "warm result byte-identical (same logical evaluations)" cold warm

let with_store f =
  let dir = Filename.temp_dir "dcecc-refine-test" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f (Store.Cache.open_ ~dir))

let test_warm_store_zero_sims () =
  with_store (fun cache ->
      let p = Fluid.Params.default in
      let store = Store.Sweep.verdict_memo cache in
      let trace () =
        Refine.Safe_plane.trace ~store ~coarse:(4, 4) ~levels:1 ~edge_iters:2 p
      in
      let cold = trace () in
      let s = Store.Cache.stats cache in
      Alcotest.(check bool)
        "cold trace persists verdicts" true
        (s.Store.Cache.puts > 0);
      Store.Cache.reset_stats cache;
      let warm = trace () in
      let s = Store.Cache.stats cache in
      Alcotest.(check int) "warm trace: no misses" 0 s.Store.Cache.misses;
      Alcotest.(check int) "warm trace: no new entries" 0 s.Store.Cache.puts;
      marshal_eq "warm trace byte-identical" cold warm)

(* ---------------- streaming Transient.measure ---------------- *)

(* reference copy of the pre-streaming implementation (recorded
   trajectory + Series post-processing) *)
let reference_measure ~horizon ?(band = 0.05) p =
  let sys = Fluid.Model.normalized_system p in
  let tr =
    Phaseplane.Trajectory.integrate ~t_max:horizon sys (Fluid.Model.start_point p)
  in
  let xs = Phaseplane.Trajectory.x_series tr in
  let overshoot = Phaseplane.Trajectory.x_max tr in
  let undershoot =
    match tr.Phaseplane.Trajectory.switch_crossings with
    | { Phaseplane.Trajectory.ct; _ } :: _ ->
        let tail = Numerics.Series.tail_from xs ct in
        if Numerics.Series.is_empty tail then Phaseplane.Trajectory.x_min tr
        else snd (Numerics.Series.argmin tail)
    | [] -> Phaseplane.Trajectory.x_min tr
  in
  let threshold = band *. p.Fluid.Params.q0 in
  let settling_time =
    let last = ref None in
    Array.iteri
      (fun i v ->
        if Float.abs v > threshold then last := Some xs.Numerics.Series.ts.(i))
      xs.Numerics.Series.vs;
    match !last with
    | None -> Some 0.
    | Some t
      when t
           < xs.Numerics.Series.ts.(Numerics.Series.length xs - 1)
             -. (0.01 *. horizon) ->
        Some t
    | Some _ -> None
  in
  let decay_of_extrema extrema =
    let mags =
      List.filter_map
        (fun { Phaseplane.Trajectory.cp; _ } ->
          let m = Float.abs cp.Numerics.Vec2.x in
          if m > 0. then Some m else None)
        extrema
    in
    match mags with
    | _ :: (_ :: _ :: _ as tail) ->
        let rec ratios acc = function
          | a :: (b :: _ as rest) -> ratios (log (b /. a) :: acc) rest
          | [ _ ] | [] -> acc
        in
        let rs = ratios [] tail in
        if rs = [] then None
        else
          Some
            (exp (List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs)))
    | _ -> None
  in
  ( overshoot,
    undershoot,
    List.length tr.Phaseplane.Trajectory.axis_crossings,
    settling_time,
    decay_of_extrema tr.Phaseplane.Trajectory.axis_crossings )

let test_measure_differential () =
  List.iter
    (fun (label, horizon, p) ->
      let m = Fluid.Transient.measure ~horizon p in
      let got =
        ( m.Fluid.Transient.overshoot,
          m.Fluid.Transient.undershoot,
          m.Fluid.Transient.oscillations,
          m.Fluid.Transient.settling_time,
          m.Fluid.Transient.decay_per_cycle )
      in
      marshal_eq label got (reference_measure ~horizon p))
    [
      ("default, 5 ms", 5e-3, Fluid.Params.default);
      ("default, 1 ms", 1e-3, Fluid.Params.default);
      ("gd = 1", 2e-3, Fluid.Params.with_gains ~gd:1. Fluid.Params.default);
      ( "w = 8000",
        2e-3,
        Fluid.Params.with_sampling ~w:8000. Fluid.Params.default );
    ]

let test_measure_allocation () =
  let p = Fluid.Params.default in
  ignore (Fluid.Transient.measure ~horizon:1e-3 p);
  let w0 = Gc.minor_words () in
  ignore (Fluid.Transient.measure ~horizon:1e-3 p);
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "measure allocates %.0f minor words (< 4000)" dw)
    true (dw < 4000.)

(* ---------------- streaming Stability.first_excursion ---------------- *)

(* reference copy of the recorded implementation (recorded trajectory,
   bisected switch crossings, Series post-processing) and of its
   default horizon *)
let reference_horizon p =
  let time_scale region =
    match Fluid.Cases.shape_of p region with
    | Fluid.Cases.Spiral_shape ->
        Fluid.Spiral.period (Fluid.Spiral.of_region p region)
    | Fluid.Cases.Node_shape ->
        4. /. Float.abs (Fluid.Node.slow_slope (Fluid.Node.of_region p region))
    | Fluid.Cases.Critical_shape -> (
        match Fluid.Linearized.eigenvalues p region with
        | Numerics.Mat2.Real_pair (l1, _) -> 4. /. Float.abs l1
        | Numerics.Mat2.Complex_pair { re; _ } -> 4. /. Float.abs re)
  in
  12.
  *. Float.max
       (time_scale Fluid.Linearized.Increase)
       (time_scale Fluid.Linearized.Decrease)

let reference_first_excursion ?t_max p =
  let t_max = match t_max with Some t -> t | None -> reference_horizon p in
  let sys = Fluid.Model.normalized_system p in
  let tr =
    Phaseplane.Trajectory.integrate ~t_max sys (Fluid.Model.start_point p)
  in
  let xs = Phaseplane.Trajectory.x_series tr in
  let crossings = tr.Phaseplane.Trajectory.switch_crossings in
  let max_x = Phaseplane.Trajectory.x_max tr in
  let min_x =
    match crossings with
    | _ :: { Phaseplane.Trajectory.ct = t2; _ } :: _ ->
        let tail = Numerics.Series.tail_from xs t2 in
        if Numerics.Series.is_empty tail then Phaseplane.Trajectory.x_min tr
        else snd (Numerics.Series.argmin tail)
    | [ { Phaseplane.Trajectory.ct = t1; _ } ] ->
        let tail = Numerics.Series.tail_from xs t1 in
        if Numerics.Series.is_empty tail then Phaseplane.Trajectory.x_min tr
        else snd (Numerics.Series.argmin tail)
    | [] -> Phaseplane.Trajectory.x_min tr
  in
  (max_x, min_x)

(* reference copy of the composed [Stability.analyze]: one
   classification and one flow-map trace for the analytic extrema, then
   Propositions 2-4 as they were written, each classifying (and
   Proposition 2 tracing) again; the numeric extrema are passed in *)
let reference_analyze p (numeric_max, numeric_min) =
  let module P = Fluid.Params in
  let module C = Fluid.Cases in
  let prop2 p =
    match C.classify p with
    | C.Case1 -> (
        match Fluid.Flowmap.excursions p with
        | Some mx, Some mn -> Some (mx < p.P.buffer -. p.P.q0 && mn > -.p.P.q0)
        | Some mx, None -> Some (mx < p.P.buffer -. p.P.q0)
        | None, _ -> Some true)
    | C.Case2 | C.Case3 | C.Case4 | C.Case5 -> None
  in
  let prop3 p =
    match C.classify p with
    | C.Case2 -> (
        match Fluid.Flowmap.first_overshoot p with
        | Some mx -> Some (mx < p.P.buffer -. p.P.q0)
        | None -> Some true)
    | C.Case1 | C.Case3 | C.Case4 | C.Case5 -> None
  in
  let prop4 p =
    match C.classify p with
    | C.Case3 | C.Case4 | C.Case5 -> Some true
    | C.Case1 | C.Case2 -> None
  in
  let case = C.classify p in
  let analytic_max, analytic_min = Fluid.Flowmap.excursions p in
  let overflow_margin = p.P.buffer -. p.P.q0 -. numeric_max in
  let underflow_margin = numeric_min +. p.P.q0 in
  let analytic_strongly_stable =
    match case with
    | C.Case1 -> prop2 p
    | C.Case2 -> prop3 p
    | C.Case3 | C.Case4 | C.Case5 -> prop4 p
  in
  ( {
      Fluid.Stability.case;
      analytic_max;
      analytic_min;
      numeric_max;
      numeric_min;
      overflow_margin;
      underflow_margin;
      strongly_stable = overflow_margin > 0. && underflow_margin > 0.;
      analytic_strongly_stable;
    },
    (prop2 p, prop3 p, prop4 p) )

(* switch-crossing times of the default-solver run to [t_max] *)
let switch_times ~t_max p =
  let tr =
    Phaseplane.Trajectory.integrate ~t_max (Fluid.Model.normalized_system p)
      (Fluid.Model.start_point p)
  in
  List.map
    (fun c -> c.Phaseplane.Trajectory.ct)
    tr.Phaseplane.Trajectory.switch_crossings

(* [first_excursion] against the recorded reference; [analyze] and the
   public propositions against the composed reference; and the gain
   plane's verdict-only path against [analyze] *)
let check_points points =
  let refs =
    List.map
      (fun (label, p) ->
        let fe = reference_first_excursion p in
        marshal_eq label (Fluid.Stability.first_excursion p) fe;
        let verdict, props = reference_analyze p fe in
        marshal_eq (label ^ ": analyze") (Fluid.Stability.analyze p) verdict;
        marshal_eq
          (label ^ ": propositions 2-4")
          Fluid.Stability.(proposition2 p, proposition3 p, proposition4 p)
          props;
        verdict.Fluid.Stability.strongly_stable)
      points
  in
  let params = Array.of_list (List.map snd points) in
  Alcotest.(check (list bool))
    "Param_plane.verdicts = analyze's strongly_stable" refs
    (Array.to_list
       (Refine.Param_plane.verdicts
          (fun ~x ~y:_ -> params.(int_of_float x))
          (Array.mapi (fun i _ -> (float_of_int i, 0.)) params)));
  refs

let gain_point p (fx, fy) =
  ( Printf.sprintf "gains (%ga, %gb)" fx fy,
    Refine.Param_plane.gains p ~x:(fx *. Fluid.Params.a p)
      ~y:(fy *. Fluid.Params.b p) )

(* horizons ending before the first switching and between the first
   two, so the zero- and one-crossing fallbacks are exercised *)
let check_short_horizons (label, p) =
  let t1, t2 =
    match switch_times ~t_max:(reference_horizon p) p with
    | t1 :: t2 :: _ -> (t1, t2)
    | _ -> Alcotest.fail (label ^ ": run switches fewer than twice")
  in
  List.iter
    (fun (hlabel, t_max, n) ->
      let hlabel = label ^ ", " ^ hlabel in
      Alcotest.(check int)
        (hlabel ^ ": switchings in the reference run")
        n
        (List.length (switch_times ~t_max p));
      marshal_eq hlabel
        (Fluid.Stability.first_excursion ~t_max p)
        (reference_first_excursion ~t_max p))
    [ ("no switching", 0.5 *. t1, 0); ("one switching", 0.5 *. (t1 +. t2), 1) ]

let test_excursion_differential () =
  let p = Fluid.Params.default in
  (* the gain domain of figures --adaptive, 0.25a..8a x 0.25b..8b *)
  let gain_corners =
    List.map (gain_point p)
      [ (0.25, 0.25); (0.25, 8.); (8., 0.25); (8., 8.); (4.125, 4.125) ]
  in
  let c2 = Dcecc_core.Figures.case2_params in
  let q0 = c2.Fluid.Params.q0 in
  let o2 =
    match Fluid.Flowmap.first_overshoot c2 with
    | Some mx when mx > 0. -> mx
    | _ -> Alcotest.fail "Case 2 example has no positive overshoot"
  in
  let named =
    [
      ("default", p);
      ( "Theorem-1 buffer",
        Fluid.Params.with_buffer p (1.1 *. Fluid.Criterion.required_buffer p) );
      ("gd = 1", Fluid.Params.with_gains ~gd:1. p);
      ("w = 8000", Fluid.Params.with_sampling ~w:8000. p);
      ("Case 2", c2);
      (* its analytic overshoot past the buffer: Proposition 3 fails *)
      ( "Case 2, overflowing buffer",
        Fluid.Params.with_buffer c2 (q0 +. (0.5 *. o2)) );
      ("Case 3", Dcecc_core.Figures.case3_params);
      ("Case 4", Dcecc_core.Figures.case4_params);
    ]
  in
  ignore (check_points (named @ gain_corners));
  List.iter check_short_horizons (("default", p) :: gain_corners)

(* 500 seeded points, log-uniform over 0.2a..9.6a x 0.2b..9.6b (the
   bench jitters the 0.25..8 gain domain by 0.8..1.2), and its four
   corners *)
let test_excursion_gain_plane () =
  let p = Fluid.Params.default in
  let rng = Random.State.make [| 27 |] in
  let factor () = 0.2 *. Float.exp (Random.State.float rng (Float.log 48.)) in
  let corners = [ (0.2, 0.2); (0.2, 9.6); (9.6, 0.2); (9.6, 9.6) ] in
  let random = List.init 500 (fun _ -> (factor (), factor ())) in
  let stable = check_points (List.map (gain_point p) (corners @ random)) in
  Alcotest.(check (pair bool bool))
    "both verdicts met" (true, true)
    (List.mem true stable, List.mem false stable)

let test_excursion_rejects_horizon () =
  List.iter
    (fun t_max ->
      match Fluid.Stability.first_excursion ~t_max Fluid.Params.default with
      | _ -> Alcotest.failf "t_max = %g accepted" t_max
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity; 0.; -1. ]

(* The fold keeps no per-step state: a 16x longer run allocates the
   same minor words as a short one. *)
let test_excursion_allocation () =
  let p = Fluid.Params.default in
  let words t_max =
    ignore (Fluid.Stability.first_excursion ~t_max p);
    let w0 = Gc.minor_words () in
    ignore (Fluid.Stability.first_excursion ~t_max p);
    Gc.minor_words () -. w0
  in
  let short = words 1e-3 and long = words 16e-3 in
  Alcotest.(check bool)
    (Printf.sprintf "minor words: %.0f at 1 ms, %.0f at 16 ms (within 64)"
       short long)
    true
    (Float.abs (long -. short) <= 64.)

(* ---------------- streaming solver vs recording solver ---------------- *)

(* Run [Ode.solve] with the [Stream] sink over the event list
   [Trajectory.integrate] builds, copying every borrowed sample and
   occurrence out as a packed [[|t; y...|]] array. *)
let stream_run ~solver ?converge_radius ?box ~t_max sys p0 =
  let guards =
    Numerics.Ode.guards_of_events ~dim:2
      (Phaseplane.Trajectory.events_for ?converge_radius ?box sys)
  in
  let pts = ref [] and occs = ref [] in
  Numerics.Ode.solve solver guards
    (Numerics.Ode.Stream
       {
         on_point = (fun pt -> pts := Array.copy pt :: !pts);
         on_event =
           (fun e pt ->
             occs := (guards.Numerics.Ode.gs_names.(e), Array.copy pt) :: !occs);
       })
    (Phaseplane.System.to_auto sys) ~t0:0. ~t_end:t_max
    ~y0:(Numerics.Vec2.to_array p0);
  (List.rev !pts, List.rev !occs)

(* The same run through the recording sink, packed the same way. *)
let record_run ~solver ?converge_radius ?box ~t_max sys p0 =
  let tr =
    Phaseplane.Trajectory.integrate ~solver ~t_max ?converge_radius ?box sys p0
  in
  let sol = tr.Phaseplane.Trajectory.sol in
  let pts =
    Array.to_list
      (Array.map2
         (fun t y -> Array.append [| t |] y)
         sol.Numerics.Ode.ts sol.Numerics.Ode.ys)
  in
  let occs =
    List.map
      (fun (oc : Numerics.Ode.occurrence) ->
        (oc.Numerics.Ode.oc_name, Array.append [| oc.Numerics.Ode.oc_t |] oc.oc_y))
      sol.Numerics.Ode.occs
  in
  (tr, (pts, occs))

let stream_cases =
  [
    ("default", Fluid.Params.default);
    ("gd = 1", Fluid.Params.with_gains ~gd:1. Fluid.Params.default);
    ("w = 8000", Fluid.Params.with_sampling ~w:8000. Fluid.Params.default);
  ]

let stream_solvers =
  [
    ("adaptive", Numerics.Ode.Adaptive (1e-9, 1e-12), 2e-3);
    ("rk4", Numerics.Ode.Fixed (Numerics.Ode.Rk4, 1e-6), 1e-3);
  ]

let test_scan_differential () =
  List.iter
    (fun (plabel, p) ->
      let sys = Fluid.Model.normalized_system p in
      let p0 = Fluid.Model.start_point p in
      List.iter
        (fun (slabel, solver, t_max) ->
          let _, recorded = record_run ~solver ~t_max sys p0 in
          let streamed = stream_run ~solver ~t_max sys p0 in
          marshal_eq
            (Printf.sprintf "%s, %s: samples and occurrences" plabel slabel)
            recorded streamed)
        stream_solvers)
    stream_cases

(* A box whose right wall lies halfway between the start point and the
   equilibrium: the trajectory must leave it, so the run ends on the
   terminal [left_box] event. The streamed samples end on the event
   state, exactly as the recorded trajectory does. *)
let test_scan_terminal () =
  List.iter
    (fun (plabel, p) ->
      let sys = Fluid.Model.normalized_system p in
      let p0 = Fluid.Model.start_point p in
      let x0 = p0.Numerics.Vec2.x in
      let box =
        ( Numerics.Vec2.make (2. *. x0) (-1e30),
          Numerics.Vec2.make (0.5 *. x0) 1e30 )
      in
      List.iter
        (fun (slabel, solver, t_max) ->
          let label = Printf.sprintf "%s, %s" plabel slabel in
          let tr, recorded = record_run ~solver ~box ~t_max sys p0 in
          Alcotest.(check bool)
            (label ^ ": recorded run left the box")
            true
            (tr.Phaseplane.Trajectory.stop = Phaseplane.Trajectory.Left_box);
          let streamed = stream_run ~solver ~box ~t_max sys p0 in
          marshal_eq (label ^ ": samples and occurrences") recorded streamed;
          let term =
            match tr.Phaseplane.Trajectory.sol.Numerics.Ode.terminated with
            | Some oc -> Array.append [| oc.Numerics.Ode.oc_t |] oc.oc_y
            | None -> Alcotest.fail "no terminal occurrence"
          in
          let last = List.nth (fst streamed) (List.length (fst streamed) - 1) in
          marshal_eq (label ^ ": last streamed sample is the event state") term
            last)
        stream_solvers)
    stream_cases

(* ---------------- Safe_region.render extent label ---------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_render_header () =
  let p = Fluid.Params.default in
  let ra = Fluid.Safe_region.raster ~nq:6 ~nr:4 p in
  Alcotest.(check (float 0.))
    "q_max is the buffer size" p.Fluid.Params.buffer
    ra.Fluid.Safe_region.q_max;
  Alcotest.(check (float 0.))
    "r_max default" (2. *. Fluid.Params.equilibrium_rate p)
    ra.Fluid.Safe_region.r_max;
  let header =
    Printf.sprintf "%8s  q: 0 .. %s (buffer)" ""
      (Report.Table.si p.Fluid.Params.buffer)
  in
  Alcotest.(check bool)
    "rendered header labels the true extent" true
    (contains (Fluid.Safe_region.render ra) header)

(* ---------------- Resilience.scan ---------------- *)

let test_resilience_scan () =
  let sc =
    Faultnet.Resilience.scenario ~t_end:2e-3 ~label:"scan-test"
      Fluid.Params.default
  in
  let ax = Faultnet.Resilience.Bcn_loss in
  let s = Faultnet.Resilience.scan ~n:8 ~seed:11 sc ax in
  Alcotest.(check bool)
    "margin <= ceiling" true
    (s.Faultnet.Resilience.margin <= s.Faultnet.Resilience.ceiling);
  Alcotest.(check bool)
    "margin in range" true
    (s.Faultnet.Resilience.margin >= 0. && s.Faultnet.Resilience.ceiling <= 1.);
  Alcotest.(check bool)
    "evaluation count sane" true
    (s.Faultnet.Resilience.evaluations >= 2
    && s.Faultnet.Resilience.evaluations <= 9);
  (match s.Faultnet.Resilience.violation with
  | None ->
      Alcotest.(check (float 0.))
        "no violation => full margin" 1. s.Faultnet.Resilience.margin
  | Some _ -> ());
  let s' = Faultnet.Resilience.scan ~n:8 ~seed:11 sc ax in
  marshal_eq "scan is deterministic" s s'

(* ---------------- saddle disambiguation (codes 5/10) ---------------- *)

let edge_of (x, y) =
  if y = 0. then `S
  else if y = 1. then `N
  else if x = 0. then `W
  else if x = 1. then `E
  else Alcotest.fail "crossing point not on a cell edge"

let seg_edges (s : Engine.segment) =
  (edge_of (s.Engine.ax, s.Engine.ay), edge_of (s.Engine.bx, s.Engine.by))

(* |x - y| < 0.3 is a connected diagonal band through the unit cell:
   corners SW and NE true, SE and NW false — the ambiguous marching
   squares code 5. The center probe is true, so the trace must cut off
   the two false corners (segments S-E and W-N). A fixed diagonal
   choice would draw W-S and E-N here: two separated true lobes, the
   wrong topology. *)
let test_saddle_band () =
  let f = Array.map (fun (x, y) -> Float.abs (x -. y) < 0.3) in
  let t = Engine.refine ~coarse:(1, 1) ~levels:0 unit_dom f in
  Alcotest.(check int)
    "one boundary cell" 1
    (Array.length t.Engine.boundary_cells);
  Alcotest.(check int) "two segments" 2 (Array.length t.Engine.segments);
  let edges = Array.to_list (Array.map seg_edges t.Engine.segments) in
  Alcotest.(check bool)
    "band topology: S-E and W-N" true
    (List.mem (`S, `E) edges && List.mem (`W, `N) edges)

(* x + y < 0.5 or x + y > 1.5: the same corner code 5, but the center
   is false — two separated true lobes at SW and NE, which the trace
   must keep separated (segments W-S and E-N). *)
let test_saddle_lobes () =
  let f = Array.map (fun (x, y) -> x +. y < 0.5 || x +. y > 1.5) in
  let t = Engine.refine ~coarse:(1, 1) ~levels:0 unit_dom f in
  Alcotest.(check int) "two segments" 2 (Array.length t.Engine.segments);
  let edges = Array.to_list (Array.map seg_edges t.Engine.segments) in
  Alcotest.(check bool)
    "lobe topology: W-S and E-N" true
    (List.mem (`W, `S) edges && List.mem (`E, `N) edges)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "refine"
    [
      qsuite "oracle" [ qcheck_halfplane ];
      ( "engine",
        [
          Alcotest.test_case "boundary-scaling savings" `Quick
            test_engine_savings;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_identity;
          Alcotest.test_case "warm memo: zero backend calls" `Quick
            test_warm_zero_calls;
          Alcotest.test_case "warm store: zero simulations" `Quick
            test_warm_store_zero_sims;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "measure = reference (bits)" `Quick
            test_measure_differential;
          Alcotest.test_case "measure allocation bound" `Quick
            test_measure_allocation;
          Alcotest.test_case "first_excursion = reference (bits)" `Quick
            test_excursion_differential;
          Alcotest.test_case "first_excursion = reference, gain plane (bits)"
            `Quick test_excursion_gain_plane;
          Alcotest.test_case "first_excursion rejects bad horizons" `Quick
            test_excursion_rejects_horizon;
          Alcotest.test_case "first_excursion allocation flat" `Quick
            test_excursion_allocation;
          Alcotest.test_case "scan solver = recording solver (bits)" `Quick
            test_scan_differential;
          Alcotest.test_case "scan solver terminal event" `Quick
            test_scan_terminal;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "render labels true extent" `Quick
            test_render_header;
          Alcotest.test_case "resilience dense scan" `Quick test_resilience_scan;
          Alcotest.test_case "saddle: connected band (code 5)" `Quick
            test_saddle_band;
          Alcotest.test_case "saddle: separated lobes (code 5)" `Quick
            test_saddle_lobes;
        ] );
    ]
