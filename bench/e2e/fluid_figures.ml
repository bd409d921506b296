(* fluid_figures: full figure rebuilds plus two adaptive boundary
   traces. Numerics, phaseplane, fluid and refine do the work; the
   packet engine appears only in v1/p1/w1/m1, and the store is not
   used. One operation is a whole pass: every figure, then both traces. *)

module F = Dcecc_core.Figures

let figures : (string * (?out:string -> unit -> string)) list =
  [
    ("fig3_taxonomy", F.fig3_taxonomy);
    ("fig4_spiral", F.fig4_spiral);
    ("fig5_node", F.fig5_node);
    ("fig6_case1", F.fig6_case1);
    ("fig7_limit_cycle", F.fig7_limit_cycle);
    ("fig8_case2", F.fig8_case2);
    ("fig9_case3", F.fig9_case3);
    ("fig10_case4", F.fig10_case4);
    ("t1_criterion", F.t1_criterion);
    ("v1_fluid_vs_packet", F.v1_fluid_vs_packet);
    ("v2_linear_vs_strong", F.v2_linear_vs_strong);
    ("a1_transient_sampling", F.a1_transient_sampling);
    ("a2_delay_margin", F.a2_delay_margin);
    ("a3_solver_ablation", F.a3_solver_ablation);
    ("p1_paradigms", F.p1_paradigms);
    ("p2_aimd_fairness", F.p2_aimd_fairness);
    ("w1_cross_traffic", F.w1_cross_traffic);
    ("b1_safe_region", F.b1_safe_region);
    ("m1_multihop", F.m1_multihop);
  ]

type st = {
  out : string;  (** CSV directory *)
  safe : Fluid.Params.t;  (** the safe-region trace's parameter point *)
  gains : Refine.Engine.domain;  (** the (a, b) plane the gain trace covers *)
  reference : string * string;  (** the set-up pass's figures and traces *)
  mutable pass_s : float list;
  mutable evals : int;
  mutable trace_s : float;
}

(* The traces, with the verdict backend wrapped in a span when tracing
   (the same [Engine.refine] call [Safe_plane.trace] and
   [Param_plane.trace] make). A gain-plane verdict is a full stability
   analysis, about 1.3 ms, so that plane is traced one level deep. *)
let refine ~levels dom verdicts =
  let backend pts = Span.with_ "refine.verdict" (fun () -> verdicts pts) in
  Span.with_ "refine.engine" (fun () -> Refine.Engine.refine ~levels dom backend)

let traces st =
  let base = Fluid.Params.default in
  [
    ( "safe_trace",
      fun () ->
        refine ~levels:3 (Refine.Safe_plane.domain st.safe)
          (Refine.Safe_plane.verdicts st.safe) );
    ( "gain_trace",
      fun () ->
        refine ~levels:1 st.gains
          (Refine.Param_plane.verdicts (Refine.Param_plane.gains base)) );
  ]

(* One pass: the figures' text, the traces' segment tables, and the
   figures' share of the time (one [Figures.all ~jobs:1] worth). *)
let pass st =
  let figs, fig_s =
    Span.timed (fun () ->
        List.map
          (fun (id, gen) ->
            Printf.sprintf "## %s\n%s\n" id
              (Span.with_ "core.figures" (fun () -> gen ?out:(Some st.out) ())))
          figures)
  in
  let trs =
    List.map
      (fun (id, tr) ->
        let t, dt = Span.timed tr in
        st.evals <- st.evals + t.Refine.Engine.evaluations;
        st.trace_s <- st.trace_s +. dt;
        Printf.sprintf "## %s\n%s\n" id (Refine.Engine.segments_csv t))
      (traces st)
  in
  (String.concat "" figs, String.concat "" trs, fig_s)

let setup (cfg : Harness.cfg) =
  let out = Harness.fresh_dir cfg "csv" in
  Harness.mkdir_p out;
  let rng = Random.State.make [| cfg.seed |] in
  let jitter () = 0.8 +. Random.State.float rng 0.4 in
  let p = Fluid.Params.default in
  let a = Fluid.Params.a p and b = Fluid.Params.b p in
  let st =
    {
      out;
      safe = Fluid.Params.with_buffer p (p.Fluid.Params.buffer *. jitter ());
      gains =
        (let c = jitter () in
         { Refine.Engine.x0 = 0.25 *. a *. c; x1 = 8. *. a *. c; y0 = 0.25 *. b; y1 = 8. *. b });
      reference = ("", "");
      pass_s = [];
      evals = 0;
      trace_s = 0.;
    }
  in
  let figs, trs, _ = pass st in
  { st with reference = (figs, trs); evals = 0; trace_s = 0. }

(* One operation is one pass; its output must equal the set-up pass's. *)
let measure st (ph : Harness.phase) ~deadline =
  let first = ref true in
  while !first || Span.now () < deadline do
    first := false;
    let t0 = Span.now () in
    let figs, trs, fig_s = Span.op "op" (fun () -> pass st) in
    let dt = Span.now () -. t0 in
    ph.lat <- dt :: ph.lat;
    ph.wall <- ph.wall +. dt;
    if not !Span.enabled then st.pass_s <- fig_s :: st.pass_s;
    Harness.count ph ~ok:((figs, trs) = st.reference)
  done

(* The figures' text does not depend on the seed, so its hash is fixed. *)
let finish st (_ : Harness.phase) =
  {
    Harness.correct = Golden.check "fluid_figures" (fst st.reference);
    child_rss_kb = 0;
    details =
      [
        ("rebuild_s", Harness.median st.pass_s, "s");
        ( "region_evals_per_s",
          (if st.trace_s > 0. then float_of_int st.evals /. st.trace_s else 0.),
          "evals/s" );
      ];
    layers = [];
  }

let workload = Harness.W { setup; discard = ignore; measure; finish }
