(* bcn_faults — strong-stability resilience margins under injected faults.

   Examples:
     bcn_faults sweep                         # Case 1-3 x all axes
     bcn_faults sweep --axes bcn-loss --iters 10 --csv margins.csv
     bcn_faults sweep --jobs 4 --json margins.json
     bcn_faults smoke                         # CI: overhead + exactness

   The margin table is deterministic: byte-identical CSV/JSON for any
   --jobs value, and reproducible from the --seed alone. *)

open Cmdliner

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* ---------- sweep ---------- *)

(* axis vocabulary shared with the daemon's margin requests *)
let axis_of_name = Serve.Tasks.axis_of_name

let split_commas s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let resilience_memo store_spec cache =
  Option.map
    (fun c ->
      let m = Store.Sweep.resilience_memo c in
      if store_spec.Cli_common.no_cache then
        (* recompute every probe but still refresh the stored entries *)
        { m with Faultnet.Resilience.lookup = (fun _ -> None) }
      else m)
    cache

(* --set NAME=VALUE: one entry of the shared parameter-axis registry,
   resolved eagerly so typos fail before any simulation runs *)
let parse_override s =
  match String.index_opt s '=' with
  | None -> invalid_arg (Printf.sprintf "--set %s: expected NAME=VALUE" s)
  | Some i ->
      let name = String.trim (String.sub s 0 i) in
      let raw = String.sub s (i + 1) (String.length s - i - 1) in
      let v =
        try float_of_string (String.trim raw)
        with _ ->
          invalid_arg (Printf.sprintf "--set %s: %s is not a number" name raw)
      in
      ignore (Serve.Tasks.find_param name);
      (name, v)

let apply_overrides overrides (sc : Faultnet.Resilience.scenario) =
  let scen =
    List.fold_left
      (fun scen (name, v) ->
        match (Serve.Tasks.find_param name).Serve.Tasks.target with
        | Serve.Tasks.Fluid_param _ ->
            Serve.Tasks.apply_scenario_param scen name v
        | Serve.Tasks.Model_param _ -> (
            (* a model knob lands only on the cases running that model;
               the other rows keep their stock settings, mirroring how
               unsupported fault axes are dropped per row *)
            try Serve.Tasks.apply_scenario_param scen name v
            with Invalid_argument _ -> scen))
      sc.Faultnet.Resilience.scen overrides
  in
  (* re-validate through the front door rather than patching the record *)
  Faultnet.Resilience.of_scenario
    ~transient:sc.Faultnet.Resilience.transient
    ~underflow_frac:sc.Faultnet.Resilience.underflow_frac
    ~label:sc.Faultnet.Resilience.label scen

let sweep_run axes_str flap_period flap_duty t_end transient iters seed jobs
    adaptive dense scan_n protocols set_strs csv json store_spec =
  if adaptive && dense then
    invalid_arg "--adaptive and --dense are mutually exclusive";
  let axes =
    List.map (axis_of_name ~flap_period ~flap_duty) (split_commas axes_str)
  in
  if axes = [] then invalid_arg "--axes must name at least one axis";
  let overrides = List.map parse_override set_strs in
  let cache = Cli_common.open_store store_spec in
  let memo = resilience_memo store_spec cache in
  let scenarios =
    if protocols then Faultnet.Resilience.protocol_cases ~t_end ?transient ()
    else Faultnet.Resilience.paper_cases ~t_end ?transient ()
  in
  let scenarios =
    if overrides = [] then scenarios
    else List.map (apply_overrides overrides) scenarios
  in
  (* With --protocols, an axis a model cannot physically express (e.g.
     capacity flaps on switch-less E2CM/FERA) is dropped for that row —
     the generic [supports] predicate decides, not per-protocol code. *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun sc ->
           List.map
             (fun ax -> (sc, ax))
             (if protocols then
                List.filter (Faultnet.Resilience.supports sc) axes
              else axes))
         scenarios)
  in
  let margins =
    if dense then
      (* the baseline bisection replaces: walk every severity step *)
      Array.map
        (fun (sc, ax) -> Faultnet.Resilience.scan ~n:scan_n ?memo ~seed sc ax)
        cells
    else Faultnet.Resilience.sweep_cells ?jobs ?iters ?memo ~seed cells
  in
  Report.Table.print
    ~headers:[ "scenario"; "axis"; "margin"; "ceiling"; "violation"; "runs" ]
    ~rows:
      (Array.to_list
         (Array.map
            (fun (m : Faultnet.Resilience.margin) ->
              [
                m.scenario;
                m.axis;
                Printf.sprintf "%.4f" m.margin;
                Printf.sprintf "%.4f" m.ceiling;
                (match m.violation with
                | Some v -> Faultnet.Resilience.violation_name v
                | None -> "none");
                string_of_int m.evaluations;
              ])
            margins));
  (match csv with
  | Some path ->
      with_out path (fun oc ->
          output_string oc (Faultnet.Resilience.to_csv margins));
      Printf.printf "wrote %s\n" path
  | None -> ());
  (match json with
  | Some path ->
      with_out path (fun oc ->
          output_string oc (Faultnet.Resilience.to_json margins));
      Printf.printf "wrote %s\n" path
  | None -> ());
  Cli_common.report_store store_spec cache;
  0

(* ---------- plane ---------- *)

let plane_run axis_x axis_y flap_period flap_duty t_end transient seed jobs
    coarse levels edge_iters dense csv store_spec =
  let ax = axis_of_name ~flap_period ~flap_duty axis_x in
  let ay = axis_of_name ~flap_period ~flap_duty axis_y in
  let cache = Cli_common.open_store store_spec in
  let memo = resilience_memo store_spec cache in
  let sc = List.hd (Faultnet.Resilience.paper_cases ~t_end ?transient ()) in
  let t =
    Refine.Fault_plane.trace ?memo ?jobs ~coarse:(coarse, coarse) ~levels
      ~edge_iters ~seed sc ax ay
  in
  print_string (Refine.Engine.render t);
  Printf.printf
    "%s x %s plane (%s): %d boundary cells, %d segments, %d probe runs\n"
    (Faultnet.Resilience.axis_name ax)
    (Faultnet.Resilience.axis_name ay)
    sc.Faultnet.Resilience.label
    (Array.length t.Refine.Engine.boundary_cells)
    (Array.length t.Refine.Engine.segments)
    t.Refine.Engine.evaluations;
  if dense then begin
    let n = coarse * (1 lsl levels) in
    let s0 = Faultnet.Resilience.run_summary ?memo sc None in
    let cells, evals =
      Refine.Engine.dense_mixed_cells t.Refine.Engine.dom ~nx:n ~ny:n
        (Refine.Fault_plane.verdicts ?memo ?jobs ~seed
           ~baseline_utilization:s0.Faultnet.Resilience.utilization sc ax ay)
    in
    Printf.printf
      "dense %dx%d lattice: %d mixed cells, %d probe runs (adaptive %.1fx \
       fewer)\n"
      n n (Array.length cells) evals
      (float_of_int evals /. float_of_int (max 1 t.Refine.Engine.evaluations))
  end;
  (match csv with
  | Some path ->
      with_out path (fun oc -> output_string oc (Refine.Engine.segments_csv t));
      Printf.printf "wrote %s\n" path
  | None -> ());
  Cli_common.report_store store_spec cache;
  0

(* ---------- smoke (CI) ---------- *)

(* A single feeder paces pool-allocated frames through a BCN-enabled
   switch whose control output (optionally) runs through an injector
   channel into a releasing sink. Mirrors test_simnet's forwarding
   allocation test, plus the interposition layer; returns minor words
   per data frame after warmup. The switch's own BCN emission costs ~2
   words per control frame (a boxed-float store, which predates the
   injector), so the injector's cost is asserted as the {e difference}
   between the wrapped and bare measurements of the same scenario. *)
let injected_forwarding_words ~plan ~frames () =
  let params = Fluid.Params.with_buffer Fluid.Params.default 15e6 in
  let pool = Simnet.Packet.Pool.create () in
  let e = Simnet.Engine.create () in
  let cfg =
    {
      (Simnet.Switch.default_config params ~cpid:1) with
      Simnet.Switch.enable_pause = false;
      pool = Some pool;
    }
  in
  let release _e pkt = Simnet.Packet.Pool.release pool pkt in
  let inj = Option.map Faultnet.Injector.create plan in
  let control_out =
    match inj with
    | None -> release
    | Some inj ->
        let chan = Faultnet.Injector.channel inj in
        fun e pkt -> chan e pkt ~deliver:release ~drop:release
  in
  let sw = Simnet.Switch.create cfg ~control_out in
  Simnet.Switch.set_forward sw release;
  let gap =
    1.05 *. float_of_int Simnet.Packet.data_frame_bits
    /. cfg.Simnet.Switch.capacity
  in
  let seq = ref 0 in
  let rec feed e =
    let pkt =
      Simnet.Packet.Pool.alloc_data pool ~seq:!seq ~now:(Simnet.Engine.now e)
        ~flow:0 ~rrt:None
    in
    incr seq;
    Simnet.Switch.receive sw e pkt;
    Simnet.Engine.schedule e ~delay:gap feed
  in
  Simnet.Engine.schedule e ~delay:0. feed;
  let warm = 2048 in
  Simnet.Engine.run ~until:(float_of_int warm *. gap) e;
  let n0 = !seq in
  let w0 = Gc.minor_words () in
  Simnet.Engine.run ~until:(float_of_int (warm + frames) *. gap) e;
  let dw = Gc.minor_words () -. w0 in
  (dw /. float_of_int (!seq - n0), inj)

let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FAIL: %s\n" s; exit 1) fmt

let smoke_run () =
  (* 1. Zero overhead: relative to the bare switch, an installed
     injector must add ~0 minor words per frame — whether the plan is
     empty or a pure loss plan (classification + RNG draw, no
     allocation on either path). *)
  let words_bare, _ = injected_forwarding_words ~plan:None ~frames:20_000 () in
  let words_none, _ =
    injected_forwarding_words ~plan:(Some Faultnet.Plan.none) ~frames:20_000 ()
  in
  Printf.printf
    "forwarding: bare %.4f, + empty-plan injector %.4f minor words/frame\n"
    words_bare words_none;
  if words_none -. words_bare > 0.01 then
    fail "empty-plan injector adds %.4f words/frame (expected ~0)"
      (words_none -. words_bare);
  let loss_plan =
    Faultnet.Plan.with_bcn_loss
      ~pos:(Faultnet.Plan.Bernoulli 0.5)
      ~neg:(Faultnet.Plan.Bernoulli 0.5)
      (Faultnet.Plan.with_seed Faultnet.Plan.none 7)
  in
  let words_loss, inj_fwd =
    injected_forwarding_words ~plan:(Some loss_plan) ~frames:20_000 ()
  in
  Printf.printf "forwarding: + loss-plan injector %.4f minor words/frame\n"
    words_loss;
  (* A loss decision is one [Random.State] draw per control frame, and
     the OCaml 5 generator boxes an int64 per draw: 2 words per control
     frame = 0.02 words per data frame at pm = 0.01. Budget 0.05 so the
     assertion catches a real regression (a closure or tuple on the
     path) without flagging the generator itself. *)
  if words_loss -. words_bare > 0.05 then
    fail "loss-plan injector adds %.4f words/frame (budget 0.05)"
      (words_loss -. words_bare);
  (match inj_fwd with
  | Some inj when Faultnet.Injector.dropped_total inj > 0 -> ()
  | _ -> fail "loss-plan forwarding run dropped nothing; smoke lost coverage");
  (* 2. Empty-plan transparency: attaching a no-fault injector must not
     perturb the run at all — byte-identical results. *)
  let params =
    Fluid.Params.make ~n_flows:16 ~capacity:10e9 ~q0:2.5e6 ~buffer:15e6
      ~gi:4. ~gd:(1. /. 128.) ~ru:8e6 ()
  in
  let cfg =
    {
      (Simnet.Runner.default_config ~t_end:2e-3 params) with
      Simnet.Runner.initial_rate = 10e9;
    }
  in
  let bare = Simnet.Runner.run cfg in
  let inj0 = Faultnet.Injector.create Faultnet.Plan.none in
  let thru = Simnet.Runner.run (Faultnet.Injector.attach inj0 cfg) in
  if Marshal.to_string bare [] <> Marshal.to_string thru [] then
    fail "empty-plan injector perturbed the run";
  Printf.printf
    "empty-plan transparency ok (%d events, %d control frames seen)\n"
    thru.Simnet.Runner.events_processed
    (Faultnet.Injector.delivered_total inj0);
  (* 3. Exactness: under a seeded loss plan, the injector's counters,
     the flight recorder's fault events and the runner's own emission
     statistics must agree exactly. *)
  let plan =
    Faultnet.Plan.with_pause_loss
      (Faultnet.Plan.with_bcn_loss
         ~pos:(Faultnet.Plan.Bernoulli 0.3)
         ~neg:
           (Faultnet.Plan.Burst
              { p_enter = 0.2; p_exit = 0.5; p_drop = 0.9 })
         (Faultnet.Plan.with_seed Faultnet.Plan.none 42))
      (Faultnet.Plan.Bernoulli 0.5)
  in
  let inj = Faultnet.Injector.create plan in
  let probe = Telemetry.Probe.create ~capacity:(1 lsl 20) () in
  let r = Simnet.Runner.run ~probe (Faultnet.Injector.attach inj cfg) in
  let rec_ = Telemetry.Probe.recorder probe in
  if Telemetry.Recorder.overwritten rec_ > 0 then
    fail "flight recorder overflowed; counts below would be inexact";
  let expect name got want =
    if got <> want then fail "%s: %d <> %d" name got want
  in
  expect "seen BCN+ = emitted BCN+"
    (Faultnet.Injector.seen inj Faultnet.Plan.Bcn_positive)
    r.Simnet.Runner.bcn_positive;
  expect "seen BCN- = emitted BCN-"
    (Faultnet.Injector.seen inj Faultnet.Plan.Bcn_negative)
    r.Simnet.Runner.bcn_negative;
  expect "seen PAUSE = recorded PAUSE on+off"
    (Faultnet.Injector.seen inj Faultnet.Plan.Pause)
    (Telemetry.Recorder.count rec_ Telemetry.Event.Pause_on
    + Telemetry.Recorder.count rec_ Telemetry.Event.Pause_off);
  expect "recorded Fault_drop = injector drops"
    (Telemetry.Recorder.count rec_ Telemetry.Event.Fault_drop)
    (Faultnet.Injector.dropped_total inj);
  if Faultnet.Injector.dropped_total inj = 0 then
    fail "loss plan dropped nothing; smoke lost coverage";
  Printf.printf
    "exactness ok (%d control frames seen, %d dropped, %d Fault_drop events)\n"
    (Faultnet.Injector.delivered_total inj
    + Faultnet.Injector.dropped_total inj)
    (Faultnet.Injector.dropped_total inj)
    (Telemetry.Recorder.count rec_ Telemetry.Event.Fault_drop);
  (* 4. Determinism: a reduced margin sweep must be byte-identical for
     jobs = 1 and jobs = 4 and reproducible from the seed alone. *)
  let scenarios = [ List.hd (Faultnet.Resilience.paper_cases ()) ] in
  let axes = [ Faultnet.Resilience.Bcn_loss ] in
  let m1 =
    Faultnet.Resilience.sweep ~jobs:1 ~iters:3 ~seed:11 scenarios axes
  in
  let m4 =
    Faultnet.Resilience.sweep ~jobs:4 ~iters:3 ~seed:11 scenarios axes
  in
  if Faultnet.Resilience.to_csv m1 <> Faultnet.Resilience.to_csv m4 then
    fail "margin sweep differs between --jobs 1 and --jobs 4";
  let m1' =
    Faultnet.Resilience.sweep ~jobs:1 ~iters:3 ~seed:11 scenarios axes
  in
  if Faultnet.Resilience.to_csv m1 <> Faultnet.Resilience.to_csv m1' then
    fail "margin sweep not reproducible from its seed";
  Printf.printf "determinism ok (margin %.4f, jobs 1 = jobs 4)\n"
    m1.(0).Faultnet.Resilience.margin;
  Printf.printf "faults smoke ok\n";
  0

(* ---------- store smoke (CI) ---------- *)

(* End-to-end check of the content-addressed result store, in a
   throwaway directory:
     1. a cold scenario sweep persists every point; the warm rerun
        executes zero simulations and is byte-identical, for any jobs;
     2. resilience margins probe through the store: the warm sweep's
        misses are zero and its CSV is byte-identical to the cold one;
     3. a corrupted entry is detected on read, evicted, recomputed and
        healed — never served. *)
let store_smoke_run () =
  let dir = Filename.temp_dir "dcecc-store-smoke" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let cache = Store.Cache.open_ ~dir in
      (* 1. cold vs warm scenario sweep *)
      let params = Fluid.Params.with_buffer Fluid.Params.default 15e6 in
      let scenarios =
        Array.init 3 (fun i ->
            Simnet.Scenario.bcn ~t_end:2e-3
              (Fluid.Params.with_gains ~gi:(2. +. float_of_int i) params))
      in
      let cold = Store.Sweep.sweep ~cache ~jobs:2 scenarios in
      let s = Store.Cache.stats cache in
      if s.Store.Cache.puts <> Array.length scenarios then
        fail "cold sweep stored %d points (expected %d)" s.Store.Cache.puts
          (Array.length scenarios);
      Store.Cache.reset_stats cache;
      let warm = Store.Sweep.sweep ~cache ~jobs:1 scenarios in
      let s = Store.Cache.stats cache in
      if s.Store.Cache.misses <> 0 || s.Store.Cache.puts <> 0 then
        fail "warm sweep simulated (%d misses, %d puts; expected 0)"
          s.Store.Cache.misses s.Store.Cache.puts;
      if Marshal.to_string cold [] <> Marshal.to_string warm [] then
        fail "warm sweep results differ from cold";
      let warm4 = Store.Sweep.sweep ~cache ~jobs:4 scenarios in
      if Marshal.to_string warm [] <> Marshal.to_string warm4 [] then
        fail "warm sweep differs between --jobs 1 and --jobs 4";
      Printf.printf
        "scenario sweep ok (cold stored %d points; warm: 0 simulations, \
         byte-identical at jobs 1 and 4)\n"
        (Array.length scenarios);
      (* 2. resilience margins memoized through the store *)
      let memo = Store.Sweep.resilience_memo cache in
      let cases = [ List.hd (Faultnet.Resilience.paper_cases ()) ] in
      let axes = [ Faultnet.Resilience.Bcn_loss ] in
      let margins () =
        Faultnet.Resilience.to_csv
          (Faultnet.Resilience.sweep ~jobs:1 ~iters:3 ~seed:11 ~memo cases axes)
      in
      Store.Cache.reset_stats cache;
      let cold_csv = margins () in
      let s = Store.Cache.stats cache in
      if s.Store.Cache.puts = 0 then fail "cold margin sweep stored nothing";
      Store.Cache.reset_stats cache;
      let warm_csv = margins () in
      let s = Store.Cache.stats cache in
      if s.Store.Cache.misses <> 0 then
        fail "warm margin sweep simulated (%d misses)" s.Store.Cache.misses;
      if cold_csv <> warm_csv then
        fail "warm margin table differs from cold";
      Printf.printf "resilience memo ok (warm margins: 0 misses, CSV \
                     byte-identical)\n";
      (* 3. corruption is detected, evicted and recomputed *)
      let hex = Store.Key.to_hex (Store.Key.of_scenario scenarios.(0)) in
      let path =
        List.fold_left Filename.concat dir
          [ "objects"; String.sub hex 0 2; hex ]
      in
      let bytes =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let corrupted = Bytes.of_string bytes in
      let last = Bytes.length corrupted - 1 in
      Bytes.set corrupted last (Char.chr (Char.code (Bytes.get corrupted last) lxor 1));
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_bytes oc corrupted);
      Store.Cache.reset_stats cache;
      let healed = Store.Sweep.sweep ~cache ~jobs:1 scenarios in
      let s = Store.Cache.stats cache in
      if s.Store.Cache.evictions <> 1 then
        fail "corrupted entry: %d evictions (expected 1)"
          s.Store.Cache.evictions;
      if s.Store.Cache.misses <> 1 || s.Store.Cache.puts <> 1 then
        fail "corrupted entry: %d misses, %d puts (expected 1, 1)"
          s.Store.Cache.misses s.Store.Cache.puts;
      if Marshal.to_string healed [] <> Marshal.to_string warm [] then
        fail "recomputed results differ after corruption";
      Printf.printf
        "corruption ok (entry evicted, recomputed, byte-identical)\n";
      Printf.printf "store smoke ok\n";
      0)

(* ---------- commands ---------- *)

let sweep_cmd =
  let axes =
    Arg.(value & opt string "bcn-loss,pause-loss,flap-depth"
         & info [ "axes" ] ~docv:"LIST"
             ~doc:("Comma-separated severity axes: " ^ Serve.Tasks.axis_names
                 ^ "."))
  in
  let protocols =
    Arg.(value & flag
         & info [ "protocols" ]
             ~doc:"Sweep one case per congestion-control protocol (bcn, \
                   e2cm, fera, rcp) on the default parameter point instead \
                   of the paper's Case 1-3, under identical fault plans; \
                   axes a model cannot physically express are dropped for \
                   that row.")
  in
  let flap_period =
    Arg.(value & opt float 2e-3
         & info [ "flap-period" ] ~docv:"S" ~doc:"Flap period, seconds.")
  in
  let flap_duty =
    Arg.(value & opt float 0.5
         & info [ "flap-duty" ] ~docv:"F"
             ~doc:"Fraction of each period spent at dipped capacity.")
  in
  let t_end = Cli_common.t_end_term () in
  let transient =
    Arg.(value & opt (some float) None
         & info [ "transient" ] ~docv:"S"
             ~doc:"Head of the run excluded from the queue-bound check \
                   (default: t-end / 2).")
  in
  let iters =
    Arg.(value & opt (some int) None
         & info [ "iters" ] ~docv:"N"
             ~doc:"Bisection refinement steps per cell (default 8).")
  in
  let seed = Cli_common.seed_term ~doc:"Injector RNG seed." in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE.csv" ~doc:"Write the margin table as CSV.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE.json"
             ~doc:"Write the margin table as JSON.")
  in
  let adaptive =
    Arg.(value & flag
         & info [ "adaptive" ]
             ~doc:"Bracketed bisection per cell (the default; stated \
                   explicitly for symmetry with --dense).")
  in
  let dense =
    Arg.(value & flag
         & info [ "dense" ]
             ~doc:"Dense severity scan per cell instead of bisection: walk \
                   --scan-n uniform steps and stop at the first violation \
                   (the baseline bisection replaces).")
  in
  let scan_n =
    Arg.(value & opt Cli_common.pos_int 256
         & info [ "scan-n" ] ~docv:"N"
             ~doc:"With --dense: severity steps per axis (resolution \
                   max_severity / N).")
  in
  let set_ =
    Arg.(value & opt_all string []
         & info [ "set" ] ~docv:"NAME=VALUE"
             ~doc:("Override one parameter axis on every case before \
                    probing (repeatable). NAME is any entry of the shared \
                    registry: " ^ Serve.Tasks.param_names
                  ^ ". Model-specific knobs (rcp-*) land only on the \
                     cases running that model; e.g. --protocols --set \
                     rcp-beta=0 reproduces the queue-term ablation."))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Bisect strong-stability margins for the paper's Case 1-3 \
             points across fault-severity axes.")
    Term.(
      const sweep_run $ axes $ flap_period $ flap_duty $ t_end $ transient
      $ iters $ seed $ Cli_common.jobs_term $ adaptive $ dense $ scan_n
      $ protocols $ set_ $ csv $ json $ Cli_common.store_term)

let plane_cmd =
  let axis name default doc =
    Arg.(value & opt string default & info [ name ] ~docv:"AXIS" ~doc)
  in
  let axis_x = axis "axis-x" "bcn-loss" "Horizontal severity axis." in
  let axis_y = axis "axis-y" "pause-loss" "Vertical severity axis." in
  let flap_period =
    Arg.(value & opt float 2e-3
         & info [ "flap-period" ] ~docv:"S" ~doc:"Flap period, seconds.")
  in
  let flap_duty =
    Arg.(value & opt float 0.5
         & info [ "flap-duty" ] ~docv:"F"
             ~doc:"Fraction of each period spent at dipped capacity.")
  in
  let t_end = Cli_common.t_end_term () in
  let transient =
    Arg.(value & opt (some float) None
         & info [ "transient" ] ~docv:"S"
             ~doc:"Head of the run excluded from the queue-bound check \
                   (default: t-end / 2).")
  in
  let seed = Cli_common.seed_term ~doc:"Injector RNG seed." in
  let coarse =
    Arg.(value & opt Cli_common.pos_int 4
         & info [ "coarse" ] ~docv:"N" ~doc:"Coarse seeding grid (N x N).")
  in
  let levels =
    Arg.(value & opt Cli_common.pos_int 3
         & info [ "levels" ] ~docv:"L"
             ~doc:"Subdivision levels (fine lattice = coarse * 2^L).")
  in
  let edge_iters =
    Arg.(value & opt Cli_common.pos_int 3
         & info [ "edge-iters" ] ~docv:"K"
             ~doc:"Bisection rounds per crossing edge (sub-cell boundary).")
  in
  let dense =
    Arg.(value & flag
         & info [ "dense" ]
             ~doc:"Also evaluate the dense corner lattice at the matching \
                   resolution and print the savings ratio (every lattice \
                   point is a packet run — expensive).")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE.csv"
             ~doc:"Write the traced boundary polyline as CSV.")
  in
  Cmd.v
    (Cmd.info "plane"
       ~doc:"Adaptively trace the survive/violate frontier in a 2-D \
             fault-severity plane (two axes composed onto one plan, one \
             packet run per probed cell).")
    Term.(
      const plane_run $ axis_x $ axis_y $ flap_period $ flap_duty $ t_end
      $ transient $ seed $ Cli_common.jobs_term $ coarse $ levels $ edge_iters
      $ dense $ csv $ Cli_common.store_term)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:"CI check: an installed no-fault injector costs ~0 minor \
             words/frame and perturbs nothing; under a seeded loss plan \
             the injector's counters, the flight recorder and the \
             runner's statistics agree exactly; the margin sweep is \
             jobs-independent and seed-reproducible.")
    Term.(const smoke_run $ const ())

let store_smoke_cmd =
  Cmd.v
    (Cmd.info "store-smoke"
       ~doc:"CI check of the content-addressed result store: a warm \
             sweep executes zero simulations and is byte-identical to \
             the cold one for any --jobs; resilience margins memoize \
             through it; a corrupted entry is detected, evicted and \
             recomputed.")
    Term.(const store_smoke_run $ const ())

let cmd =
  Cmd.group
    (Cmd.info "bcn_faults"
       ~doc:"Deterministic fault injection: resilience margins of BCN \
             strong stability.")
    [ sweep_cmd; plane_cmd; smoke_cmd; store_smoke_cmd ]

let () = exit (Cmd.eval' cmd)
