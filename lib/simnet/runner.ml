open Numerics

type control_channel = Model.control_channel

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  sampling : Switch.sampling;
  mode : Source.update_mode;
  positive_to_untagged : bool;
  broadcast_feedback : bool;
  enable_bcn : bool;
  enable_pause : bool;
  pause_resume : float;
  control_channel : control_channel option;
  on_setup : (Engine.t -> Switch.t -> unit) option;
  stop_on_verdict : bool;
}

let default_config ?(t_end = 0.02) ?(sample_dt = 1e-5) (p : Fluid.Params.t) =
  let fair = Fluid.Params.equilibrium_rate p in
  {
    params = p;
    t_end;
    sample_dt;
    initial_rate = Float.max p.Fluid.Params.mu (0.02 *. fair);
    control_delay = 1e-6;
    sampling = Switch.Deterministic;
    mode = Source.Zoh_fluid;
    positive_to_untagged = true;
    broadcast_feedback = false;
    enable_bcn = true;
    enable_pause = true;
    pause_resume = 0.9;
    control_channel = None;
    on_setup = None;
    stop_on_verdict = false;
  }

let with_seed cfg seed =
  { cfg with sampling = Switch.Bernoulli (Random.State.make [| seed |]) }

type result = {
  queue : Series.t;
  agg_rate : Series.t;
  flow_rates : Series.t array;
  latency : Histogram.t;
  queue_histogram : Histogram.t;
  drops : int;
  dropped_bits : float;
  delivered_bits : float;
  utilization : float;
  bcn_positive : int;
  bcn_negative : int;
  pause_on_events : int;
  sampled_frames : int;
  events_processed : int;
  final_rates : float array;
}

let run ?(probe = Telemetry.Probe.disabled) cfg =
  Model.check "Runner.run" ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt ();
  let p = cfg.params in
  let n = p.Fluid.Params.n_flows in
  let e = Engine.create ~probe () in
  (* every frame in this run cycles through one pool: sources draw data
     frames, the switch draws control frames, and whoever consumes a
     frame (sink, control dispatcher, tail drop) releases it *)
  let pool = Packet.Pool.create () in
  (* flat float accumulator: a [ref float] would box on every store *)
  let delivered = [| 0. |] in
  (* frame sojourn time through the switch; worst case ~ B/C plus service *)
  let latency =
    Histogram.create ~lo:0.
      ~hi:(2.2 *. p.Fluid.Params.buffer /. p.Fluid.Params.capacity)
      ~bins:120
  in
  let queue_histogram =
    Histogram.create ~lo:0. ~hi:p.Fluid.Params.buffer ~bins:100
  in
  (* the switch is created before the sources so control frames can be
     routed; sources are filled in just below *)
  let sources = Array.make n None in
  let dispatch_control e (pkt : Packet.t) =
    (match pkt.Packet.kind with
    | Packet.Bcn { flow; fb; cpid } ->
        if cfg.broadcast_feedback then
          Array.iter
            (function
              | Some src -> Source.handle_bcn src ~now:(Engine.now e) ~fb ~cpid
              | None -> ())
            sources
        else if flow >= 0 && flow < n then (
          (* flows >= n are uncontrolled cross traffic (Scenario
             workloads): they have no reaction point, so feedback
             addressed to them is consumed here *)
          match sources.(flow) with
          | Some src -> Source.handle_bcn src ~now:(Engine.now e) ~fb ~cpid
          | None -> ())
    | Packet.Pause { on } ->
        Array.iter
          (function Some src -> Source.set_paused src e on | None -> ())
          sources
    | Packet.Data _ -> ());
    Packet.Pool.release pool pkt
  in
  let sw_cfg =
    {
      (Switch.default_config p ~cpid:1) with
      Switch.sampling = cfg.sampling;
      positive_to_untagged = cfg.positive_to_untagged;
      enable_bcn = cfg.enable_bcn;
      enable_pause = cfg.enable_pause;
      pause_resume = cfg.pause_resume;
      pool = Some pool;
    }
  in
  (* the delivery leg every control frame takes once past the (optional)
     fault channel: the configured propagation delay, then dispatch *)
  let deliver e pkt =
    Engine.schedule e ~delay:cfg.control_delay (fun e ->
        dispatch_control e pkt)
  in
  let control_out =
    match cfg.control_channel with
    | None -> deliver
    | Some chan ->
        let drop _e pkt = Packet.Pool.release pool pkt in
        fun e pkt -> chan e pkt ~deliver ~drop
  in
  let sw = Switch.create sw_cfg ~control_out in
  (match cfg.on_setup with Some f -> f e sw | None -> ());
  Switch.set_forward sw (fun e pkt ->
      delivered.(0) <- delivered.(0) +. float_of_int pkt.Packet.bits;
      Histogram.add latency (Engine.now e -. Packet.born pkt);
      Packet.Pool.release pool pkt);
  Switch.start sw e;
  for i = 0 to n - 1 do
    let src =
      Source.create ~id:i ~initial_rate:cfg.initial_rate
        ~min_rate:(0.01 *. Fluid.Params.equilibrium_rate p)
        ~max_rate:p.Fluid.Params.capacity ~mode:cfg.mode
        ~hold_timeout:(50. *. Switch.fluid_sampling_period p)
        ~pool ~gi:p.Fluid.Params.gi ~gd:p.Fluid.Params.gd
        ~ru:p.Fluid.Params.ru
        ~send:(fun e pkt -> Switch.receive sw e pkt)
        ()
    in
    sources.(i) <- Some src;
    Source.start src e
  done;
  (* trace columns: queue, aggregate rate, then one per flow *)
  let record _e row =
    let q = Switch.queue_bits sw in
    row.(0) <- q;
    Histogram.add_weighted queue_histogram q cfg.sample_dt;
    row.(1) <- 0.;
    Array.iteri
      (fun i s ->
        let r = match s with Some src -> Source.rate src | None -> 0. in
        row.(2 + i) <- r;
        row.(1) <- row.(1) +. r)
      sources
  in
  (* overflow verdict: once the FIFO has dropped, the run's answer to
     "does this operating point overflow the buffer?" is decided — with
     [stop_on_verdict] the remaining horizon is skipped. The check rides
     the sampler, so the verdict resolution is one [sample_dt], and the
     trace up to the stop is byte-identical to the same prefix of a
     full-horizon run. *)
  let stop =
    if cfg.stop_on_verdict then
      Some (fun () -> Fifo.drops (Switch.fifo sw) > 0)
    else None
  in
  let tr =
    Model.trace ?stop e ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt
      ~cols:(n + 2) record
  in
  (* elapsed simulated time: equals [t_end] unless the verdict stop cut
     the run short (the engine clock then rests at the stop event) *)
  let t_run = if cfg.stop_on_verdict then Engine.now e else cfg.t_end in
  let st = Switch.stats sw in
  let q = Switch.fifo sw in
  if Telemetry.Probe.enabled probe then begin
    let mx = Telemetry.Probe.metrics probe in
    Telemetry.Probe.flush_event_counters probe;
    Telemetry.Metrics.add mx "runner.events_processed"
      (Engine.events_processed e);
    Telemetry.Metrics.add mx "runner.frames_sampled" st.Switch.sampled;
    Telemetry.Metrics.add mx "runner.drops" (Fifo.drops q);
    Telemetry.Metrics.set_gauge mx "runner.delivered_bits" delivered.(0);
    Telemetry.Metrics.set_gauge mx "runner.dropped_bits" (Fifo.dropped_bits q);
    Telemetry.Metrics.set_gauge mx "runner.utilization"
      (delivered.(0) /. (p.Fluid.Params.capacity *. t_run));
    Telemetry.Metrics.add_histogram mx "runner.latency_s" latency;
    Telemetry.Metrics.add_histogram mx "runner.queue_bits" queue_histogram
  end;
  {
    queue = Model.series tr 0;
    agg_rate = Model.series tr 1;
    flow_rates = Array.init n (fun i -> Model.series tr (2 + i));
    latency;
    queue_histogram;
    drops = Fifo.drops q;
    dropped_bits = Fifo.dropped_bits q;
    delivered_bits = delivered.(0);
    utilization = delivered.(0) /. (p.Fluid.Params.capacity *. t_run);
    bcn_positive = st.Switch.bcn_positive;
    bcn_negative = st.Switch.bcn_negative;
    pause_on_events = st.Switch.pause_on;
    sampled_frames = st.Switch.sampled;
    events_processed = Engine.events_processed e;
    final_rates =
      Array.map
        (function Some src -> Source.rate src | None -> 0.)
        sources;
  }

(* each run owns its engine, pool and RNG state *)
let run_many ?jobs cfgs =
  Parallel.Pool.fan_out ?jobs ~what:"Runner.run_many" (fun c -> run c) cfgs

let replicate ?jobs ~seeds cfg =
  run_many ?jobs (Array.map (with_seed cfg) seeds)

(* Instrumented fan-out: each replica gets its own counting probe
   (capacity 0: per-kind event counters + metrics, no ring), created
   inside the task so no probe state crosses domains. map_array returns
   in input order, so folding the registries left-to-right merges them
   in seed order — the combined snapshot is byte-identical for any
   [jobs] value. *)
let replicate_instrumented ?jobs ~seeds cfg =
  let cfgs = Array.map (with_seed cfg) seeds in
  let task c =
    let probe = Telemetry.Probe.create ~capacity:0 () in
    let r = run ~probe c in
    (r, Telemetry.Probe.metrics probe)
  in
  let pairs =
    Parallel.Pool.fan_out ?jobs ~what:"Runner.replicate_instrumented" task cfgs
  in
  let merged = Telemetry.Metrics.create () in
  Array.iter (fun (_, m) -> Telemetry.Metrics.merge_into ~into:merged m) pairs;
  (Array.map fst pairs, merged)

let fairness rates =
  let n = Array.length rates in
  if n = 0 then invalid_arg "Runner.fairness: empty";
  let s = Array.fold_left ( +. ) 0. rates in
  let s2 = Array.fold_left (fun acc r -> acc +. (r *. r)) 0. rates in
  if s2 = 0. then 1. else s *. s /. (float_of_int n *. s2)
