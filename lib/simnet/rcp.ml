open Numerics

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  alpha : float;
  beta : float;
  interval : float;
  variant : Fluid.Rcp.variant;
  control_channel : Runner.control_channel option;
  on_setup : (Engine.t -> Switch.t -> unit) option;
}

let default_config ?(t_end = 0.02) ?(sample_dt = 1e-5) (p : Fluid.Params.t) =
  {
    params = p;
    t_end;
    sample_dt;
    initial_rate = 0.3 *. Fluid.Params.equilibrium_rate p;
    control_delay = 1e-6;
    alpha = Fluid.Rcp.default_alpha;
    beta = Fluid.Rcp.default_beta;
    interval = Fluid.Rcp.default_tau;
    variant = Fluid.Rcp.By_capacity;
    control_channel = None;
    on_setup = None;
  }

type result = {
  queue : Series.t;
  agg_rate : Series.t;
  advertised : Series.t;
  drops : int;
  delivered_bits : float;
  utilization : float;
  feedbacks : int;
  final_rates : float array;
  events_processed : int;
}

let run cfg =
  Model.check "Rcp.run" ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt
    ~interval:cfg.interval ();
  let p = cfg.params in
  let n = p.Fluid.Params.n_flows in
  let c = p.Fluid.Params.capacity in
  let e = Engine.create () in
  let pool = Packet.Pool.create () in
  let sw =
    Switch.create
      {
        (Switch.default_config p ~cpid:1) with
        Switch.enable_bcn = false;
        enable_pause = false;
        pool = Some pool;
      }
      ~control_out:(fun _e _pkt -> ())
  in
  let delivered = ref 0. in
  Switch.set_forward sw (fun _e pkt ->
      delivered := !delivered +. float_of_int pkt.Packet.bits;
      Packet.Pool.release pool pkt);
  (match cfg.on_setup with Some f -> f e sw | None -> ());
  let rates = Array.make n cfg.initial_rate in
  let advertised = ref cfg.initial_rate in
  let arrived_bits = ref 0. in
  let feedbacks = ref 0 in
  let seq = ref 0 in
  (* a rate frame is consumed (and recycled) wherever it terminates:
     at the source on delivery, or by the fault channel's drop path *)
  let deliver_fb _e (pkt : Packet.t) =
    (match pkt.Packet.kind with
    | Packet.Bcn { flow; fb; _ } -> rates.(flow) <- fb
    | Packet.Data _ | Packet.Pause _ -> ());
    Packet.Pool.release pool pkt
  in
  let drop_fb _e pkt = Packet.Pool.release pool pkt in
  let rec control_cycle e =
    (* the router knows its own (live) capacity; a flap therefore feeds
       straight into the advertised-rate law, as in the fluid model *)
    let live_c = Switch.capacity sw in
    let y = !arrived_bits /. cfg.interval in
    arrived_bits := 0.;
    let q = Switch.queue_bits sw in
    let corr =
      (cfg.alpha *. (live_c -. y)) -. (cfg.beta *. q /. cfg.interval)
    in
    let r = !advertised in
    let r' =
      match cfg.variant with
      | Fluid.Rcp.By_capacity -> r *. (1. +. (corr /. live_c))
      | Fluid.Rcp.By_load -> r +. (corr /. float_of_int n)
    in
    advertised := Float.max 1e3 (Float.min r' c);
    for i = 0 to n - 1 do
      let pkt =
        Packet.Pool.alloc_bcn pool ~seq:!seq ~now:(Engine.now e) ~flow:i
          ~fb:!advertised ~cpid:1
      in
      incr seq;
      incr feedbacks;
      match cfg.control_channel with
      | None ->
          Engine.schedule e ~delay:cfg.control_delay (fun e ->
              deliver_fb e pkt)
      | Some chan ->
          chan e pkt
            ~deliver:(fun e pkt ->
              Engine.schedule e ~delay:cfg.control_delay (fun e ->
                  deliver_fb e pkt))
            ~drop:drop_fb
    done;
    Engine.schedule e ~delay:cfg.interval control_cycle
  in
  Engine.schedule e ~delay:cfg.interval control_cycle;
  Model.pace e ~t_end:cfg.t_end rates (fun e i ->
      let pkt =
        Packet.Pool.alloc_data pool ~seq:!seq ~now:(Engine.now e) ~flow:i
          ~rrt:None
      in
      incr seq;
      (* y is measured at the ingress, drops included — the input
         traffic rate of the RCP law, not the accepted rate *)
      arrived_bits := !arrived_bits +. float_of_int pkt.Packet.bits;
      Switch.receive sw e pkt);
  let tr =
    Model.trace e ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt ~cols:3
      (fun _e row ->
        row.(0) <- Switch.queue_bits sw;
        row.(1) <- Array.fold_left ( +. ) 0. rates;
        row.(2) <- !advertised)
  in
  {
    queue = Model.series tr 0;
    agg_rate = Model.series tr 1;
    advertised = Model.series tr 2;
    drops = Fifo.drops (Switch.fifo sw);
    delivered_bits = !delivered;
    utilization = !delivered /. (c *. cfg.t_end);
    feedbacks = !feedbacks;
    final_rates = Array.copy rates;
    events_processed = Engine.events_processed e;
  }

let run_many ?jobs cfgs = Parallel.Pool.fan_out ?jobs ~what:"Rcp.run_many" run cfgs
