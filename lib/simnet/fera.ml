open Numerics

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  interval : float;
  target_util : float;
  control_channel : Runner.control_channel option;
}

let default_config ?(t_end = 0.02) ?(sample_dt = 1e-5) (p : Fluid.Params.t) =
  {
    params = p;
    t_end;
    sample_dt;
    initial_rate = 0.3 *. Fluid.Params.equilibrium_rate p;
    control_delay = 1e-6;
    interval =
      100. *. float_of_int Packet.data_frame_bits /. p.Fluid.Params.capacity;
    target_util = 0.95;
    control_channel = None;
  }

type result = {
  queue : Series.t;
  agg_rate : Series.t;
  drops : int;
  delivered_bits : float;
  utilization : float;
  advertisements : int;
  final_rates : float array;
  convergence_time : float option;
}

let run cfg =
  Model.check "Fera.run" ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt
    ~interval:cfg.interval ();
  let p = cfg.params in
  let n = p.Fluid.Params.n_flows in
  let c = p.Fluid.Params.capacity in
  let fair = Fluid.Params.equilibrium_rate p in
  let e = Engine.create () in
  let link = Model.link ~buffer:p.Fluid.Params.buffer ~rate:c in
  let fifo = Model.fifo link in
  let advertisements = ref 0 in
  let rates = Array.make n cfg.initial_rate in
  (* per-interval measurement state *)
  let flow_bits = Array.make n 0. in
  let receive e (pkt : Packet.t) =
    (match pkt.Packet.kind with
    | Packet.Data { flow; _ } ->
        if Fifo.enqueue fifo pkt then
          flow_bits.(flow) <- flow_bits.(flow) +. float_of_int pkt.Packet.bits
    | Packet.Bcn _ | Packet.Pause _ -> ());
    Model.serve link e
  in
  (* a fault channel sees each advertisement as a BCN frame carrying
     [fb = er] *)
  let feedback = Model.feedback cfg.control_channel ~delay:cfg.control_delay in
  (* the ERICA measurement/advertisement cycle *)
  let rec advertise e =
    let measured = Array.fold_left ( +. ) 0. flow_bits /. cfg.interval in
    let active =
      Array.fold_left (fun acc b -> if b > 0. then acc + 1 else acc) 0 flow_bits
    in
    if active > 0 then begin
      let u = cfg.target_util *. c in
      let z = Float.max 1e-9 (measured /. u) in
      let fair_share = u /. float_of_int active in
      Array.iteri
        (fun i bits ->
          if bits > 0. then begin
            let flow_rate = bits /. cfg.interval in
            let er = Float.max fair_share (flow_rate /. z) in
            let er = Float.min er c in
            incr advertisements;
            feedback e ~flow:i ~fb:er (fun _e -> rates.(i) <- er)
          end)
        flow_bits
    end;
    Array.fill flow_bits 0 n 0.;
    Engine.schedule e ~delay:cfg.interval advertise
  in
  Engine.schedule e ~delay:cfg.interval advertise;
  (* paced sources reading their advertised rate *)
  let seq = ref 0 in
  Model.pace e ~t_end:cfg.t_end rates (fun e i ->
      let pkt =
        Packet.make_data ~seq:!seq ~now:(Engine.now e) ~flow:i ~rrt:None
      in
      incr seq;
      receive e pkt);
  (* tracing + convergence detection *)
  let convergence = ref None in
  let tr =
    Model.trace e ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt ~cols:2
      (fun e row ->
        row.(0) <- Fifo.occupancy_bits fifo;
        row.(1) <- Array.fold_left ( +. ) 0. rates;
        if !convergence = None then
          let all_fair =
            Array.for_all
              (fun r ->
                Float.abs (r -. (cfg.target_util *. fair)) < 0.1 *. fair)
              rates
          in
          if all_fair then convergence := Some (Engine.now e))
  in
  let delivered = Model.delivered_bits link in
  {
    queue = Model.series tr 0;
    agg_rate = Model.series tr 1;
    drops = Fifo.drops fifo;
    delivered_bits = delivered;
    utilization = delivered /. (c *. cfg.t_end);
    advertisements = !advertisements;
    final_rates = Array.copy rates;
    convergence_time = !convergence;
  }

let run_many ?jobs cfgs = Parallel.Pool.fan_out ?jobs ~what:"Fera.run_many" run cfgs
