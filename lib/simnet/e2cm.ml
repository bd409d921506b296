open Numerics

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  interval : float;
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
      200. *. float_of_int Packet.data_frame_bits /. p.Fluid.Params.capacity;
    control_channel = None;
  }

type result = {
  queue : Series.t;
  agg_rate : Series.t;
  drops : int;
  delivered_bits : float;
  utilization : float;
  messages : int;
  final_rates : float array;
}

let run cfg =
  Model.check "E2cm.run" ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt
    ~interval:cfg.interval ();
  let p = cfg.params in
  let n = p.Fluid.Params.n_flows in
  let c = p.Fluid.Params.capacity in
  let e = Engine.create () in
  let link = Model.link ~buffer:p.Fluid.Params.buffer ~rate:c in
  let fifo = Model.fifo link in
  let messages = ref 0 in
  let rates = Array.make n cfg.initial_rate in
  (* congestion-point state: BCN sampling + an interval fair-share
     estimate from the active-flow count *)
  let arrivals = ref 0 in
  let sample_every =
    Stdlib.max 1 (int_of_float (Float.round (1. /. p.Fluid.Params.pm)))
  in
  let q_old = ref 0. in
  let active = Array.make n false in
  let fair_share = ref (c /. float_of_int n) in
  let rec fair_cycle e =
    let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 active in
    if count > 0 then fair_share := 0.95 *. c /. float_of_int count;
    Array.fill active 0 n false;
    Engine.schedule e ~delay:cfg.interval fair_cycle
  in
  Engine.schedule e ~delay:cfg.interval fair_cycle;
  (* the hybrid reaction law: BCN AIMD with the advertised fair share
     capping the additive increase *)
  let react flow sigma er =
    if sigma > 0. then
      rates.(flow) <-
        Float.min
          (Float.max er rates.(flow))
          (rates.(flow) +. (p.Fluid.Params.gi *. p.Fluid.Params.ru *. sigma))
    else if sigma < 0. then
      rates.(flow) <-
        Float.max 1e3
          (Float.min
             (rates.(flow) *. (1. +. (p.Fluid.Params.gd *. sigma)))
             er)
  in
  (* a fault channel sees each message as a BCN frame carrying
     [fb = sigma] *)
  let feedback = Model.feedback cfg.control_channel ~delay:cfg.control_delay in
  let receive e (pkt : Packet.t) =
    (match pkt.Packet.kind with
    | Packet.Data { flow; _ } ->
        active.(flow) <- true;
        if Fifo.enqueue fifo pkt then begin
          incr arrivals;
          if !arrivals mod sample_every = 0 then begin
            let q = Fifo.occupancy_bits fifo in
            let dq = q -. !q_old in
            q_old := q;
            let sigma =
              (p.Fluid.Params.q0 -. q) -. (p.Fluid.Params.w *. dq)
            in
            if sigma <> 0. then begin
              incr messages;
              let er = !fair_share in
              feedback e ~flow ~fb:sigma (fun _e -> react flow sigma er)
            end
          end
        end
    | Packet.Bcn _ | Packet.Pause _ -> ());
    Model.serve link e
  in
  let seq = ref 0 in
  Model.pace e ~t_end:cfg.t_end rates (fun e i ->
      let pkt =
        Packet.make_data ~seq:!seq ~now:(Engine.now e) ~flow:i ~rrt:None
      in
      incr seq;
      receive e pkt);
  let tr =
    Model.trace e ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt ~cols:2
      (fun _e row ->
        row.(0) <- Fifo.occupancy_bits fifo;
        row.(1) <- Array.fold_left ( +. ) 0. rates)
  in
  let delivered = Model.delivered_bits link in
  {
    queue = Model.series tr 0;
    agg_rate = Model.series tr 1;
    drops = Fifo.drops fifo;
    delivered_bits = delivered;
    utilization = delivered /. (c *. cfg.t_end);
    messages = !messages;
    final_rates = Array.copy rates;
  }

let run_many ?jobs cfgs = Parallel.Pool.fan_out ?jobs ~what:"E2cm.run_many" run cfgs
