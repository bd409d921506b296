open Numerics

type config = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  quant_bits : int;
  bc_limit_bits : float;
  fast_recovery_cycles : int;
  r_ai : float;
}

let default_config ?(t_end = 0.02) ?(sample_dt = 1e-5) (p : Fluid.Params.t) =
  {
    params = p;
    t_end;
    sample_dt;
    initial_rate = Fluid.Params.equilibrium_rate p;
    control_delay = 1e-6;
    quant_bits = 6;
    bc_limit_bits = 150e3 *. 8.;
    fast_recovery_cycles = 5;
    r_ai = 5e6;
  }

type result = {
  queue : Series.t;
  agg_rate : Series.t;
  drops : int;
  delivered_bits : float;
  utilization : float;
  cn_messages : int;
  final_rates : float array;
}

let quantize ~bits ~fb_max fb =
  if bits < 1 then invalid_arg "Qcn.quantize: bits < 1";
  if fb_max <= 0. then invalid_arg "Qcn.quantize: fb_max <= 0";
  let clipped = Float.max (-.fb_max) (Float.min 0. fb) in
  let levels = float_of_int ((1 lsl bits) - 1) in
  let step = fb_max /. levels in
  Float.round (clipped /. step) *. step

(* QCN reaction point: multiplicative decrease on notification, then
   byte-counter driven fast recovery / active increase. *)
type rp = {
  id : int;
  mutable rate : float;
  mutable target : float;
  mutable bc_count : float;  (* bits sent since last byte-counter expiry *)
  mutable cycles : int;  (* completed recovery cycles since last decrease *)
  min_rate : float;
  max_rate : float;
}

let rp_decrease rp fb_normalized =
  (* fb_normalized in [0, 1]; decrease factor Gd-scaled like the BCN gain *)
  rp.target <- rp.rate;
  let factor = 1. -. (0.5 *. fb_normalized) in
  rp.rate <- Float.max rp.min_rate (rp.rate *. factor);
  rp.cycles <- 0;
  rp.bc_count <- 0.

let rp_byte_counter_expiry cfg rp =
  if rp.cycles >= cfg.fast_recovery_cycles then
    (* active increase: probe for more bandwidth *)
    rp.target <- rp.target +. cfg.r_ai
  else rp.cycles <- rp.cycles + 1;
  rp.rate <- Float.min rp.max_rate ((rp.rate +. rp.target) /. 2.)

let run cfg =
  Model.check "Qcn.run" ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt ();
  let p = cfg.params in
  let n = p.Fluid.Params.n_flows in
  let e = Engine.create () in
  let cn_messages = ref 0 in
  let link =
    Model.link ~buffer:p.Fluid.Params.buffer ~rate:p.Fluid.Params.capacity
  in
  let fifo = Model.fifo link in
  let q_old = ref 0. in
  let arrivals = ref 0 in
  let sample_every =
    Stdlib.max 1 (int_of_float (Float.round (1. /. p.Fluid.Params.pm)))
  in
  let fb_max = p.Fluid.Params.q0 *. (1. +. (2. *. p.Fluid.Params.w)) in
  let rps =
    Array.init n (fun id ->
        {
          id;
          rate = cfg.initial_rate;
          target = cfg.initial_rate;
          bc_count = 0.;
          cycles = 0;
          min_rate = 1e3;
          max_rate = p.Fluid.Params.capacity;
        })
  in
  let congestion_point e (pkt : Packet.t) =
    incr arrivals;
    if !arrivals mod sample_every = 0 then begin
      let q = Fifo.occupancy_bits fifo in
      let dq = q -. !q_old in
      q_old := q;
      let fb =
        -.((q -. p.Fluid.Params.q0) +. (p.Fluid.Params.w *. dq))
      in
      if fb < 0. then begin
        let fbq = quantize ~bits:cfg.quant_bits ~fb_max fb in
        if fbq < 0. then begin
          incr cn_messages;
          match pkt.Packet.kind with
          | Packet.Data { flow; _ } ->
              Engine.schedule e ~delay:cfg.control_delay (fun _e ->
                  rp_decrease rps.(flow) (Float.abs fbq /. fb_max))
          | Packet.Bcn _ | Packet.Pause _ -> ()
        end
      end
    end
  in
  let receive e pkt =
    let accepted = Fifo.enqueue fifo pkt in
    if accepted then congestion_point e pkt;
    Model.serve link e
  in
  (* pacing loops with byte counters *)
  let rec pace rp e =
    if Engine.now e <= cfg.t_end then begin
      let pkt =
        Packet.make_data ~seq:0 ~now:(Engine.now e) ~flow:rp.id ~rrt:None
      in
      receive e pkt;
      rp.bc_count <- rp.bc_count +. float_of_int pkt.Packet.bits;
      if rp.bc_count >= cfg.bc_limit_bits then begin
        rp.bc_count <- 0.;
        rp_byte_counter_expiry cfg rp
      end;
      Engine.schedule e
        ~delay:(float_of_int pkt.Packet.bits /. rp.rate)
        (pace rp)
    end
  in
  Array.iter
    (fun rp ->
      let jitter =
        float_of_int Packet.data_frame_bits /. rp.rate
        *. (float_of_int (rp.id mod 97) /. 97.)
      in
      Engine.schedule e ~delay:jitter (pace rp))
    rps;
  let tr =
    Model.trace e ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt ~cols:2
      (fun _e row ->
        row.(0) <- Fifo.occupancy_bits fifo;
        row.(1) <- Array.fold_left (fun acc rp -> acc +. rp.rate) 0. rps)
  in
  let delivered = Model.delivered_bits link in
  {
    queue = Model.series tr 0;
    agg_rate = Model.series tr 1;
    drops = Fifo.drops fifo;
    delivered_bits = delivered;
    utilization = delivered /. (p.Fluid.Params.capacity *. cfg.t_end);
    cn_messages = !cn_messages;
    final_rates = Array.map (fun rp -> rp.rate) rps;
  }
