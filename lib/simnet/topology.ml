open Numerics

type config = {
  params : Fluid.Params.t;
  n_hot : int;
  victim_rate : float;
  t_end : float;
  sample_dt : float;
  initial_hot_rate : float;
  control_delay : float;
  enable_bcn : bool;
  enable_pause : bool;
}

let default_config ?(t_end = 0.02) ?(sample_dt = 1e-5) ?(n_hot = 10)
    ?victim_rate (p : Fluid.Params.t) =
  let fair = Fluid.Params.equilibrium_rate p in
  {
    params = p;
    n_hot;
    victim_rate =
      (match victim_rate with
      | Some r -> r
      | None -> 0.05 *. p.Fluid.Params.capacity);
    t_end;
    sample_dt;
    initial_hot_rate = 0.5 *. fair *. float_of_int p.Fluid.Params.n_flows
                       /. float_of_int (Stdlib.max 1 n_hot);
    control_delay = 1e-6;
    enable_bcn = true;
    enable_pause = true;
  }

type result = {
  core_queue : Series.t;
  edge_hot_queue : Series.t;
  victim_delivered_bits : float;
  victim_goodput : float;
  victim_offered : float;
  hot_delivered_bits : float;
  core_drops : int;
  core_pause_on : int;
  edge_pause_on : int;
  victim_paused_fraction : float;
}

let victim_scenario cfg =
  Model.check "Topology.victim_scenario" ~t_end:cfg.t_end
    ~sample_dt:cfg.sample_dt ();
  if cfg.n_hot < 1 then invalid_arg "Topology.victim_scenario: n_hot < 1";
  let p = cfg.params in
  let e = Engine.create () in
  let hot_delivered = ref 0. and victim_delivered = ref 0. in
  let sources = Array.make (cfg.n_hot + 1) None in
  let victim_id = cfg.n_hot in
  let pause_all on e =
    Array.iter
      (function Some s -> Source.set_paused s e on | None -> ())
      sources
  in
  (* Core switch: the bottleneck, runs the BCN congestion point. Its PAUSE
     frames go to the edge-hot port, not to the sources. *)
  let edge_hot_ref = ref None in
  let core_cfg =
    {
      (Switch.default_config p ~cpid:1) with
      Switch.enable_bcn = cfg.enable_bcn;
      enable_pause = cfg.enable_pause;
    }
  in
  let core =
    Switch.create core_cfg ~control_out:(fun e pkt ->
        Engine.schedule e ~delay:cfg.control_delay (fun e ->
            match pkt.Packet.kind with
            | Packet.Bcn { flow; fb; cpid } -> (
                match sources.(flow) with
                | Some src ->
                    Source.handle_bcn src ~now:(Engine.now e) ~fb ~cpid
                | None -> ())
            | Packet.Pause { on } -> (
                match !edge_hot_ref with
                | Some edge -> Switch.set_egress_paused edge e on
                | None -> ())
            | Packet.Data _ -> ()))
  in
  Switch.set_forward core (fun _e pkt ->
      hot_delivered := !hot_delivered +. float_of_int pkt.Packet.bits);
  (* Edge switch, hot port: plain forwarder (no congestion point of its
     own) feeding the core. When ITS queue passes the PAUSE threshold it
     pauses the shared ingress link — i.e. every source. *)
  (* Edge ports run at 4x the core speed so the core port is the
     congestion point; the edge only congests when the core PAUSEs it. *)
  let edge_port_cfg cpid =
    {
      (Switch.default_config p ~cpid) with
      Switch.capacity = 4. *. p.Fluid.Params.capacity;
      enable_bcn = false;
      enable_pause = cfg.enable_pause;
    }
  in
  let edge_hot =
    Switch.create (edge_port_cfg 2) ~control_out:(fun e pkt ->
        Engine.schedule e ~delay:cfg.control_delay (fun e ->
            match pkt.Packet.kind with
            | Packet.Pause { on } -> pause_all on e
            | Packet.Bcn _ | Packet.Data _ -> ()))
  in
  edge_hot_ref := Some edge_hot;
  Switch.set_forward edge_hot (fun e pkt -> Switch.receive core e pkt);
  (* Edge switch, victim port: forwards straight to the victim sink and is
     never congested. *)
  let edge_victim =
    Switch.create (edge_port_cfg 3) ~control_out:(fun _e _pkt -> ())
  in
  Switch.set_forward edge_victim (fun _e pkt ->
      victim_delivered := !victim_delivered +. float_of_int pkt.Packet.bits);
  (* Sources: hot flows route to the hot port, the victim to its own. *)
  for i = 0 to cfg.n_hot - 1 do
    let src =
      Source.create ~id:i ~initial_rate:cfg.initial_hot_rate
        ~max_rate:p.Fluid.Params.capacity ~gi:p.Fluid.Params.gi
        ~gd:p.Fluid.Params.gd ~ru:p.Fluid.Params.ru
        ~send:(fun e pkt -> Switch.receive edge_hot e pkt)
        ()
    in
    sources.(i) <- Some src;
    Source.start src e
  done;
  let victim =
    Source.create ~id:victim_id ~initial_rate:cfg.victim_rate
      ~max_rate:cfg.victim_rate ~gi:p.Fluid.Params.gi ~gd:p.Fluid.Params.gd
      ~ru:p.Fluid.Params.ru
      ~send:(fun e pkt -> Switch.receive edge_victim e pkt)
      ()
  in
  sources.(victim_id) <- Some victim;
  Source.start victim e;
  let paused_samples = ref 0 in
  let tr =
    Model.trace e ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt ~cols:2
      (fun _e row ->
        row.(0) <- Switch.queue_bits core;
        row.(1) <- Switch.queue_bits edge_hot;
        if Source.is_paused victim then incr paused_samples)
  in
  let m = Model.samples tr in
  {
    core_queue = Model.series tr 0;
    edge_hot_queue = Model.series tr 1;
    victim_delivered_bits = !victim_delivered;
    victim_goodput = !victim_delivered /. cfg.t_end;
    victim_offered = cfg.victim_rate;
    hot_delivered_bits = !hot_delivered;
    core_drops = Fifo.drops (Switch.fifo core);
    core_pause_on = (Switch.stats core).Switch.pause_on;
    edge_pause_on = (Switch.stats edge_hot).Switch.pause_on;
    victim_paused_fraction =
      (if m = 0 then 0. else float_of_int !paused_samples /. float_of_int m);
  }
