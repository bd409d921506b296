open Numerics

type config = {
  params : Fluid.Params.t;
  c_a : float;
  c_b : float;
  n_long : int;
  n_short : int;
  t_end : float;
  sample_dt : float;
  initial_rate : float;
  control_delay : float;
  strict_tagging : bool;
}

let default_config ?(t_end = 0.02) ?(n_long = 10) ?(n_short = 10)
    (p : Fluid.Params.t) =
  let c_b = p.Fluid.Params.capacity /. 2. in
  {
    params = p;
    c_a = p.Fluid.Params.capacity;
    c_b;
    n_long;
    n_short;
    t_end;
    sample_dt = 1e-5;
    (* unregulated sources blast above their fair share until the first
       negative BCN tags them (the draft's cold-start behaviour); with the
       strict RRT rule a below-fair start would never be tagged at all *)
    initial_rate = 2. *. c_b /. float_of_int (n_long + n_short);
    control_delay = 1e-6;
    strict_tagging = true;
  }

type result = {
  queue_a : Series.t;
  queue_b : Series.t;
  drops_a : int;
  drops_b : int;
  utilization_b : float;
  long_rates : float array;
  short_rates : float array;
  beatdown : float;
  bcn_messages : int;
}

let run cfg =
  Model.check "Multihop.run" ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt ();
  if cfg.n_long < 1 || cfg.n_short < 0 then
    invalid_arg "Multihop.run: need n_long >= 1, n_short >= 0";
  if cfg.c_b > cfg.c_a then
    invalid_arg "Multihop.run: the second hop must be the tighter one";
  let p = cfg.params in
  let n = cfg.n_long + cfg.n_short in
  let e = Engine.create () in
  let delivered = ref 0. in
  let per_flow_delivered = Array.make n 0. in
  let messages = ref 0 in
  let sources = Array.make n None in
  let dispatch e (pkt : Packet.t) =
    match pkt.Packet.kind with
    | Packet.Bcn { flow; fb; cpid } ->
        incr messages;
        (match sources.(flow) with
        | Some src -> Source.handle_bcn src ~now:(Engine.now e) ~fb ~cpid
        | None -> ())
    | Packet.Pause _ | Packet.Data _ -> ()
  in
  (* strict CPID/RRT association (the draft's rule): positive feedback is
     only sent to flows tagged with THIS congestion point. Without it an
     uncongested upstream CP keeps re-accelerating flows that the
     downstream bottleneck is trying to throttle — the multihop test
     demonstrates a 30x rate inversion if this flag is relaxed. *)
  let mk_switch ~cpid ~capacity =
    Switch.create
      {
        (Switch.default_config p ~cpid) with
        Switch.capacity;
        positive_to_untagged = not cfg.strict_tagging;
        enable_pause = false;
      }
      ~control_out:(fun e pkt ->
        Engine.schedule e ~delay:cfg.control_delay (fun e -> dispatch e pkt))
  in
  let sw_a = mk_switch ~cpid:1 ~capacity:cfg.c_a in
  let sw_b = mk_switch ~cpid:2 ~capacity:cfg.c_b in
  Switch.set_forward sw_a (fun e pkt -> Switch.receive sw_b e pkt);
  Switch.set_forward sw_b (fun _e pkt ->
      delivered := !delivered +. float_of_int pkt.Packet.bits;
      match pkt.Packet.kind with
      | Packet.Data { flow; _ } when flow < n ->
          per_flow_delivered.(flow) <-
            per_flow_delivered.(flow) +. float_of_int pkt.Packet.bits
      | Packet.Data _ | Packet.Bcn _ | Packet.Pause _ -> ());
  for i = 0 to n - 1 do
    let is_long = i < cfg.n_long in
    let entry = if is_long then sw_a else sw_b in
    let src =
      Source.create ~id:i ~initial_rate:cfg.initial_rate
        ~min_rate:(0.001 *. cfg.c_b) ~max_rate:cfg.c_a
        ~mode:Source.Literal ~gi:p.Fluid.Params.gi ~gd:p.Fluid.Params.gd
        ~ru:p.Fluid.Params.ru
        ~send:(fun e pkt -> Switch.receive entry e pkt)
        ()
    in
    sources.(i) <- Some src;
    Source.start src e
  done;
  let tr =
    Model.trace e ~t_end:cfg.t_end ~sample_dt:cfg.sample_dt ~cols:2
      (fun _e row ->
        row.(0) <- Switch.queue_bits sw_a;
        row.(1) <- Switch.queue_bits sw_b)
  in
  (* goodput over the run, per flow — time-integrated, unlike the
     bang-bang instantaneous rates of literal AIMD *)
  let goodput i = per_flow_delivered.(i) /. cfg.t_end in
  let long_rates = Array.init cfg.n_long goodput in
  let short_rates = Array.init cfg.n_short (fun j -> goodput (cfg.n_long + j)) in
  let mean a = if Array.length a = 0 then 0. else Stats.mean a in
  let beatdown =
    let ms = mean short_rates in
    if ms = 0. then 1. else mean long_rates /. ms
  in
  {
    queue_a = Model.series tr 0;
    queue_b = Model.series tr 1;
    drops_a = Fifo.drops (Switch.fifo sw_a);
    drops_b = Fifo.drops (Switch.fifo sw_b);
    utilization_b = !delivered /. (cfg.c_b *. cfg.t_end);
    long_rates;
    short_rates;
    beatdown;
    bcn_messages = !messages;
  }

let run_many ?jobs cfgs =
  Parallel.Pool.fan_out ?jobs ~what:"Multihop.run_many" run cfgs
