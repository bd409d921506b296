type sampling =
  | Deterministic
  | Bernoulli of Random.State.t
  | Timer of float

type config = {
  cpid : int;
  capacity : float;
  buffer_bits : float;
  q0 : float;
  qsc : float;
  pause_resume : float;
  w : float;
  pm : float;
  sampling : sampling;
  positive_to_untagged : bool;
  enable_bcn : bool;
  enable_pause : bool;
  pool : Packet.Pool.t option;
}

let default_config (p : Fluid.Params.t) ~cpid =
  {
    cpid;
    capacity = p.Fluid.Params.capacity;
    buffer_bits = p.Fluid.Params.buffer;
    q0 = p.Fluid.Params.q0;
    qsc = p.Fluid.Params.qsc;
    pause_resume = 0.9;
    w = p.Fluid.Params.w;
    pm = p.Fluid.Params.pm;
    sampling = Deterministic;
    positive_to_untagged = true;
    enable_bcn = true;
    enable_pause = true;
    pool = None;
  }

type stats = {
  mutable forwarded : int;
  mutable sampled : int;
  mutable bcn_positive : int;
  mutable bcn_negative : int;
  mutable pause_on : int;
  mutable pause_off : int;
}

(* [q_at_last_sample] and the live egress [capacity] live in an
   all-float cell so per-sample and per-service stores do not box.
   [capacity] starts at [cfg.capacity] and is only ever rewritten by
   {!set_capacity} (fault-injected link flaps). *)
type fstate = { mutable q_at_last_sample : float; mutable capacity : float }

type t = {
  cfg : config;
  queue : Fifo.t;
  control_out : Engine.t -> Packet.t -> unit;
  mutable forward : (Engine.t -> Packet.t -> unit) option;
  mutable busy : bool;
  (* BCN congestion point live-enabled flag: [cfg.enable_bcn] at create,
     toggled by fault-injected blackouts *)
  mutable bcn_active : bool;
  (* precomputed [pause_resume * qsc] so check_pause stays two compares *)
  resume_level : float;
  mutable egress_paused : bool;
  mutable upstream_paused : bool;
  mutable arrivals_since_sample : int;
  sample_every : int;
  fs : fstate;
  mutable last_flow : int;
  mutable last_rrt : int option;
  mutable timer_armed : bool;
  mutable ctl_seq : int;
  (* frame currently in service plus the preallocated service-completion
     callback: one closure per switch, not one per forwarded frame *)
  mutable in_service : Packet.t;
  mutable complete : Engine.t -> unit;
  st : stats;
}

let[@inline] queue_bits sw = Fifo.occupancy_bits sw.queue
let fifo sw = sw.queue
let stats sw = sw.st
let config sw = sw.cfg
let upstream_paused sw = sw.upstream_paused
let capacity sw = sw.fs.capacity
let bcn_enabled sw = sw.bcn_active

let next_ctl_seq sw =
  let s = sw.ctl_seq in
  sw.ctl_seq <- s + 1;
  s

let send_pause sw e on =
  let seq = next_ctl_seq sw in
  let now = Engine.now e in
  let pkt =
    match sw.cfg.pool with
    | Some pool -> Packet.Pool.alloc_pause pool ~seq ~now ~on
    | None -> Packet.make_pause ~seq ~now ~on
  in
  if on then sw.st.pause_on <- sw.st.pause_on + 1
  else sw.st.pause_off <- sw.st.pause_off + 1;
  sw.upstream_paused <- on;
  Telemetry.Probe.pause (Engine.probe e) ~t:now ~on ~q:(queue_bits sw)
    ~cpid:sw.cfg.cpid ~seq;
  sw.control_out e pkt

let check_pause sw e =
  if sw.cfg.enable_pause then begin
    let q = queue_bits sw in
    if (not sw.upstream_paused) && q > sw.cfg.qsc then send_pause sw e true
    else if sw.upstream_paused && q < sw.resume_level then
      send_pause sw e false
  end

let rec serve sw e =
  if (not sw.busy) && (not sw.egress_paused) && not (Fifo.is_empty sw.queue)
  then begin
    let pkt = Fifo.pop sw.queue in
    sw.busy <- true;
    sw.in_service <- pkt;
    let tx = float_of_int pkt.Packet.bits /. sw.fs.capacity in
    Engine.schedule e ~delay:tx sw.complete
  end

and complete_service sw e =
  let pkt = sw.in_service in
  sw.busy <- false;
  sw.st.forwarded <- sw.st.forwarded + 1;
  (* read the frame's fields before [forward]: the downstream sink may
     recycle the frame into the pool. Matching the kind inline (rather
     than Packet.flow_of) keeps this allocation-free: flow_of builds an
     option per call, which test_simnet's "allocation" group flags at
     2 words/frame. *)
  Telemetry.Probe.dequeue (Engine.probe e) ~t:(Engine.now e)
    ~q:(queue_bits sw)
    ~sojourn:(Engine.now e -. Packet.born pkt)
    ~flow:
      (match pkt.Packet.kind with
      | Packet.Data { flow; _ } | Packet.Bcn { flow; _ } -> flow
      | Packet.Pause _ -> -1)
    ~seq:pkt.Packet.seq;
  (match sw.forward with
  | Some f -> f e pkt
  | None -> failwith "Switch: forward not set");
  check_pause sw e;
  serve sw e

let create (cfg : config) ~control_out =
  if cfg.capacity <= 0. then invalid_arg "Switch.create: capacity <= 0";
  if cfg.pm <= 0. || cfg.pm > 1. then invalid_arg "Switch.create: pm not in (0,1]";
  if cfg.pause_resume <= 0. || cfg.pause_resume > 1. then
    invalid_arg "Switch.create: pause_resume not in (0,1]";
  let sw =
    {
      cfg;
      queue = Fifo.create ~capacity_bits:cfg.buffer_bits;
      control_out;
      forward = None;
      busy = false;
      bcn_active = cfg.enable_bcn;
      resume_level = cfg.pause_resume *. cfg.qsc;
      egress_paused = false;
      upstream_paused = false;
      arrivals_since_sample = 0;
      sample_every = Stdlib.max 1 (int_of_float (Float.round (1. /. cfg.pm)));
      fs = { q_at_last_sample = 0.; capacity = cfg.capacity };
      last_flow = 0;
      last_rrt = None;
      timer_armed = false;
      ctl_seq = 0;
      in_service = Packet.sentinel ();
      complete = (fun _ -> ());
      st =
        {
          forwarded = 0;
          sampled = 0;
          bcn_positive = 0;
          bcn_negative = 0;
          pause_on = 0;
          pause_off = 0;
        };
    }
  in
  (* the completion callback closes over [sw], so it can only be built
     once the record exists *)
  sw.complete <- (fun e -> complete_service sw e);
  sw

let set_forward sw f = sw.forward <- Some f

let set_egress_paused sw e on =
  sw.egress_paused <- on;
  if not on then serve sw e

let set_capacity sw c =
  if c <= 0. || not (Float.is_finite c) then
    invalid_arg "Switch.set_capacity: capacity must be positive and finite";
  sw.fs.capacity <- c

(* a switch created with BCN disabled stays disabled: blackouts only
   interrupt a congestion point that exists *)
let set_bcn_enabled sw on = sw.bcn_active <- sw.cfg.enable_bcn && on

let reset_congestion_point sw =
  sw.fs.q_at_last_sample <- queue_bits sw;
  sw.arrivals_since_sample <- 0

let should_sample sw =
  match sw.cfg.sampling with
  | Deterministic ->
      sw.arrivals_since_sample <- sw.arrivals_since_sample + 1;
      if sw.arrivals_since_sample >= sw.sample_every then begin
        sw.arrivals_since_sample <- 0;
        true
      end
      else false
  | Bernoulli rng -> Random.State.float rng 1. < sw.cfg.pm
  | Timer _ -> false

let emit_bcn sw e ~flow ~fb =
  let seq = next_ctl_seq sw in
  let now = Engine.now e in
  let pkt =
    match sw.cfg.pool with
    | Some pool ->
        Packet.Pool.alloc_bcn pool ~seq ~now ~flow ~fb ~cpid:sw.cfg.cpid
    | None -> Packet.make_bcn ~seq ~now ~flow ~fb ~cpid:sw.cfg.cpid
  in
  sw.control_out e pkt

let sample sw e ~flow ~rrt =
  sw.st.sampled <- sw.st.sampled + 1;
  let q = queue_bits sw in
  let dq = q -. sw.fs.q_at_last_sample in
  sw.fs.q_at_last_sample <- q;
  let sigma = (sw.cfg.q0 -. q) -. (sw.cfg.w *. dq) in
  if sigma < 0. then begin
    sw.st.bcn_negative <- sw.st.bcn_negative + 1;
    Telemetry.Probe.bcn (Engine.probe e) ~t:(Engine.now e) ~fb:sigma ~q ~flow
      ~seq:sw.ctl_seq;
    emit_bcn sw e ~flow ~fb:sigma
  end
  else if sigma > 0. && q < sw.cfg.q0 then begin
    let tagged_here = match rrt with Some c -> c = sw.cfg.cpid | None -> false in
    if tagged_here || sw.cfg.positive_to_untagged then begin
      sw.st.bcn_positive <- sw.st.bcn_positive + 1;
      Telemetry.Probe.bcn (Engine.probe e) ~t:(Engine.now e) ~fb:sigma ~q ~flow
        ~seq:sw.ctl_seq;
      emit_bcn sw e ~flow ~fb:sigma
    end
  end

let start sw e =
  match sw.cfg.sampling with
  | Deterministic | Bernoulli _ -> ()
  | Timer period ->
      if period <= 0. then invalid_arg "Switch.start: timer period <= 0";
      if not sw.timer_armed then begin
        sw.timer_armed <- true;
        let rec tick e =
          if sw.bcn_active then
            sample sw e ~flow:sw.last_flow ~rrt:sw.last_rrt;
          Engine.schedule e ~delay:period tick
        in
        Engine.schedule e ~delay:period tick
      end

let fluid_sampling_period (p : Fluid.Params.t) =
  float_of_int Packet.data_frame_bits
  /. (p.Fluid.Params.pm *. p.Fluid.Params.capacity)

let receive sw e pkt =
  (match pkt.Packet.kind with
  | Packet.Bcn _ | Packet.Pause _ ->
      invalid_arg "Switch.receive: control frames do not enter the data path"
  | Packet.Data { flow; rrt } ->
      sw.last_flow <- flow;
      sw.last_rrt <- rrt);
  let accepted = Fifo.enqueue sw.queue pkt in
  (if accepted then begin
     Telemetry.Probe.enqueue (Engine.probe e) ~t:(Engine.now e)
       ~q:(queue_bits sw)
       ~bits:(float_of_int pkt.Packet.bits)
       ~flow:sw.last_flow ~seq:pkt.Packet.seq;
     if sw.bcn_active && should_sample sw then
       match pkt.Packet.kind with
       | Packet.Data { flow; rrt } -> sample sw e ~flow ~rrt
       | Packet.Bcn _ | Packet.Pause _ -> ()
   end
   else begin
     (* tail drop: record before recycling — release rewrites the frame *)
     Telemetry.Probe.drop (Engine.probe e) ~t:(Engine.now e)
       ~q:(queue_bits sw)
       ~bits:(float_of_int pkt.Packet.bits)
       ~flow:sw.last_flow ~seq:pkt.Packet.seq;
     match sw.cfg.pool with
     | Some pool -> Packet.Pool.release pool pkt
     | None -> ()
   end);
  check_pause sw e;
  serve sw e
