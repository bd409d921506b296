type sampling = Deterministic | Bernoulli | Timer of float

type bcn_knobs = {
  mode : Source.update_mode;
  sampling : sampling;
  positive_to_untagged : bool;
  broadcast_feedback : bool;
  enable_bcn : bool;
  enable_pause : bool;
  pause_resume : float;
}

type model =
  | Bcn of bcn_knobs
  | E2cm of { interval : float }
  | Fera of { interval : float; target_util : float }
  | Multihop of {
      c_a : float;
      c_b : float;
      n_long : int;
      n_short : int;
      strict_tagging : bool;
    }
  | Rcp of {
      alpha : float;
      beta : float;
      interval : float;
      variant : Fluid.Rcp.variant;
    }

type workload =
  | Cbr of { rate : float }
  | Poisson of { mean_rate : float; seed : int }
  | On_off of {
      peak_rate : float;
      mean_on : float;
      mean_off : float;
      seed : int;
    }
  | Incast of {
      senders : int;
      burst_frames : int;
      period : float;
      jitter : float;
      seed : int;
    }

type t = {
  params : Fluid.Params.t;
  t_end : float;
  sample_dt : float;
  initial_rate : float option;
  control_delay : float;
  model : model;
  workload : workload list;
  fault : Fault_plan.t option;
  seed : int;
  replicas : int;
}

let version = 2

(* Canonical documents carry the smallest version able to express their
   content: pre-RCP scenarios keep emitting (and re-encoding) their v1
   bytes unchanged — content addresses in existing stores survive the
   codec extension — and only the [Rcp] arm needs v2. *)
let doc_version = function Rcp _ -> 2 | _ -> 1

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let default_knobs =
  {
    mode = Source.Zoh_fluid;
    sampling = Deterministic;
    positive_to_untagged = true;
    broadcast_feedback = false;
    enable_bcn = true;
    enable_pause = true;
    pause_resume = 0.9;
  }

(* Defaults every constructor and the decoder share. *)
let default_t_end = 0.02
let default_sample_dt = 1e-5
let default_control_delay = 1e-6

let make ?(t_end = default_t_end) ?(sample_dt = default_sample_dt)
    ?initial_rate ?(control_delay = default_control_delay) params model =
  {
    params;
    t_end;
    sample_dt;
    initial_rate;
    control_delay;
    model;
    workload = [];
    fault = None;
    seed = 0;
    replicas = 1;
  }

let bcn ?t_end ?sample_dt ?initial_rate ?control_delay
    ?(mode = default_knobs.mode) ?(sampling = default_knobs.sampling)
    ?(positive_to_untagged = default_knobs.positive_to_untagged)
    ?(broadcast_feedback = default_knobs.broadcast_feedback)
    ?(enable_bcn = default_knobs.enable_bcn)
    ?(enable_pause = default_knobs.enable_pause)
    ?(pause_resume = default_knobs.pause_resume) params =
  make ?t_end ?sample_dt ?initial_rate ?control_delay params
    (Bcn
       {
         mode;
         sampling;
         positive_to_untagged;
         broadcast_feedback;
         enable_bcn;
         enable_pause;
         pause_resume;
       })

let e2cm ?t_end ?sample_dt ?initial_rate ?control_delay ?interval params =
  let d = (E2cm.default_config params).E2cm.interval in
  let interval = Option.value interval ~default:d in
  make ?t_end ?sample_dt ?initial_rate ?control_delay params
    (E2cm { interval })

let fera ?t_end ?sample_dt ?initial_rate ?control_delay ?interval
    ?target_util params =
  let d = Fera.default_config params in
  let interval = Option.value interval ~default:d.Fera.interval in
  let target_util = Option.value target_util ~default:d.Fera.target_util in
  make ?t_end ?sample_dt ?initial_rate ?control_delay params
    (Fera { interval; target_util })

let multihop ?t_end ?sample_dt ?initial_rate ?control_delay ?c_a ?c_b
    ?(n_long = 10) ?(n_short = 10) ?(strict_tagging = true)
    (params : Fluid.Params.t) =
  let c = params.Fluid.Params.capacity in
  let c_a = Option.value c_a ~default:c in
  let c_b = Option.value c_b ~default:(c /. 2.) in
  make ?t_end ?sample_dt ?initial_rate ?control_delay params
    (Multihop { c_a; c_b; n_long; n_short; strict_tagging })

let rcp ?t_end ?sample_dt ?initial_rate ?control_delay
    ?(alpha = Fluid.Rcp.default_alpha) ?(beta = Fluid.Rcp.default_beta)
    ?(interval = Fluid.Rcp.default_tau) ?(variant = Fluid.Rcp.By_capacity)
    params =
  make ?t_end ?sample_dt ?initial_rate ?control_delay params
    (Rcp { alpha; beta; interval; variant })

let with_fault s plan =
  { s with fault = (if Fault_plan.is_none plan then None else Some plan) }

let with_workload s workload = { s with workload }
let with_seed s seed = { s with seed }
let with_replicas s replicas = { s with replicas }

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf invalid_arg fmt

let check_pos what x =
  if not (Float.is_finite x) || x <= 0. then
    fail "Scenario: %s = %g must be finite and > 0" what x

let check_nonneg what x =
  if not (Float.is_finite x) || x < 0. then
    fail "Scenario: %s = %g must be finite and >= 0" what x

let validate_workload = function
  | Cbr { rate } -> check_pos "cbr rate" rate
  | Poisson { mean_rate; _ } -> check_pos "poisson mean_rate" mean_rate
  | On_off { peak_rate; mean_on; mean_off; _ } ->
      check_pos "on_off peak_rate" peak_rate;
      check_pos "on_off mean_on" mean_on;
      check_nonneg "on_off mean_off" mean_off
  | Incast { senders; burst_frames; period; jitter; _ } ->
      if senders < 1 then fail "Scenario: incast senders = %d < 1" senders;
      if burst_frames < 1 then
        fail "Scenario: incast burst_frames = %d < 1" burst_frames;
      check_pos "incast period" period;
      check_nonneg "incast jitter" jitter

let validate s =
  check_pos "t_end" s.t_end;
  check_pos "sample_dt" s.sample_dt;
  check_nonneg "control_delay" s.control_delay;
  Option.iter (check_pos "initial_rate") s.initial_rate;
  if s.replicas < 1 then fail "Scenario: replicas = %d < 1" s.replicas;
  (match s.model with
  | Bcn k -> (
      if k.pause_resume <= 0. || k.pause_resume > 1. then
        fail "Scenario: pause_resume = %g not in (0, 1]" k.pause_resume;
      match k.sampling with
      | Timer p -> check_pos "timer sampling period" p
      | Bernoulli -> ()
      | Deterministic ->
          if s.replicas > 1 then
            fail
              "Scenario: replicas = %d needs Bernoulli sampling \
               (deterministic replicas would be identical)"
              s.replicas)
  | E2cm { interval } -> check_pos "e2cm interval" interval
  | Fera { interval; target_util } ->
      check_pos "fera interval" interval;
      if target_util <= 0. || target_util > 1. then
        fail "Scenario: fera target_util = %g not in (0, 1]" target_util
  | Multihop { c_a; c_b; n_long; n_short; _ } ->
      check_pos "multihop c_a" c_a;
      check_pos "multihop c_b" c_b;
      if c_b > c_a then
        fail "Scenario: multihop c_b = %g > c_a = %g (hop B must be the tighter one)"
          c_b c_a;
      if n_long < 1 || n_short < 0 then
        fail "Scenario: multihop needs n_long >= 1 and n_short >= 0"
  | Rcp { alpha; beta; interval; _ } ->
      check_pos "rcp alpha" alpha;
      check_nonneg "rcp beta" beta;
      check_pos "rcp interval" interval);
  (* Fault support follows what a model physically exposes: loss/delay
     need only a control channel; capacity flaps need a live switch;
     blackouts toggle a BCN congestion point. *)
  (match (s.model, s.fault) with
  | _, None | Bcn _, Some _ -> ()
  | Rcp _, Some p ->
      if p.Fault_plan.blackout <> None then
        fail "Scenario: blackout faults need a BCN congestion point"
  | (E2cm _ | Fera _), Some p ->
      if p.Fault_plan.capacity <> None then
        fail "Scenario: capacity-flap faults need a switch-based model";
      if p.Fault_plan.blackout <> None then
        fail "Scenario: blackout faults need a BCN congestion point"
  | Multihop _, Some _ ->
      fail "Scenario: fault plans do not apply to the multihop model");
  (match s.model with
  | Bcn _ -> ()
  | _ ->
      if s.workload <> [] then
        fail "Scenario: cross-traffic workloads only apply to the BCN model";
      if s.replicas > 1 then
        fail "Scenario: replicas only apply to the BCN model");
  List.iter validate_workload s.workload;
  (match s.fault with
  | Some p -> ignore (Fault_plan.validate p : Fault_plan.t)
  | None -> ());
  s

let equal (a : t) (b : t) = a = b

let describe s =
  let p = s.params in
  let model =
    match s.model with
    | Bcn _ -> "bcn"
    | E2cm _ -> "e2cm"
    | Fera _ -> "fera"
    | Multihop _ -> "multihop"
    | Rcp _ -> "rcp"
  in
  Printf.sprintf "%s n=%d C=%g t_end=%g%s%s%s" model p.Fluid.Params.n_flows
    p.Fluid.Params.capacity s.t_end
    (if s.replicas > 1 then Printf.sprintf " x%d@seed=%d" s.replicas s.seed
     else "")
    (if s.workload <> [] then
       Printf.sprintf " +%d workloads" (List.length s.workload)
     else "")
    (match s.fault with
    | Some f -> " fault{" ^ Fault_plan.describe f ^ "}"
    | None -> "")

(* ------------------------------------------------------------------ *)
(* Canonical encoding: one declaration per record                      *)
(* ------------------------------------------------------------------ *)

(* Inside [Wire], [Json_read.t] shadows the scenario [t]; everything
   there builds scenario values via record literals, so nothing needs
   the name. *)
module Wire = struct
  open Json_read

  let params_codec =
    record "params" Fluid.Params.default (fun o (p : Fluid.Params.t) ->
        let n_flows = req o "n_flows" int p.n_flows in
        let capacity = req o "capacity" float p.capacity in
        let w = maybe o "w" float (Some p.w) in
        let pm = maybe o "pm" float (Some p.pm) in
        let q0 = req o "q0" float p.q0 in
        let buffer = req o "buffer" float p.buffer in
        (* absent, [qsc] follows the buffer inside [Params.make] *)
        let qsc = maybe o "qsc" float (Some p.qsc) in
        let gi = req o "gi" float p.gi in
        let gd = req o "gd" float p.gd in
        let ru = req o "ru" float p.ru in
        let mu = maybe o "mu" float (Some p.mu) in
        Fluid.Params.make ?w ?pm ?qsc ?mu ~n_flows ~capacity ~q0 ~buffer ~gi
          ~gd ~ru ())

  let sampling_codec =
    variant "sampling"
      (fun () -> [ Deterministic; Bernoulli; Timer 0. ])
      (fun o -> function
        | Deterministic -> tag o "deterministic"; Deterministic
        | Bernoulli -> tag o "bernoulli"; Bernoulli
        | Timer p -> tag o "timer"; Timer (req o "period" float p))

  let knobs o k =
    let mode =
      opt o "mode"
        (enum [ ("literal", Source.Literal); ("zoh", Source.Zoh_fluid) ])
        k.mode
    in
    let sampling = opt o "sampling" sampling_codec k.sampling in
    let positive_to_untagged =
      opt o "positive_to_untagged" bool k.positive_to_untagged
    in
    let broadcast_feedback =
      opt o "broadcast_feedback" bool k.broadcast_feedback
    in
    let enable_bcn = opt o "enable_bcn" bool k.enable_bcn in
    let enable_pause = opt o "enable_pause" bool k.enable_pause in
    let pause_resume = opt o "pause_resume" float k.pause_resume in
    {
      mode;
      sampling;
      positive_to_untagged;
      broadcast_feedback;
      enable_bcn;
      enable_pause;
      pause_resume;
    }

  (* The decode templates are the constructors' defaults. Multihop's hop
     capacities follow the decoded [params], which the canonical order
     writes after the model: the templates force it. *)
  let model_codec params =
    variant "model"
      (fun () ->
        let p = Lazy.force params in
        List.map
          (fun s -> s.model)
          [ bcn p; e2cm p; fera p; multihop p; rcp p ])
      (fun o -> function
        | Bcn k -> tag o "bcn"; Bcn (knobs o k)
        | E2cm r ->
            tag o "e2cm";
            E2cm { interval = req o "interval" float r.interval }
        | Fera r ->
            tag o "fera";
            let interval = req o "interval" float r.interval in
            let target_util = opt o "target_util" float r.target_util in
            Fera { interval; target_util }
        | Multihop r ->
            tag o "multihop";
            let c_a = opt o "c_a" float r.c_a in
            let c_b = opt o "c_b" float r.c_b in
            let n_long = opt o "n_long" int r.n_long in
            let n_short = opt o "n_short" int r.n_short in
            let strict_tagging = opt o "strict_tagging" bool r.strict_tagging in
            Multihop { c_a; c_b; n_long; n_short; strict_tagging }
        | Rcp r ->
            tag o "rcp";
            let alpha = opt o "alpha" float r.alpha in
            let beta = opt o "beta" float r.beta in
            let interval = opt o "interval" float r.interval in
            let variant =
              opt o "variant"
                (enum
                   [
                     ("by_capacity", Fluid.Rcp.By_capacity);
                     ("by_load", Fluid.Rcp.By_load);
                   ])
                r.variant
            in
            Rcp { alpha; beta; interval; variant })

  let workload_codec =
    variant "workload"
      (fun () ->
        [
          Cbr { rate = 0. };
          Poisson { mean_rate = 0.; seed = 0 };
          On_off { peak_rate = 0.; mean_on = 0.; mean_off = 0.; seed = 0 };
          Incast
            {
              senders = 0;
              burst_frames = 0;
              period = 0.;
              jitter = 0.;
              seed = 0;
            };
        ])
      (fun o -> function
        | Cbr r -> tag o "cbr"; Cbr { rate = req o "rate" float r.rate }
        | Poisson r ->
            tag o "poisson";
            let mean_rate = req o "mean_rate" float r.mean_rate in
            Poisson { mean_rate; seed = opt o "seed" int r.seed }
        | On_off r ->
            tag o "on_off";
            let peak_rate = req o "peak_rate" float r.peak_rate in
            let mean_on = req o "mean_on" float r.mean_on in
            let mean_off = req o "mean_off" float r.mean_off in
            let seed = opt o "seed" int r.seed in
            On_off { peak_rate; mean_on; mean_off; seed }
        | Incast r ->
            tag o "incast";
            let senders = req o "senders" int r.senders in
            let burst_frames = req o "burst_frames" int r.burst_frames in
            let period = req o "period" float r.period in
            let jitter = opt o "jitter" float r.jitter in
            let seed = opt o "seed" int r.seed in
            Incast { senders; burst_frames; period; jitter; seed })

  let loss_codec =
    variant "loss"
      (fun () ->
        Fault_plan.
          [ Bernoulli 0.; Burst { p_enter = 0.; p_exit = 0.; p_drop = 0. } ])
      (fun o -> function
        | Fault_plan.Bernoulli p ->
            tag o "bernoulli";
            Fault_plan.Bernoulli (req o "p" float p)
        | Fault_plan.Burst r ->
            tag o "burst";
            let p_enter = req o "p_enter" float r.p_enter in
            let p_exit = req o "p_exit" float r.p_exit in
            let p_drop = req o "p_drop" float r.p_drop in
            Fault_plan.Burst { p_enter; p_exit; p_drop })

  let capacity_codec =
    variant "capacity"
      (fun () ->
        Fault_plan.
          [
            Flap_schedule [];
            Flap_markov { mean_up = 0.; mean_down = 0.; factor = 0. };
          ])
      (fun o -> function
        | Fault_plan.Flap_schedule steps ->
            tag o "schedule";
            let steps = req o "steps" (list (pair float float)) steps in
            Fault_plan.Flap_schedule steps
        | Fault_plan.Flap_markov r ->
            tag o "markov";
            let mean_up = req o "mean_up" float r.mean_up in
            let mean_down = req o "mean_down" float r.mean_down in
            let factor = req o "factor" float r.factor in
            Fault_plan.Flap_markov { mean_up; mean_down; factor })

  let delay_codec =
    record "delay" { Fault_plan.fixed = 0.; jitter = 0.; reorder = false }
      (fun o (d : Fault_plan.delay) ->
        let fixed = req o "fixed" float d.fixed in
        let jitter = opt o "jitter" float d.jitter in
        { Fault_plan.fixed; jitter; reorder = opt o "reorder" bool d.reorder })

  let blackout_codec =
    record "blackout" { Fault_plan.start = 0.; duration = 0.; reset = false }
      (fun o (b : Fault_plan.blackout) ->
        let start = req o "start" float b.start in
        let duration = req o "duration" float b.duration in
        { Fault_plan.start; duration; reset = opt o "reset" bool b.reset })

  let fault_codec =
    record "fault" Fault_plan.none (fun o (p : Fault_plan.t) ->
        let seed = opt o "seed" int p.seed in
        let loss k v = opt o k (nullable loss_codec) v in
        let bcn_pos_loss = loss "bcn_pos_loss" p.bcn_pos_loss in
        let bcn_neg_loss = loss "bcn_neg_loss" p.bcn_neg_loss in
        let pause_loss = loss "pause_loss" p.pause_loss in
        let delay = opt o "delay" (nullable delay_codec) p.delay in
        let capacity = opt o "capacity" (nullable capacity_codec) p.capacity in
        let blackout = opt o "blackout" (nullable blackout_codec) p.blackout in
        {
          Fault_plan.seed;
          bcn_pos_loss;
          bcn_neg_loss;
          pause_loss;
          delay;
          capacity;
          blackout;
        })

  let codec =
    record "scenario" (bcn Fluid.Params.default)
      (fun o s ->
        let v = req o "v" int (doc_version s.model) in
        if v < 1 || v > version then
          bad "scenario: unsupported encoding version %d" v;
        let params = lazy (req o "params" params_codec s.params) in
        let model = req o "model" (model_codec params) s.model in
        (* The version is a pure function of the content, so canonical
           bytes stay 1:1 with scenarios: a v1 document can never smuggle
           in an RCP arm, and an inflated-version copy of a v1 document is
           rejected rather than silently re-keyed. *)
        if v <> doc_version model then
          bad "scenario: version %d does not match the model (canonical is %d)"
            v (doc_version model);
        let params = Lazy.force params in
        let t_end = opt o "t_end" float s.t_end in
        let sample_dt = opt o "sample_dt" float s.sample_dt in
        let initial_rate =
          opt o "initial_rate" (nullable float) s.initial_rate
        in
        let control_delay = opt o "control_delay" float s.control_delay in
        let seed = opt o "seed" int s.seed in
        let replicas = opt o "replicas" int s.replicas in
        let workload = opt o "workload" (list workload_codec) s.workload in
        let fault = opt o "fault" (nullable fault_codec) s.fault in
        let s =
          {
            params;
            model;
            t_end;
            sample_dt;
            initial_rate;
            control_delay;
            workload;
            fault = None;
            seed;
            replicas;
          }
        in
        (* an empty plan normalises away, as in [with_fault] *)
        validate (match fault with Some p -> with_fault s p | None -> s))
end

let encode s = Json_read.encode Wire.codec s
let encode_params p = Json_read.encode Wire.params_codec p
let decode src = Json_read.decode Wire.codec src
let of_json j = Json_read.of_json Wire.codec j

let decode_exn src =
  match decode src with
  | Ok s -> s
  | Error msg -> invalid_arg ("Scenario.decode: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Compilation: one arm per protocol                                   *)
(* ------------------------------------------------------------------ *)

type hooks = {
  channel : Runner.control_channel;
  setup : Engine.t -> Switch.t -> unit;
}

type outcome =
  | Bcn_results of Runner.result array
  | E2cm_result of E2cm.result
  | Fera_result of Fera.result
  | Multihop_result of Multihop.result
  | Rcp_result of Rcp.result

type ('c, 'r) compiled = {
  configs : 'c array;
  run_many : ?jobs:int -> 'c array -> 'r array;
  wire : ('c -> hooks -> 'c) option;
  pack : 'r array -> outcome;
}

type runnable = Runnable : ('c, 'r) compiled -> runnable

(* Cross-traffic flow ids run from [n_flows] upward, in list order. *)
let start_workloads s e sw =
  let next = ref s.params.Fluid.Params.n_flows in
  let fresh k =
    let id = !next in
    next := id + k;
    id
  in
  let sink e pkt = Switch.receive sw e pkt in
  List.iter
    (fun spec ->
      let w =
        match spec with
        | Cbr { rate } -> Workload.cbr ~id:(fresh 1) ~rate
        | Poisson { mean_rate; seed } ->
            Workload.poisson ~id:(fresh 1) ~mean_rate ~seed
        | On_off { peak_rate; mean_on; mean_off; seed } ->
            Workload.on_off ~id:(fresh 1) ~peak_rate ~mean_on ~mean_off ~seed
        | Incast { senders; burst_frames; period; jitter; seed } ->
            let first = fresh senders in
            let ids = List.init senders (fun i -> first + i) in
            Workload.incast ~ids ~burst_frames ~period ~jitter ~seed ()
      in
      Workload.start w e ~sink)
    s.workload

(* One config per replica; [s] is already validated. Bernoulli replica
   [i] samples with a fresh RNG seeded [seed + i]. *)
let bcn_configs s k =
  let base =
    Runner.default_config ~t_end:s.t_end ~sample_dt:s.sample_dt s.params
  in
  let base =
    {
      base with
      Runner.initial_rate =
        Option.value s.initial_rate ~default:base.Runner.initial_rate;
      control_delay = s.control_delay;
      mode = k.mode;
      positive_to_untagged = k.positive_to_untagged;
      broadcast_feedback = k.broadcast_feedback;
      enable_bcn = k.enable_bcn;
      enable_pause = k.enable_pause;
      pause_resume = k.pause_resume;
    }
  in
  match k.sampling with
  | Deterministic -> [| base |]
  | Timer p -> [| { base with Runner.sampling = Switch.Timer p } |]
  | Bernoulli ->
      Array.init s.replicas (fun i -> Runner.with_seed base (s.seed + i))

let runner_configs s =
  let s = validate s in
  match s.model with
  | Bcn k -> bcn_configs s k
  | _ -> invalid_arg "Scenario.runner_configs: not a BCN scenario"

(* Fault installation runs before whatever the config already runs at
   setup time (workload start), and both see the live switch. *)
let setup_before f = function
  | None -> Some f
  | Some prev ->
      Some
        (fun e sw ->
          f e sw;
          prev e sw)

let single config run_many wire pack =
  Runnable
    {
      configs = [| config |];
      run_many;
      wire;
      pack =
        (function
        | [| r |] -> pack r
        | rs ->
            invalid_arg
              (Printf.sprintf "Scenario.compile: expected 1 result, got %d"
                 (Array.length rs)));
    }

let compile s =
  let s = validate s in
  let initial_rate default = Option.value s.initial_rate ~default in
  match s.model with
  | Bcn k ->
      let cfgs = bcn_configs s k in
      let cfgs =
        if s.workload = [] then cfgs
        else
          Array.map
            (fun cfg ->
              { cfg with Runner.on_setup = Some (start_workloads s) })
            cfgs
      in
      Runnable
        {
          configs = cfgs;
          run_many = Runner.run_many;
          wire =
            Some
              (fun cfg h ->
                {
                  cfg with
                  Runner.control_channel = Some h.channel;
                  on_setup = setup_before h.setup cfg.Runner.on_setup;
                });
          pack = (fun rs -> Bcn_results rs);
        }
  | E2cm { interval } ->
      let base =
        E2cm.default_config ~t_end:s.t_end ~sample_dt:s.sample_dt s.params
      in
      (* no switch: only channel faults exist for this model (validate
         enforces it), so [setup] has nothing to arm *)
      single
        {
          base with
          E2cm.initial_rate = initial_rate base.E2cm.initial_rate;
          control_delay = s.control_delay;
          interval;
        }
        E2cm.run_many
        (Some (fun cfg h -> { cfg with E2cm.control_channel = Some h.channel }))
        (fun r -> E2cm_result r)
  | Fera { interval; target_util } ->
      let base =
        Fera.default_config ~t_end:s.t_end ~sample_dt:s.sample_dt s.params
      in
      single
        {
          base with
          Fera.initial_rate = initial_rate base.Fera.initial_rate;
          control_delay = s.control_delay;
          interval;
          target_util;
        }
        Fera.run_many
        (Some (fun cfg h -> { cfg with Fera.control_channel = Some h.channel }))
        (fun r -> Fera_result r)
  | Multihop { c_a; c_b; n_long; n_short; strict_tagging } ->
      let base =
        Multihop.default_config ~t_end:s.t_end ~n_long ~n_short s.params
      in
      single
        {
          base with
          Multihop.c_a;
          c_b;
          sample_dt = s.sample_dt;
          initial_rate = initial_rate base.Multihop.initial_rate;
          control_delay = s.control_delay;
          strict_tagging;
        }
        Multihop.run_many None
        (fun r -> Multihop_result r)
  | Rcp { alpha; beta; interval; variant } ->
      let base =
        Rcp.default_config ~t_end:s.t_end ~sample_dt:s.sample_dt s.params
      in
      single
        {
          base with
          Rcp.initial_rate = initial_rate base.Rcp.initial_rate;
          control_delay = s.control_delay;
          alpha;
          beta;
          interval;
          variant;
        }
        Rcp.run_many
        (Some
           (fun cfg h ->
             {
               cfg with
               Rcp.control_channel = Some h.channel;
               on_setup = setup_before h.setup cfg.Rcp.on_setup;
             }))
        (fun r -> Rcp_result r)

(* ------------------------------------------------------------------ *)
(* The protocol-agnostic view of an outcome                            *)
(* ------------------------------------------------------------------ *)

type run_stats = {
  queue : Numerics.Series.t;
  utilization : float;
  drops : int;
  messages : int;
  final_rates : float array option;
}

let outcome_model = function
  | Bcn_results _ -> "bcn"
  | E2cm_result _ -> "e2cm"
  | Fera_result _ -> "fera"
  | Multihop_result _ -> "multihop"
  | Rcp_result _ -> "rcp"

let stats ?final_rates queue ~utilization ~drops ~messages =
  { queue; utilization; drops; messages; final_rates }

let outcome_stats = function
  | Bcn_results rs ->
      Array.map
        (fun (r : Runner.result) ->
          stats r.Runner.queue ~utilization:r.Runner.utilization
            ~drops:r.Runner.drops
            ~messages:(r.Runner.bcn_positive + r.Runner.bcn_negative)
            ~final_rates:r.Runner.final_rates)
        rs
  | E2cm_result r ->
      [|
        stats r.E2cm.queue ~utilization:r.E2cm.utilization ~drops:r.E2cm.drops
          ~messages:r.E2cm.messages ~final_rates:r.E2cm.final_rates;
      |]
  | Fera_result r ->
      [|
        stats r.Fera.queue ~utilization:r.Fera.utilization ~drops:r.Fera.drops
          ~messages:r.Fera.advertisements ~final_rates:r.Fera.final_rates;
      |]
  | Multihop_result r ->
      [|
        stats r.Multihop.queue_b ~utilization:r.Multihop.utilization_b
          ~drops:(r.Multihop.drops_a + r.Multihop.drops_b)
          ~messages:r.Multihop.bcn_messages;
      |]
  | Rcp_result r ->
      [|
        stats r.Rcp.queue ~utilization:r.Rcp.utilization ~drops:r.Rcp.drops
          ~messages:r.Rcp.feedbacks ~final_rates:r.Rcp.final_rates;
      |]
