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
let doc_version s = match s.model with Rcp _ -> 2 | _ -> 1

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
(* Canonical encoding                                                  *)
(* ------------------------------------------------------------------ *)

module J = Telemetry.Json

let enc_float f = J.float_full f
let enc_int = J.int
let enc_bool = J.bool

let encode_params (p : Fluid.Params.t) =
  J.obj
    [
      ("n_flows", enc_int p.Fluid.Params.n_flows);
      ("capacity", enc_float p.Fluid.Params.capacity);
      ("w", enc_float p.Fluid.Params.w);
      ("pm", enc_float p.Fluid.Params.pm);
      ("q0", enc_float p.Fluid.Params.q0);
      ("buffer", enc_float p.Fluid.Params.buffer);
      ("qsc", enc_float p.Fluid.Params.qsc);
      ("gi", enc_float p.Fluid.Params.gi);
      ("gd", enc_float p.Fluid.Params.gd);
      ("ru", enc_float p.Fluid.Params.ru);
      ("mu", enc_float p.Fluid.Params.mu);
    ]

let enc_sampling = function
  | Deterministic -> J.obj [ ("kind", J.str "deterministic") ]
  | Bernoulli -> J.obj [ ("kind", J.str "bernoulli") ]
  | Timer p -> J.obj [ ("kind", J.str "timer"); ("period", enc_float p) ]

let enc_model = function
  | Bcn k ->
      J.obj
        [
          ("kind", J.str "bcn");
          ( "mode",
            J.str (match k.mode with Source.Literal -> "literal" | Source.Zoh_fluid -> "zoh") );
          ("sampling", enc_sampling k.sampling);
          ("positive_to_untagged", enc_bool k.positive_to_untagged);
          ("broadcast_feedback", enc_bool k.broadcast_feedback);
          ("enable_bcn", enc_bool k.enable_bcn);
          ("enable_pause", enc_bool k.enable_pause);
          ("pause_resume", enc_float k.pause_resume);
        ]
  | E2cm { interval } ->
      J.obj [ ("kind", J.str "e2cm"); ("interval", enc_float interval) ]
  | Fera { interval; target_util } ->
      J.obj
        [
          ("kind", J.str "fera");
          ("interval", enc_float interval);
          ("target_util", enc_float target_util);
        ]
  | Multihop { c_a; c_b; n_long; n_short; strict_tagging } ->
      J.obj
        [
          ("kind", J.str "multihop");
          ("c_a", enc_float c_a);
          ("c_b", enc_float c_b);
          ("n_long", enc_int n_long);
          ("n_short", enc_int n_short);
          ("strict_tagging", enc_bool strict_tagging);
        ]
  | Rcp { alpha; beta; interval; variant } ->
      J.obj
        [
          ("kind", J.str "rcp");
          ("alpha", enc_float alpha);
          ("beta", enc_float beta);
          ("interval", enc_float interval);
          ( "variant",
            J.str
              (match variant with
              | Fluid.Rcp.By_capacity -> "by_capacity"
              | Fluid.Rcp.By_load -> "by_load") );
        ]

let enc_workload = function
  | Cbr { rate } -> J.obj [ ("kind", J.str "cbr"); ("rate", enc_float rate) ]
  | Poisson { mean_rate; seed } ->
      J.obj
        [
          ("kind", J.str "poisson");
          ("mean_rate", enc_float mean_rate);
          ("seed", enc_int seed);
        ]
  | On_off { peak_rate; mean_on; mean_off; seed } ->
      J.obj
        [
          ("kind", J.str "on_off");
          ("peak_rate", enc_float peak_rate);
          ("mean_on", enc_float mean_on);
          ("mean_off", enc_float mean_off);
          ("seed", enc_int seed);
        ]
  | Incast { senders; burst_frames; period; jitter; seed } ->
      J.obj
        [
          ("kind", J.str "incast");
          ("senders", enc_int senders);
          ("burst_frames", enc_int burst_frames);
          ("period", enc_float period);
          ("jitter", enc_float jitter);
          ("seed", enc_int seed);
        ]

let enc_loss = function
  | Fault_plan.Bernoulli p ->
      J.obj [ ("kind", J.str "bernoulli"); ("p", enc_float p) ]
  | Fault_plan.Burst { p_enter; p_exit; p_drop } ->
      J.obj
        [
          ("kind", J.str "burst");
          ("p_enter", enc_float p_enter);
          ("p_exit", enc_float p_exit);
          ("p_drop", enc_float p_drop);
        ]

let enc_opt enc = function None -> "null" | Some v -> enc v

let enc_capacity = function
  | Fault_plan.Flap_schedule steps ->
      J.obj
        [
          ("kind", J.str "schedule");
          ( "steps",
            J.arr
              (List.map
                 (fun (t, f) -> J.arr [ enc_float t; enc_float f ])
                 steps) );
        ]
  | Fault_plan.Flap_markov { mean_up; mean_down; factor } ->
      J.obj
        [
          ("kind", J.str "markov");
          ("mean_up", enc_float mean_up);
          ("mean_down", enc_float mean_down);
          ("factor", enc_float factor);
        ]

let enc_fault (p : Fault_plan.t) =
  J.obj
    [
      ("seed", enc_int p.Fault_plan.seed);
      ("bcn_pos_loss", enc_opt enc_loss p.Fault_plan.bcn_pos_loss);
      ("bcn_neg_loss", enc_opt enc_loss p.Fault_plan.bcn_neg_loss);
      ("pause_loss", enc_opt enc_loss p.Fault_plan.pause_loss);
      ( "delay",
        enc_opt
          (fun (d : Fault_plan.delay) ->
            J.obj
              [
                ("fixed", enc_float d.Fault_plan.fixed);
                ("jitter", enc_float d.Fault_plan.jitter);
                ("reorder", enc_bool d.Fault_plan.reorder);
              ])
          p.Fault_plan.delay );
      ("capacity", enc_opt enc_capacity p.Fault_plan.capacity);
      ( "blackout",
        enc_opt
          (fun (b : Fault_plan.blackout) ->
            J.obj
              [
                ("start", enc_float b.Fault_plan.start);
                ("duration", enc_float b.Fault_plan.duration);
                ("reset", enc_bool b.Fault_plan.reset);
              ])
          p.Fault_plan.blackout );
    ]

let encode s =
  let s = validate s in
  J.obj
    [
      ("v", enc_int (doc_version s));
      ("model", enc_model s.model);
      ("params", encode_params s.params);
      ("t_end", enc_float s.t_end);
      ("sample_dt", enc_float s.sample_dt);
      ("initial_rate", enc_opt enc_float s.initial_rate);
      ("control_delay", enc_float s.control_delay);
      ("seed", enc_int s.seed);
      ("replicas", enc_int s.replicas);
      ("workload", J.arr (List.map enc_workload s.workload));
      ("fault", enc_opt enc_fault s.fault);
    ]

(* ------------------------------------------------------------------ *)
(* Decoding: over the shared minimal JSON reader                       *)
(* ------------------------------------------------------------------ *)

(* [Json_read.t] shadows the scenario [t] from here down; everything
   below builds scenario values via record literals, so nothing needs
   the name. *)
open Json_read


(* -- component decoders ----------------------------------------------- *)

let dec_params j =
  let what = "params" in
  let fields = as_obj what j in
  check_known what
    [ "n_flows"; "capacity"; "w"; "pm"; "q0"; "buffer"; "qsc"; "gi"; "gd";
      "ru"; "mu" ]
    fields;
  let opt k = match field fields k with Some (Num f) -> Some f | Some _ -> bad "params.%s: expected a number" k | None -> None in
  Fluid.Params.make ?w:(opt "w") ?pm:(opt "pm") ?qsc:(opt "qsc")
    ?mu:(opt "mu") ~n_flows:(get_int what fields "n_flows")
    ~capacity:(get_float what fields "capacity")
    ~q0:(get_float what fields "q0")
    ~buffer:(get_float what fields "buffer")
    ~gi:(get_float what fields "gi") ~gd:(get_float what fields "gd")
    ~ru:(get_float what fields "ru") ()

let dec_sampling j =
  let what = "sampling" in
  let fields = as_obj what j in
  check_known what [ "kind"; "period" ] fields;
  match get_str what fields "kind" with
  | "deterministic" -> Deterministic
  | "bernoulli" -> Bernoulli
  | "timer" -> Timer (get_float what fields "period")
  | other -> bad "sampling: unknown kind %S" other

let dec_model params j =
  let what = "model" in
  let fields = as_obj what j in
  match get_str what fields "kind" with
  | "bcn" ->
      check_known what
        [ "kind"; "mode"; "sampling"; "positive_to_untagged";
          "broadcast_feedback"; "enable_bcn"; "enable_pause"; "pause_resume" ]
        fields;
      let mode =
        match field fields "mode" with
        | None -> default_knobs.mode
        | Some (Jstr "literal") -> Source.Literal
        | Some (Jstr "zoh") -> Source.Zoh_fluid
        | Some (Jstr other) -> bad "model.mode: unknown mode %S" other
        | Some _ -> bad "model.mode: expected a string"
      in
      let sampling =
        match field fields "sampling" with
        | None -> default_knobs.sampling
        | Some j -> dec_sampling j
      in
      Bcn
        {
          mode;
          sampling;
          positive_to_untagged =
            get_bool_opt what fields "positive_to_untagged"
              ~default:default_knobs.positive_to_untagged;
          broadcast_feedback =
            get_bool_opt what fields "broadcast_feedback"
              ~default:default_knobs.broadcast_feedback;
          enable_bcn =
            get_bool_opt what fields "enable_bcn"
              ~default:default_knobs.enable_bcn;
          enable_pause =
            get_bool_opt what fields "enable_pause"
              ~default:default_knobs.enable_pause;
          pause_resume =
            get_float_opt what fields "pause_resume"
              ~default:default_knobs.pause_resume;
        }
  | "e2cm" ->
      check_known what [ "kind"; "interval" ] fields;
      E2cm { interval = get_float what fields "interval" }
  | "fera" ->
      check_known what [ "kind"; "interval"; "target_util" ] fields;
      Fera
        {
          interval = get_float what fields "interval";
          target_util = get_float_opt what fields "target_util" ~default:0.95;
        }
  | "multihop" ->
      check_known what
        [ "kind"; "c_a"; "c_b"; "n_long"; "n_short"; "strict_tagging" ]
        fields;
      let c = params.Fluid.Params.capacity in
      Multihop
        {
          c_a = get_float_opt what fields "c_a" ~default:c;
          c_b = get_float_opt what fields "c_b" ~default:(c /. 2.);
          n_long = get_int_opt what fields "n_long" ~default:10;
          n_short = get_int_opt what fields "n_short" ~default:10;
          strict_tagging =
            get_bool_opt what fields "strict_tagging" ~default:true;
        }
  | "rcp" ->
      check_known what [ "kind"; "alpha"; "beta"; "interval"; "variant" ]
        fields;
      Rcp
        {
          alpha =
            get_float_opt what fields "alpha"
              ~default:Fluid.Rcp.default_alpha;
          beta =
            get_float_opt what fields "beta" ~default:Fluid.Rcp.default_beta;
          interval =
            get_float_opt what fields "interval"
              ~default:Fluid.Rcp.default_tau;
          variant =
            (match field fields "variant" with
            | None | Some (Jstr "by_capacity") -> Fluid.Rcp.By_capacity
            | Some (Jstr "by_load") -> Fluid.Rcp.By_load
            | Some (Jstr other) -> bad "model.variant: unknown variant %S" other
            | Some _ -> bad "model.variant: expected a string");
        }
  | other -> bad "model: unknown kind %S" other

let dec_workload j =
  let what = "workload" in
  let fields = as_obj what j in
  match get_str what fields "kind" with
  | "cbr" ->
      check_known what [ "kind"; "rate" ] fields;
      Cbr { rate = get_float what fields "rate" }
  | "poisson" ->
      check_known what [ "kind"; "mean_rate"; "seed" ] fields;
      Poisson
        {
          mean_rate = get_float what fields "mean_rate";
          seed = get_int_opt what fields "seed" ~default:0;
        }
  | "on_off" ->
      check_known what [ "kind"; "peak_rate"; "mean_on"; "mean_off"; "seed" ]
        fields;
      On_off
        {
          peak_rate = get_float what fields "peak_rate";
          mean_on = get_float what fields "mean_on";
          mean_off = get_float what fields "mean_off";
          seed = get_int_opt what fields "seed" ~default:0;
        }
  | "incast" ->
      check_known what
        [ "kind"; "senders"; "burst_frames"; "period"; "jitter"; "seed" ]
        fields;
      Incast
        {
          senders = get_int what fields "senders";
          burst_frames = get_int what fields "burst_frames";
          period = get_float what fields "period";
          jitter = get_float_opt what fields "jitter" ~default:0.;
          seed = get_int_opt what fields "seed" ~default:0;
        }
  | other -> bad "workload: unknown kind %S" other

let dec_loss j =
  let what = "loss" in
  let fields = as_obj what j in
  match get_str what fields "kind" with
  | "bernoulli" ->
      check_known what [ "kind"; "p" ] fields;
      Fault_plan.Bernoulli (get_float what fields "p")
  | "burst" ->
      check_known what [ "kind"; "p_enter"; "p_exit"; "p_drop" ] fields;
      Fault_plan.Burst
        {
          p_enter = get_float what fields "p_enter";
          p_exit = get_float what fields "p_exit";
          p_drop = get_float what fields "p_drop";
        }
  | other -> bad "loss: unknown kind %S" other

let dec_capacity j =
  let what = "capacity" in
  let fields = as_obj what j in
  match get_str what fields "kind" with
  | "schedule" ->
      check_known what [ "kind"; "steps" ] fields;
      let steps =
        match field fields "steps" with
        | Some (Jarr items) ->
            List.map
              (function
                | Jarr [ Num t; Num f ] -> (t, f)
                | _ -> bad "capacity.steps: expected [time, factor] pairs")
              items
        | _ -> bad "capacity.steps: expected an array"
      in
      Fault_plan.Flap_schedule steps
  | "markov" ->
      check_known what [ "kind"; "mean_up"; "mean_down"; "factor" ] fields;
      Fault_plan.Flap_markov
        {
          mean_up = get_float what fields "mean_up";
          mean_down = get_float what fields "mean_down";
          factor = get_float what fields "factor";
        }
  | other -> bad "capacity: unknown kind %S" other

let dec_opt dec = function Null -> None | j -> Some (dec j)

let dec_fault j =
  let what = "fault" in
  let fields = as_obj what j in
  check_known what
    [ "seed"; "bcn_pos_loss"; "bcn_neg_loss"; "pause_loss"; "delay";
      "capacity"; "blackout" ]
    fields;
  let opt k dec = Option.bind (field fields k) (dec_opt dec) in
  {
    Fault_plan.seed = get_int_opt what fields "seed" ~default:0;
    bcn_pos_loss = opt "bcn_pos_loss" dec_loss;
    bcn_neg_loss = opt "bcn_neg_loss" dec_loss;
    pause_loss = opt "pause_loss" dec_loss;
    delay =
      opt "delay" (fun j ->
          let f = as_obj "delay" j in
          check_known "delay" [ "fixed"; "jitter"; "reorder" ] f;
          {
            Fault_plan.fixed = get_float "delay" f "fixed";
            jitter = get_float_opt "delay" f "jitter" ~default:0.;
            reorder = get_bool_opt "delay" f "reorder" ~default:false;
          });
    capacity = opt "capacity" dec_capacity;
    blackout =
      opt "blackout" (fun j ->
          let f = as_obj "blackout" j in
          check_known "blackout" [ "start"; "duration"; "reset" ] f;
          {
            Fault_plan.start = get_float "blackout" f "start";
            duration = get_float "blackout" f "duration";
            reset = get_bool_opt "blackout" f "reset" ~default:false;
          });
  }

let dec_scenario j =
  let what = "scenario" in
  let fields = as_obj what j in
  check_known what
    [ "v"; "model"; "params"; "t_end"; "sample_dt"; "initial_rate";
      "control_delay"; "seed"; "replicas"; "workload"; "fault" ]
    fields;
  let v = get_int what fields "v" in
  if v < 1 || v > version then
    bad "scenario: unsupported encoding version %d" v;
  let params =
    match field fields "params" with
    | Some j -> dec_params j
    | None -> bad "scenario: missing field \"params\""
  in
  let model =
    match field fields "model" with
    | Some j -> dec_model params j
    | None -> bad "scenario: missing field \"model\""
  in
  (* The version is a pure function of the content ([doc_version]), so
     canonical bytes stay 1:1 with scenarios: a v1 document can never
     smuggle in an RCP arm, and an inflated-version copy of a v1
     document is rejected rather than silently re-keyed. *)
  let required = match model with Rcp _ -> 2 | _ -> 1 in
  if v <> required then
    bad "scenario: version %d does not match the model (canonical is %d)" v
      required;
  {
    params;
    model;
    t_end = get_float_opt what fields "t_end" ~default:default_t_end;
    sample_dt = get_float_opt what fields "sample_dt" ~default:default_sample_dt;
    initial_rate =
      (match field fields "initial_rate" with
      | None | Some Null -> None
      | Some (Num f) -> Some f
      | Some _ -> bad "scenario.initial_rate: expected a number or null");
    control_delay =
      get_float_opt what fields "control_delay" ~default:default_control_delay;
    seed = get_int_opt what fields "seed" ~default:0;
    replicas = get_int_opt what fields "replicas" ~default:1;
    workload =
      (match field fields "workload" with
      | None | Some Null -> []
      | Some (Jarr items) -> List.map dec_workload items
      | Some _ -> bad "scenario.workload: expected an array");
    fault =
      (match field fields "fault" with
      | None | Some Null -> None
      | Some j ->
          let p = dec_fault j in
          if Fault_plan.is_none p then None else Some p);
  }

let of_json j =
  match validate (dec_scenario j) with
  | s -> Ok s
  | exception Bad msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let decode src =
  match parse src with
  | j -> of_json j
  | exception Bad msg -> Error msg

let decode_exn src =
  match decode src with Ok s -> s | Error msg -> invalid_arg ("Scenario.decode: " ^ msg)

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
