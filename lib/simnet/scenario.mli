(** First-class simulation scenarios with a canonical, versioned
    encoding.

    A {!t} is a {e pure description} of one packet-level experiment:
    which model runs (BCN dumbbell, E2CM, FERA, two-hop multihop, RCP),
    with which {!Fluid.Params.t}, over which horizon, under which cross
    traffic and fault plan, and with which seed/replica structure. It
    subsumes the per-model config records ([Runner.config],
    [E2cm.config], ...) that previously had to be assembled by hand at
    every call site — those remain the execution-layer types; {!compile}
    packages a scenario into a first-class {!runnable} so callers can
    execute any model, wire fault hooks, and consume the {!outcome}
    without a per-model match.

    Because a scenario is pure data, it has a {b canonical encoding}
    ({!encode}): a single-line JSON document with a leading version
    field, a fixed field order, every defaultable field written
    explicitly, and all floats rendered with [%.17g] (round-trip exact).
    Two scenarios are equal iff their encodings are byte-equal, so the
    SHA-256 of the encoding is a sound content-address for cached
    results — that is exactly what [Store.Key.of_scenario] hashes.
    {!decode} accepts any field order and elides defaulted fields, and
    [decode (encode s) = Ok s] for every valid scenario. *)

(** Congestion-point sampling, as pure data. [Bernoulli] carries no RNG
    state — the run derives it from the scenario [seed] (replica [i]
    uses [seed + i]), matching [Runner.with_seed]. *)
type sampling = Deterministic | Bernoulli | Timer of float

(** BCN dumbbell knobs, mirroring the corresponding [Runner.config]
    fields. *)
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
      alpha : float;  (** rate-mismatch gain *)
      beta : float;  (** queue-drain gain; [0] = the ablation *)
      interval : float;  (** control interval, seconds *)
      variant : Fluid.Rcp.variant;
    }  (** explicit-rate feedback ({!Rcp}, {!Fluid.Rcp}) *)

(** Uncontrolled cross traffic injected at the congestion point
    (BCN scenarios only). Flow ids are assigned deterministically from
    [params.n_flows] upward, in list order. *)
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
  initial_rate : float option;  (** [None] = the model's default *)
  control_delay : float;
  model : model;
  workload : workload list;
  fault : Fault_plan.t option;
  seed : int;  (** base seed for Bernoulli sampling; replica i uses seed+i *)
  replicas : int;  (** >= 1; > 1 requires [Bernoulli] sampling *)
}

val version : int
(** Newest encoding version this codec reads (currently 2). A document
    carries the {e smallest} version able to express its content in the
    leading ["v"] field: pre-RCP scenarios still encode — byte for byte
    — as the v1 documents they always were (existing content addresses
    survive), and only [Rcp] scenarios emit v2. {!decode} accepts
    versions 1..{!version} and rejects a ["v"] that disagrees with the
    content, keeping canonical bytes 1:1 with scenarios. *)

(** {1 Constructors} — [t_end = 0.02], [sample_dt = 1e-5],
    [control_delay = 1e-6]; model defaults match the corresponding
    [default_config]. *)

val bcn :
  ?t_end:float ->
  ?sample_dt:float ->
  ?initial_rate:float ->
  ?control_delay:float ->
  ?mode:Source.update_mode ->
  ?sampling:sampling ->
  ?positive_to_untagged:bool ->
  ?broadcast_feedback:bool ->
  ?enable_bcn:bool ->
  ?enable_pause:bool ->
  ?pause_resume:float ->
  Fluid.Params.t ->
  t

val e2cm :
  ?t_end:float ->
  ?sample_dt:float ->
  ?initial_rate:float ->
  ?control_delay:float ->
  ?interval:float ->
  Fluid.Params.t ->
  t

val fera :
  ?t_end:float ->
  ?sample_dt:float ->
  ?initial_rate:float ->
  ?control_delay:float ->
  ?interval:float ->
  ?target_util:float ->
  Fluid.Params.t ->
  t

val multihop :
  ?t_end:float ->
  ?sample_dt:float ->
  ?initial_rate:float ->
  ?control_delay:float ->
  ?c_a:float ->
  ?c_b:float ->
  ?n_long:int ->
  ?n_short:int ->
  ?strict_tagging:bool ->
  Fluid.Params.t ->
  t

val rcp :
  ?t_end:float ->
  ?sample_dt:float ->
  ?initial_rate:float ->
  ?control_delay:float ->
  ?alpha:float ->
  ?beta:float ->
  ?interval:float ->
  ?variant:Fluid.Rcp.variant ->
  Fluid.Params.t ->
  t
(** Defaults: the stock RCP gains ({!Fluid.Rcp.default_alpha} /
    {!Fluid.Rcp.default_beta}), [interval = ]{!Fluid.Rcp.default_tau},
    [By_capacity]. *)

val with_fault : t -> Fault_plan.t -> t
(** [Fault_plan.is_none] plans normalise to no fault, so attaching an
    empty plan does not perturb the key. *)

val with_workload : t -> workload list -> t
val with_seed : t -> int -> t
val with_replicas : t -> int -> t

val validate : t -> t
(** Returns the scenario unchanged or raises [Invalid_argument]:
    positive horizon/sampling period, [replicas >= 1] (and Bernoulli
    sampling when > 1), workloads/replicas restricted to the BCN model,
    positive workload rates, multihop [c_b <= c_a] (hop B is the
    bottleneck), valid fault plan ({!Fault_plan.validate}).
    Fault support follows what a model physically exposes: BCN takes
    any plan; RCP takes loss/delay/capacity (no blackout — there is no
    congestion point to black out); E2CM/FERA take channel faults only
    (loss/delay); multihop takes none. *)

val equal : t -> t -> bool
val describe : t -> string
(** One-line human label, e.g. ["bcn n=50 C=10e9 t_end=0.02 x4"]. *)

(** {1 Canonical encoding} *)

val encode : t -> string
(** Canonical single-line JSON (no trailing newline). Canonical means:
    fixed field order, every field present (no elision), floats in
    [%.17g]. [encode] validates first, so only valid scenarios have an
    encoding. *)

val encode_params : Fluid.Params.t -> string
(** The canonical params sub-object alone — the stable key material for
    caches of fluid-layer (non-simulation) derivations. *)

val decode : string -> (t, string) result
(** Parse an encoding: any field order, defaultable fields may be
    elided, unknown fields are an error. The result is validated.
    [decode (encode s) = Ok s]. *)

val of_json : Json_read.t -> (t, string) result
(** {!decode} from an already-parsed {!Json_read.t} — for protocols
    that embed a scenario object inside a larger request document. *)

val decode_exn : string -> t
(** Raises [Invalid_argument] where {!decode} returns [Error]. *)

(** {1 Compilation}

    {!compile} is the single dispatch from scenario to execution: it
    validates, builds the per-model configs (workloads already wired for
    BCN), and packages the model's [run_many] together with a fault-hook
    wiring function and a result packer — one arm per protocol. Callers
    write one model-independent loop:

    {[
      match Scenario.compile s with
      | Scenario.Runnable c ->
          let cfgs =
            match c.wire with
            | None -> c.configs
            | Some wire -> Array.map (fun cfg -> wire cfg hooks) c.configs
          in
          c.pack (c.run_many ~jobs cfgs)
    ]}

    Note the existential: all uses of the compiled record must live
    inside the [match] arm. *)

type hooks = {
  channel : Runner.control_channel;
      (** interposed on the model's feedback path *)
  setup : Engine.t -> Switch.t -> unit;
      (** runs {e before} the config's existing [on_setup] — fault
          installation precedes workload start. Ignored by models
          without a switch (E2CM/FERA — {!validate} restricts their
          fault plans to channel faults — and multihop). *)
}
(** What a fault injector (or any instrument) needs to attach to a
    run. *)

(** The model-tagged results of executing a compiled scenario. *)
type outcome =
  | Bcn_results of Runner.result array  (** one per replica *)
  | E2cm_result of E2cm.result
  | Fera_result of Fera.result
  | Multihop_result of Multihop.result
  | Rcp_result of Rcp.result

type ('c, 'r) compiled = {
  configs : 'c array;
      (** ready to run: one per replica (BCN), else length 1 *)
  run_many : ?jobs:int -> 'c array -> 'r array;
  wire : ('c -> hooks -> 'c) option;
      (** attach hooks to one config; [None] = the model takes no hooks
          (multihop) *)
  pack : 'r array -> outcome;
      (** raises [Invalid_argument] if the array length does not match
          [configs] (1 for single-run models) *)
}

type runnable = Runnable : ('c, 'r) compiled -> runnable

val compile : t -> runnable
(** Validates (so invalid scenarios fail here, not mid-run), then
    dispatches on {!model}. *)

(** {2 Protocol-agnostic outcome view} *)

(** The stats every model can report, letting downstream consumers
    (rendering, merging, margin evaluation) handle all protocols —
    including ones added later — with zero per-protocol code.
    [messages] counts the model's feedback events (BCN frames, E2CM
    messages, FERA advertisements, RCP rate feedbacks); [final_rates]
    is [None] when per-flow rates are not meaningful (multihop). *)
type run_stats = {
  queue : Numerics.Series.t;
  utilization : float;
  drops : int;
  messages : int;
  final_rates : float array option;
}

val outcome_stats : outcome -> run_stats array
(** One entry per replica for [Bcn_results], length 1 otherwise.
    Multihop reports its bottleneck (hop B) queue/utilization and the
    drop total across both hops. *)

val outcome_model : outcome -> string
(** ["bcn"] / ["e2cm"] / ["fera"] / ["multihop"] / ["rcp"] — matches
    {!describe}'s leading token. *)

(** {2 Raw BCN configs (execution layer)} *)

val runner_configs : t -> Runner.config array
(** BCN scenarios only (raises [Invalid_argument] otherwise): one raw
    config per replica ([Runner.with_seed] at [seed + i]), length
    [replicas], Bernoulli sampling seeded from [seed]. Unlike
    {!compile}'s [configs], neither the fault plan nor the workloads
    are wired — this is the probe-level escape hatch. *)
