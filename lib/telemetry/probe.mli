(** Per-run probe: the handle components emit telemetry through.

    A probe bundles a {!Recorder} (the flight recorder ring) and a
    {!Metrics} registry. Every emitter below is an [@inline] wrapper
    whose body starts with [if p.enabled]; with the disabled probe the
    call compiles down to a load and an untaken branch — no closure, no
    float boxing, no allocation. test_simnet's "allocation" group
    asserts this stays at ~0 minor words per frame on the forwarding
    fast path.

    Install a probe per run ([Simnet.Engine.create ?probe] /
    [Simnet.Runner.run ?probe]); the shared {!disabled} probe is the
    default everywhere and records nothing. A probe is single-domain
    state: create one per replica, merge the registries afterwards. *)

type t = private {
  enabled : bool;
  recorder : Recorder.t;
  metrics : Metrics.t;
}

val disabled : t
(** The shared no-op probe: [enabled = false], zero-capacity recorder.
    Safe to share across domains (never written). *)

val create : ?capacity:int -> unit -> t
(** An enabled probe with a flight recorder retaining the last
    [capacity] events (default [65536]; [0] makes the probe a pure
    event counter + metrics registry). *)

val enabled : t -> bool
val recorder : t -> Recorder.t
val metrics : t -> Metrics.t

(** {1 Emitters (no-ops on a disabled probe)} *)

val enqueue : t -> t:float -> q:float -> bits:float -> flow:int -> seq:int -> unit
val dequeue : t -> t:float -> q:float -> sojourn:float -> flow:int -> seq:int -> unit
val drop : t -> t:float -> q:float -> bits:float -> flow:int -> seq:int -> unit

val bcn : t -> t:float -> fb:float -> q:float -> flow:int -> seq:int -> unit
(** Records [Bcn_negative] when [fb < 0.], [Bcn_positive] otherwise. *)

val pause : t -> t:float -> on:bool -> q:float -> cpid:int -> seq:int -> unit
val rate_update : t -> t:float -> rate:float -> fb:float -> id:int -> cpid:int -> unit
val ode_step : t -> t:float -> h:float -> unit
val ode_reject : t -> t:float -> h:float -> unit

(** Fault-injection emitters (see {!Event} for field semantics; [cls] is
    the injector's frame-class code: 0 = BCN+, 1 = BCN−, 2 = PAUSE). *)

val fault_drop : t -> t:float -> fb:float -> cls:int -> seq:int -> unit
val fault_delay : t -> t:float -> delay:float -> cls:int -> seq:int -> unit
val fault_capacity :
  t -> t:float -> capacity:float -> old_capacity:float -> cpid:int -> unit
val fault_blackout : t -> t:float -> on:bool -> cpid:int -> unit

(** {1 Adapters} *)

val ode_monitor : t -> Numerics.Ode.monitor option
(** [Some] monitor recording [Ode_step]/[Ode_reject] events when the
    probe is enabled, [None] otherwise — pass straight to the
    [?monitor] argument of the solvers. *)

val flush_event_counters : t -> unit
(** Copy the recorder's exact per-kind totals into the metrics registry
    as counters named [events.<kind>] (plus [events.total] and
    [events.overwritten]). Call once at the end of a run, before
    snapshotting or merging. No-op on a disabled probe. *)
