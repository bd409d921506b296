(** The one shared shape of a packet model.

    Every packet model ([Runner], [E2cm], [Fera], [Rcp], [Multihop],
    [Qcn], [Topology]) is a pure function from a config to a result: it
    builds its own engine and state, wires its protocol, then samples a
    trace while the engine runs to [t_end]. This module holds the
    machinery they share — argument checks, trace sampler, FIFO link,
    paced sources, feedback leg — so a model states only its protocol;
    each [run_many] is {!Parallel.Pool.fan_out} over [run]. *)

type control_channel =
  Engine.t ->
  Packet.t ->
  deliver:(Engine.t -> Packet.t -> unit) ->
  drop:(Engine.t -> Packet.t -> unit) ->
  unit
(** A fault channel between a control-frame emitter (a switch, or a
    model's feedback leg) and delivery. Called synchronously at emission
    time with the frame and two continuations: [deliver] sends the frame
    down the normal delivery leg (propagation delay, then dispatch —
    call it at most once, now or from a scheduled event), [drop]
    disposes of the frame without delivering (recycling it into the
    run's packet pool). Exactly one of the two must eventually be called
    per frame, or the frame leaks from the pool's accounting. *)

val check :
  string -> t_end:float -> sample_dt:float -> ?interval:float -> unit -> unit
(** Raises [Invalid_argument], prefixed with the caller's name (e.g.
    ["E2cm.run"]), unless the horizon, the sample period and, when
    given, the control interval are finite and > 0: a zero or NaN value
    would loop forever or exhaust memory. *)

(** {1 Trace sampler} *)

type trace
(** Sample instants plus one column per traced quantity. *)

val trace :
  ?stop:(unit -> bool) ->
  Engine.t ->
  t_end:float ->
  sample_dt:float ->
  cols:int ->
  (Engine.t -> float array -> unit) ->
  trace
(** [trace e ~t_end ~sample_dt ~cols fill] schedules the sampler now,
    runs the engine until [t_end] and returns the trace. Every
    [sample_dt], up to [ceil (t_end / sample_dt) + 1] samples, it
    records the clock and calls [fill e row] to write this sample's
    [cols] values. A [stop ()] returning [true] after a sample stops the
    engine. *)

val samples : trace -> int
(** Number of samples taken. *)

val series : trace -> int -> Numerics.Series.t
(** [series tr j] is column [j] against time, as fresh copies of both
    arrays (Marshal keeps sharing, so results must not share [ts]). *)

(** {1 FIFO link} *)

type link
(** A tail-drop FIFO drained by one server at a fixed rate. *)

val link : buffer:float -> rate:float -> link
val fifo : link -> Fifo.t

val serve : link -> Engine.t -> unit
(** Start serving the head frame unless the server is busy; each
    completion adds the frame to {!delivered_bits} and serves the
    next. Call after every enqueue. *)

val delivered_bits : link -> float

(** {1 Paced sources} *)

val pace :
  Engine.t -> t_end:float -> float array -> (Engine.t -> int -> unit) -> unit
(** [pace e ~t_end rates emit] starts one paced source per entry of
    [rates]: source [i] first fires after a jitter of
    [(i mod 97) / 97] frame times, then calls [emit e i] and re-arms one
    data frame at [rates.(i)] later (the rate is read after [emit]),
    until the clock passes [t_end]. *)

(** {1 Feedback leg} *)

val feedback :
  control_channel option ->
  delay:float ->
  Engine.t ->
  flow:int ->
  fb:float ->
  (Engine.t -> unit) ->
  unit
(** [feedback channel ~delay] is a sender with its own frame sequence;
    [send e ~flow ~fb react] runs [react] [delay] later. With a channel
    the message first travels as a synthesized BCN frame carrying [fb],
    so loss/delay plans act on it as on BCN feedback; a dropped frame
    never reacts. *)
