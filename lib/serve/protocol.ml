open Simnet.Json_read

type command =
  | Compute of Tasks.request
  | Stats
  | Subscribe
  | Cancel of int
  | Shutdown

type request = { id : int; command : command }

type response =
  | Queued of { id : int; key : string }
  | Result of { id : int; warm : bool; dedup : bool; payload : string }
  | Error of { id : int; message : string }
  | Cancelled of { id : int }
  | Stats_reply of { id : int; metrics : (string * float) list }
  | Subscribed of { id : int }
  | Bye of { id : int }
  | Progress of { key : string; state : string; queue_depth : int }
  | Telemetry of { metrics : (string * float) list }

let id o v = req o "id" int v

let axes =
  conv (String.concat ",")
    (fun s ->
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun x -> x <> ""))
    string

let scenario = embed Simnet.Scenario.encode Simnet.Scenario.of_json
let spec = embed Fabric.Spec.encode Fabric.Spec.of_json

(* Decode templates: each arm's defaults. *)
let commands =
  [
    Compute (Tasks.Run (Simnet.Scenario.bcn Fluid.Params.default));
    Compute
      (Tasks.Sweep
         {
           param = "";
           lo = 0.;
           hi = 0.;
           steps = 0;
           log_scale = false;
           buffer = 15e6;
         });
    Compute
      (Tasks.Margin
         {
           axes = [];
           flap_period = 2e-3;
           flap_duty = 0.5;
           t_end = 0.02;
           transient = None;
           iters = None;
           seed = 0;
         });
    Compute
      (Tasks.Region
         {
           param = "";
           lo = 0.;
           hi = 0.;
           param2 = "";
           lo2 = 0.;
           hi2 = 0.;
           buffer = 15e6;
           coarse = 8;
           levels = 3;
         });
    Compute
      (Tasks.Batch
         { spec = Fabric.Spec.Explicit [||]; chunk = 16; as_json = false });
    Stats;
    Subscribe;
    Cancel 0;
    Shutdown;
  ]

let command o = function
  | Compute (Tasks.Run s) ->
      tag o "run";
      Compute (Tasks.Run (req o "scenario" scenario s))
  | Compute (Tasks.Sweep r) ->
      tag o "sweep";
      let param = req o "param" string r.param in
      let lo = req o "from" float r.lo in
      let hi = req o "to" float r.hi in
      let steps = req o "steps" int r.steps in
      let log_scale = opt o "log" bool r.log_scale in
      let buffer = opt o "buffer" float r.buffer in
      Compute (Tasks.Sweep { param; lo; hi; steps; log_scale; buffer })
  | Compute (Tasks.Margin r) ->
      tag o "margin";
      let axes = req o "axes" axes r.axes in
      let flap_period = opt o "flap_period" float r.flap_period in
      let flap_duty = opt o "flap_duty" float r.flap_duty in
      let t_end = opt o "t_end" float r.t_end in
      let transient = maybe o "transient" float r.transient in
      let iters = maybe o "iters" int r.iters in
      let seed = opt o "seed" int r.seed in
      Compute
        (Tasks.Margin
           { axes; flap_period; flap_duty; t_end; transient; iters; seed })
  | Compute (Tasks.Region r) ->
      tag o "region";
      let param = req o "param" string r.param in
      let lo = req o "from" float r.lo in
      let hi = req o "to" float r.hi in
      let param2 = req o "param2" string r.param2 in
      let lo2 = req o "from2" float r.lo2 in
      let hi2 = req o "to2" float r.hi2 in
      let buffer = opt o "buffer" float r.buffer in
      let coarse = opt o "coarse" int r.coarse in
      let levels = opt o "levels" int r.levels in
      Compute
        (Tasks.Region
           { param; lo; hi; param2; lo2; hi2; buffer; coarse; levels })
  | Compute (Tasks.Batch r) ->
      tag o "batch";
      let spec = req o "spec" spec r.spec in
      let chunk = opt o "chunk" int r.chunk in
      let as_json = opt o "json" bool r.as_json in
      Compute (Tasks.Batch { spec; chunk; as_json })
  | Stats -> tag o "stats"; Stats
  | Subscribe -> tag o "subscribe"; Subscribe
  | Cancel target -> tag o "cancel"; Cancel (req o "target" int target)
  | Shutdown -> tag o "shutdown"; Shutdown

let request_codec =
  record "request" { id = 0; command = Stats } (fun o r ->
      let id = id o r.id in
      { id; command = cases o (fun () -> commands) command r.command })

let parse_request line = decode request_codec line
let of_json j = of_json request_codec j
let encode_request ~id command = encode request_codec { id; command } ^ "\n"

(* ---------- responses ---------- *)

let metrics = assoc float

let response_codec =
  variant "response"
    (fun () ->
      [
        Queued { id = 0; key = "" };
        Result { id = 0; warm = false; dedup = false; payload = "" };
        Error { id = 0; message = "" };
        Cancelled { id = 0 };
        Stats_reply { id = 0; metrics = [] };
        Subscribed { id = 0 };
        Bye { id = 0 };
        Progress { key = ""; state = ""; queue_depth = 0 };
        Telemetry { metrics = [] };
      ])
    (fun o r ->
      let event = tag ~field:"event" o in
      match r with
      | Queued r ->
          let id = id o r.id in
          event "queued";
          Queued { id; key = req o "key" string r.key }
      | Result r ->
          let id = id o r.id in
          event "result";
          let warm = opt o "warm" bool r.warm in
          let dedup = opt o "dedup" bool r.dedup in
          let payload = req o "payload" string r.payload in
          Result { id; warm; dedup; payload }
      | Error r ->
          let id = id o r.id in
          event "error";
          Error { id; message = req o "message" string r.message }
      | Cancelled r ->
          let id = id o r.id in
          event "cancelled";
          Cancelled { id }
      | Stats_reply r ->
          let id = id o r.id in
          event "stats";
          Stats_reply { id; metrics = req o "metrics" metrics r.metrics }
      | Subscribed r ->
          let id = id o r.id in
          event "subscribed";
          Subscribed { id }
      | Bye r ->
          let id = id o r.id in
          event "bye";
          Bye { id }
      | Progress r ->
          event "progress";
          let key = req o "key" string r.key in
          let state = req o "state" string r.state in
          let queue_depth = req o "queue_depth" int r.queue_depth in
          Progress { key; state; queue_depth }
      | Telemetry r ->
          event "telemetry";
          Telemetry { metrics = req o "metrics" metrics r.metrics })

let encode_response r = encode response_codec r ^ "\n"
let parse_response line = decode response_codec line
