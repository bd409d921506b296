(** The serve wire protocol: newline-delimited JSON, one value per line.

    Requests are single-line JSON objects with an integer [id] (echoed
    on every reply so one connection can interleave requests) and a
    [kind] selecting the command; computable kinds carry the same
    vocabulary as the matching CLI flags. Responses are single-line
    objects dispatched on [event]:

    {v
    request:  {"id": 1, "kind": "run", "scenario": {...canonical...}}
              {"id": 2, "kind": "sweep", "param": "gi", "from": 0.5,
               "to": 8, "steps": 12, "log": false, "buffer": 15e6}
              {"id": 3, "kind": "margin", "axes": "bcn-loss",
               "t_end": 0.02, "iters": 8, "seed": 0}
              {"id": 4, "kind": "region", "param": "gi", "from": ...,
               "to": ..., "param2": "gd", "from2": ..., "to2": ...}
              {"id": 7, "kind": "batch", "spec": {"fabric": 1, ...},
               "chunk": 16, "json": false}
              {"id": 5, "kind": "stats" | "subscribe" | "shutdown"}
              {"id": 6, "kind": "cancel", "target": 3}
    response: {"id": N, "event": "queued", "key": "<64 hex>"}
              {"id": N, "event": "result", "warm": b, "dedup": b,
               "payload": "..."}
              {"id": N, "event": "error", "message": "..."}
              {"id": N, "event": "cancelled"}
              {"id": N, "event": "stats", "metrics": {"store.hits": h, ...}}
              {"id": N, "event": "subscribed"}   {"id": N, "event": "bye"}
    broadcast (subscribers only):
              {"event": "progress", "key": "...", "state": "start|done",
               "queue_depth": d}
              {"event": "telemetry", "metrics": {...}}
    v}

    Requests and responses are each declared once on
    {!Simnet.Json_read}'s codec — the same machinery and strictness as
    the canonical scenario codec (unknown fields are errors) — and both
    directions derive from that one declaration. *)

type command =
  | Compute of Tasks.request
  | Stats
  | Subscribe
  | Cancel of int  (** target request id on the same connection *)
  | Shutdown

type request = { id : int; command : command }

val parse_request : string -> (request, string) result
(** One request line (without the newline). A [run] request's
    [scenario] field is decoded by {!Simnet.Scenario.of_json} — the
    canonical codec, same error messages. Never raises: malformed input
    of any shape is an [Error]. *)

val of_json : Simnet.Json_read.t -> (request, string) result
(** {!parse_request} from an already-parsed document. *)

(** {1 Request encoding (client side)} *)

val encode_request : id:int -> command -> string
(** The request line, newline-terminated. *)

(** {1 Responses} *)

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

val encode_response : response -> string
(** The response line, newline-terminated. [Stats_reply]/[Telemetry]
    metrics render as a JSON object in insertion order. *)

val parse_response : string -> (response, string) result
(** Never raises, like {!parse_request}. *)
