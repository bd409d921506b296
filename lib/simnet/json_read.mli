(** The one JSON reader and wire codec of the canonical documents.

    {!parse} reads the subset the {!Telemetry.Json} fragment emitters
    write — objects, arrays, strings with latin-1 [\u] escapes, finite
    doubles, booleans, null — and is strict where the canonical codecs
    need it to be: duplicate object fields, numbers that overflow to
    infinity, nesting deeper than a fixed cap and trailing bytes are
    errors.

    On top of it sit the {e declared codecs}: each wire record (a
    scenario and its parts, a serve request or response, a fabric spec)
    is declared once, as one function over an {!obj} that either emits
    the record's fields or reads them:

    {[
      | Fera r ->
          tag o "fera";
          let interval = req o "interval" float r.interval in
          let target_util = opt o "target_util" float r.target_util in
          Fera { interval; target_util }
    ]}

    The order of the calls is the canonical field order, the value a
    field reads when it is absent comes from the decode template passed
    in place of a real value, and the names asked for are the known
    fields, so encode, decode and the unknown-field check all come from
    that one function. Every decoder returns through one boundary that
    turns any {!Bad} or [Invalid_argument] into [Error]. *)

type t =
  | Null
  | Jbool of bool
  | Num of float
  | Jstr of string
  | Jarr of t list
  | Jobj of (string * t) list

exception Bad of string
(** Every parse or shape error raises [Bad msg]. *)

val bad : ('a, unit, string, 'b) format4 -> 'a
(** [bad fmt ...] raises {!Bad} with a formatted message. *)

val parse : string -> t
(** Parse one complete JSON value; raises {!Bad} on syntax errors,
    duplicate fields, non-finite numbers, nesting deeper than 64 levels,
    or trailing bytes. The duplicate check keeps each object's keys in
    an ordered set, so an object of [m] members costs [O(m log m)] key
    comparisons whatever the keys are; everything else is linear. *)

(** {1 Declared codecs} *)

type 'a codec
type obj

val float : float codec
(** Written [%.17g], so every finite float round-trips exactly. *)

val int : int codec
(** An integral number within [1e15] in magnitude. *)

val bool : bool codec
val string : string codec

val enum : (string * 'a) list -> 'a codec
(** A string naming one of the listed values. *)

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b codec -> 'a codec
(** [conv to_wire of_wire c] carries ['a] as its ['b] wire form. *)

val nullable : 'a codec -> 'a option codec
(** [None] is written [null]. *)

val list : 'a codec -> 'a list codec
val pair : 'a codec -> 'b codec -> ('a * 'b) codec

val assoc : 'a codec -> (string * 'a) list codec
(** An object of free-form keys, in list order. *)

val embed : ('a -> string) -> (t -> ('a, string) result) -> 'a codec
(** A document with its own public codec, nested as one field. *)

val record : string -> 'a -> (obj -> 'a -> 'a) -> 'a codec
(** [record what template decl]: an object whose fields [decl]
    declares. Decoding runs [decl] on [template]; [what] names the
    object in error messages. *)

val variant : string -> (unit -> 'a list) -> (obj -> 'a -> 'a) -> 'a codec
(** [variant what arms decl]: an object whose arm is chosen by a tag
    field. Each arm of [decl] calls {!tag} exactly once. An arm may
    declare {!req}, {!opt} or {!maybe} fields before its tag: to find
    the tag, decoding first runs each arm in a probe mode in which
    those fields emit nothing and read nothing. [arms ()] lists one
    decode template per arm; it is called only when decoding. *)

val cases : obj -> (unit -> 'a list) -> (obj -> 'a -> 'a) -> 'a -> 'a
(** {!variant}'s arms inlined into an enclosing record, after the
    fields it has already declared. *)

val tag : ?field:string -> obj -> string -> unit
(** The arm's name, written to [field] (default ["kind"]). *)

val req : obj -> string -> 'a codec -> 'a -> 'a
(** A field that must be present. *)

val opt : obj -> string -> 'a codec -> 'a -> 'a
(** A field always written, that decodes to the template's value when
    absent. *)

val maybe : obj -> string -> 'a codec -> 'a option -> 'a option
(** A field written only when [Some], and [None] when absent. *)

val encode : 'a codec -> 'a -> string

val decode : 'a codec -> string -> ('a, string) result
(** {!parse} then decode, inside the error boundary. *)

val of_json : 'a codec -> t -> ('a, string) result
(** Decode an already-parsed value, inside the error boundary. *)

(** {1 Field access}

    For ad-hoc readers of parsed objects. [what] names the object in
    error messages (e.g. ["params"] giving
    ["params.gi: expected a number"]). *)

val as_obj : string -> t -> (string * t) list
val field : (string * t) list -> string -> t option
val get_float : string -> (string * t) list -> string -> float
val get_int : string -> (string * t) list -> string -> int
val get_str : string -> (string * t) list -> string -> string
