(** The store's on-disk layout, and the only module in the store that
    reads or writes files (apart from the index journal's O_APPEND
    records).

    Every publish is staged under [<root>/tmp/] first, so a reader never
    sees a torn file and a writer killed mid-write leaves only a staged
    orphan for {!Gc} to sweep. *)

val ensure_dir : string -> unit
(** Create a directory and its missing parents. *)

val read : ?off:int -> string -> string option
(** The bytes of a regular file from [off] (default 0) to its end, or
    [None] when the path is absent, is not a regular file, is shorter
    than [off] or cannot be read. Never raises. *)

val publish : ?exclusive:bool -> root:string -> string -> string -> bool
(** [publish ~root path bytes] stages [bytes] under [<root>/tmp/] (a name
    unique per process and domain) and moves them to [path]: by
    [rename], replacing any previous file, or with [~exclusive:true] by
    [link], which fails on an existing target like [O_EXCL] yet only
    ever exposes a complete file. Returns [false] only when an exclusive
    publish finds [path] taken. The staged file never outlives the call. *)

(** {1 Objects} *)

val object_file : root:string -> Key.t -> string
(** [<root>/objects/<hex[0..1]>/<hex>]. *)

val iter_objects : root:string -> (Key.t -> string -> unit) -> unit
(** [f key path] for every validly named file of the object tree. *)

val encode_entry : string -> string
(** An object file: the header
    [dcecc2 <16 hex: payload length> <16 hex: 64-bit check>\n], then the
    payload, built at its exact size. *)

val decode_entry : string -> int option
(** The offset of the payload in an object file whose header is well
    formed and whose check matches, else [None]. The payload runs from
    there to the end of the bytes. Reads both the [dcecc2] header and
    the legacy [dcecc1 <sha256 of payload>\n] one. *)
