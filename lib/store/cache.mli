(** Content-addressed on-disk result cache.

    Layout under the store root:
    {v
    <root>/format              "dcecc-store v1\n" — refuses foreign dirs
    <root>/objects/ab/<key>    entry: header line + payload bytes
    <root>/manifests/<key>     sweep manifests (see {!Manifest})
    <root>/leases/<key>/       fabric work leases (see {!Lease})
    <root>/index.jnl           append-only object index (see {!Index})
    <root>/tmp/                every write, staged, then renamed or linked
    v}

    Every entry's header carries its payload's length and a 64-bit
    checksum of it (the entry's name, its key, already says which
    result it holds); {!find} re-checks on read, and a mismatch
    (truncated write, bit rot) {e evicts} the entry and reports a
    miss, so corruption degrades to recomputation, never to wrong
    results.

    Writes are atomic (unique temp file + [rename] on the same
    filesystem), so concurrent writers — pool domains or separate
    processes sharing one store — race benignly: last rename wins and
    both contents are identical by construction (same key ⇒ same
    material ⇒ same result bytes for a deterministic computation).

    Counters are [Atomic] and therefore meaningful when a sweep fans
    out over {!Parallel.Pool} domains. *)

type t

val open_ : dir:string -> t
(** Create or reopen a store rooted at [dir] (created, including
    parents, if absent). Raises [Failure] when [dir] exists but carries
    a different format stamp — refusing to scribble over a directory
    that is not a store. *)

val root : t -> string

(** {1 Raw byte entries} *)

val find : t -> Key.t -> string option
(** Payload bytes, or [None] on miss {e or} on integrity failure (the
    corrupt entry is evicted first). Counts a hit or a miss. *)

val put : t -> Key.t -> string -> unit
(** Store payload bytes under the key, atomically. *)

val mem : t -> Key.t -> bool
(** Entry file exists (no integrity check, no counter update). *)

val evict : t -> Key.t -> unit
(** Remove an entry (idempotent), keeping the index and the eviction
    counter in lockstep. {!find} calls this on integrity failure; fsck
    calls it on entries whose payload check no longer matches. *)

(** {1 Typed entries (Marshal)} *)

val find_value : t -> Key.t -> 'a option
(** [Marshal] decode of {!find}, read in place from the entry's bytes
    without copying the payload out. The caller owes the type annotation;
    keys must therefore encode everything that determines the payload
    type — which scenario keys do. An undecodable payload evicts like
    corruption. *)

val store_value : t -> Key.t -> 'a -> unit

val memo : t -> Key.t -> (unit -> 'a) -> 'a
(** [memo c k f] returns the cached value for [k], or runs [f], stores
    the result, and returns it. On the store path the returned value is
    the {e parse of the stored bytes}, not [f ()]'s raw return: fresh
    values can physically share blocks with data outside themselves
    (statically allocated float constants, common sub-structures),
    which [Marshal] encodes and a warm read would not reproduce.
    Normalizing makes cold and warm calls structurally identical, so
    downstream serialization is byte-identical either way. *)

(** {1 Statistics} *)

type stats = { hits : int; misses : int; puts : int; evictions : int }

val stats : t -> stats
val reset_stats : t -> unit

val publish_metrics : t -> Telemetry.Metrics.t -> unit
(** Export the counters as [store.hits] / [store.misses] /
    [store.puts] / [store.evictions] / [store.gc_collected], plus the
    index-backed size accounting [store.objects] / [store.bytes]. *)

(** {1 The object index} *)

val index : t -> Index.t
(** The store's on-disk index (opened with the cache; kept in lockstep
    by [put] and evictions). Advisory — see {!Index}. *)

val objects : t -> int
(** Object count through the index: one {!Index.refresh} plus an O(1)
    read, instead of a directory walk. *)

val bytes : t -> int
(** Total on-disk entry bytes (headers + payloads) through the index. *)

val gc_collected : t -> int
(** Objects collected by {!Gc.run} through this handle. *)

val add_gc_collected : t -> int -> unit
(** Used by {!Gc.run} to account its sweep. *)
