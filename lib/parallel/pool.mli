(** Fixed-size domain pool for deterministic data parallelism.

    The pool owns [size - 1] worker domains plus the calling domain, which
    participates in draining the task queue (so a pool of size [n] really
    applies [n]-way parallelism and [map] never deadlocks even if every
    worker is busy).

    Determinism guarantee: all combinators return results in the order of
    their input regardless of the pool size or scheduling, so any code
    whose tasks are themselves deterministic produces byte-identical
    output under [size = 1] and [size = n]. Tasks must not assume they
    run on any particular domain and must not share unsynchronized
    mutable state with each other.

    Sizing: [create ()] uses the [DCECC_JOBS] environment variable when
    set (clamped to at least 1), otherwise
    [Domain.recommended_domain_count ()]. A pool of size 1 spawns no
    domains at all and runs every combinator sequentially in the caller
    — the graceful fallback path, also forced by [DCECC_JOBS=1]. *)

type t

val default_size : unit -> int
(** [DCECC_JOBS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

val create : ?size:int -> unit -> t
(** Spawn a pool of [size] (default {!default_size}) total lanes,
    i.e. [size - 1] worker domains. Raises [Invalid_argument] if
    [size < 1]. *)

val size : t -> int
(** Total parallelism of the pool (workers + caller). *)

type lane_stats = { lane : int; busy_s : float; tasks_run : int }
(** Wall-clock utilization of one lane. Lane 0 is the calling domain,
    lanes [1..size-1] the workers. *)

val lane_stats : t -> lane_stats array
(** Per-lane busy time and task counts, indexed by lane. Wall-clock
    measurements: they vary run to run and across [jobs] values, so they
    are operational telemetry for utilization reporting — keep them out
    of registries whose snapshots must be deterministic. Safe to call at
    any time (each lane writes only its own slot); a mid-flight read is
    a consistent per-lane snapshot. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent. The pool must not be used
    afterwards. *)

val with_pool : ?size:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)

val submit : t -> (unit -> unit) -> unit
(** Asynchronous fire-and-forget submission for long-lived pools: push
    one task and return immediately; a worker domain picks it up. The
    task must not raise (wrap it) and must arrange its own completion
    signalling. Raises [Invalid_argument] on a pool of size 1 (no worker
    domains — nothing would ever run the task) or after {!shutdown}.
    Tasks still queued at {!shutdown} are drained by the exiting
    workers before they join. *)

val pending : t -> int
(** Number of submitted-but-not-yet-started tasks in the queue — the
    scheduler's queue-depth gauge. A mid-flight snapshot: by the time
    the caller reads it a worker may already have popped a task. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map], order-preserving. If one or more applications
    raise, the exception of the earliest input (by position) is re-raised
    in the caller with its backtrace, after all tasks have finished. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map] with one task per element; order-preserving,
    same exception policy as {!map}. *)

val fan_out : ?jobs:int -> what:string -> ('a -> 'b) -> 'a array -> 'b array
(** [fan_out ~what f arr] maps [f] over [arr] on a fresh pool of [jobs]
    lanes (default {!default_size}) and shuts it down: the one-shot
    fan-out behind every packet model's [run_many] and the store's
    sweeps. Order-preserving, so independent tasks give byte-identical
    results for any [jobs]. An empty input gives [[||]]; [jobs = 1] or
    a single input runs [Array.map] in the caller. Raises
    [Invalid_argument (what ^ ": jobs < 1")] when [jobs < 1]. *)

val parmap_array : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!map_array} but shards the input into contiguous chunks
    (default: enough chunks for ~4 tasks per lane) so per-element
    scheduling overhead is amortized — the right shape for dense
    parameter-grid sweeps. Chunk boundaries depend only on the input
    length and [chunk], never on scheduling, so the result is
    deterministic and equal to [Array.map f arr]. *)

val map_reduce :
  t -> map:('a -> 'b) -> combine:('c -> 'b -> 'c) -> init:'c -> 'a list -> 'c
(** [map_reduce pool ~map ~combine ~init xs] applies [map] in parallel
    and folds the results left-to-right in input order — deterministic
    even for non-commutative [combine]. *)
