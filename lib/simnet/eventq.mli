(** Binary min-heap priority queue keyed by time.

    The discrete-event engine's core data structure. Entries with equal
    timestamps pop in insertion order (FIFO tie-breaking), which keeps
    packet orderings deterministic.

    The heap is stored structure-of-arrays (an unboxed [float array] of
    keys plus parallel sequence/payload arrays), so neither {!push} nor
    {!pop_min} allocates on the minor heap once the queue has reached
    its working capacity. The option-returning {!pop}/{!peek} remain as
    thin wrappers for callers that prefer the boxed API; the engine's
    hot loop uses {!min_key}/{!pop_min}. Popped and cleared slots are
    overwritten immediately so the queue never pins dead payloads
    (e.g. callback closures) until a slot happens to be reused.

    The original record-per-entry implementation survives as the
    property-test oracle in test_simnet. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> float -> 'a -> unit
(** [push q t v] inserts [v] with key [t]. Raises [Invalid_argument] on a
    NaN key. Allocation-free except for amortized capacity growth. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest entry. *)

val pop_min : 'a t -> 'a
(** Remove and return the payload of the earliest entry without boxing
    the result; read the key first with {!min_key} if it is needed.
    Raises [Invalid_argument] on an empty queue. *)

val min_key : 'a t -> float
(** Key of the earliest entry. Raises [Invalid_argument] on an empty
    queue. *)

val peek : 'a t -> (float * 'a) option

val size : 'a t -> int
val is_empty : 'a t -> bool

val clear : 'a t -> unit
(** Discard all entries, releasing every payload reference. *)

val drain : 'a t -> (float * 'a) list
(** Pop everything, in order. *)
