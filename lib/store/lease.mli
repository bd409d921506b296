(** Work leases: filesystem-native coordination for distributed sweeps.

    A sweep (identified by its manifest {!Key.t}) owns
    [<root>/leases/<sweep-hex>/]; each contiguous point range of the
    manifest is one slot [rNNNNNN.lease] plus a completion marker
    [rNNNNNN.done]. The only synchronization primitive is an exclusive
    [link] of a complete, staged lease file into the slot — atomic across
    processes and failing on an existing slot — so exactly one worker
    wins a free slot, exactly one stealer wins a vacated one, and no
    reader ever sees a torn lease.

    The protocol is {e mostly} exclusive by design: a worker that
    stalls past the TTL can lose its lease while still executing, so
    two workers may compute the same points concurrently. That is safe
    — points are content-addressed, both workers store byte-identical
    entries, and {!Fabric.Merge} reads the store in manifest order —
    so execution is at-least-once while results stay exactly-once,
    with no locks, no server, and no fencing tokens. *)

type info = {
  worker : string;  (** claimant's id, caller-chosen *)
  lo : int;  (** first manifest point index of the range, inclusive *)
  hi : int;  (** last manifest point index, inclusive *)
  beat : float;  (** wall-clock time of the last heartbeat *)
}

val claim :
  Cache.t ->
  sweep:Key.t ->
  range:int ->
  lo:int ->
  hi:int ->
  worker:string ->
  bool
(** Try to claim range slot [range] of [sweep] for [worker] covering
    manifest points [lo..hi]. Returns [false] when another worker holds
    the slot. Raises [Invalid_argument] on an empty or
    newline-containing worker id. *)

val read : Cache.t -> sweep:Key.t -> range:int -> info option
(** Current holder of a slot, or [None] when the slot is unclaimed or
    its file does not parse (foreign bytes, a non-finite beat, a range
    with [lo < 0] or [lo > hi]). {!claim} fails on such a file; {!steal}
    treats it as an expired lease. Never raises. *)

val heartbeat :
  Cache.t -> sweep:Key.t -> range:int -> worker:string -> lo:int -> hi:int -> unit
(** Refresh the beat timestamp (tmp+rename, never torn). Called
    periodically by the holder while executing the range. *)

val release : Cache.t -> sweep:Key.t -> range:int -> unit
(** Remove the lease file (idempotent). *)

val expired : ttl:float -> now:float -> info -> bool
(** [now -. beat > ttl]. *)

val steal :
  Cache.t ->
  sweep:Key.t ->
  range:int ->
  lo:int ->
  hi:int ->
  worker:string ->
  ttl:float ->
  now:float ->
  bool
(** Take over an expired lease: re-read the slot, and if the holder's
    beat is older than [ttl] or the file does not parse, unlink and
    re-claim; an absent file is just claimed. The re-claim's exclusive
    link elects exactly one winner among concurrent stealers. Returns
    [false] when the lease is live or another stealer won. *)

val mark_done : Cache.t -> sweep:Key.t -> range:int -> worker:string -> unit
(** Drop the completion marker for a range (idempotent — duplicate
    completions from duplicated work collapse onto one marker). *)

val is_done : Cache.t -> sweep:Key.t -> range:int -> bool

val clear_done : Cache.t -> sweep:Key.t -> range:int -> unit
(** Revoke a completion marker (idempotent). Workers do this when a
    done range's results went missing — fsck evicted a corrupt point,
    or gc of a deleted-then-restored manifest — so the range becomes
    claimable and heals. *)

val dones : Cache.t -> sweep:Key.t -> int
(** Number of completed ranges — drives status displays. *)

val list : Cache.t -> sweep:Key.t -> (int * info) list
(** Live leases of a sweep, sorted by range slot. *)
