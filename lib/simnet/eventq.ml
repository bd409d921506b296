(* Structure-of-arrays 4-ary min-heap.

   The hot path of the discrete-event engine pushes and pops one entry
   per simulated event, so the queue must not allocate per operation.
   Instead of an array of boxed { key; seq; value } records (the seed
   implementation, kept as test_simnet's oracle), the heap is three
   parallel arrays:

     keys : float array   -- flat/unboxed: sift comparisons never chase
                             a pointer and never box a float
     seqs : int array     -- FIFO tie-break counters
     vals : 'a array      -- payloads

   Layout and algorithm choices, all for the per-event constant:

   - 4-ary rather than binary: half the depth for the ~10-100 pending
     events a packet simulation carries, and the four children of a node
     sit in adjacent slots of a flat float array (one cache line), so
     the extra comparisons per level are nearly free.
   - hole sifting rather than swapping: an insertion walks a hole
     through the heap and writes the pending entry once at the end,
     instead of rewriting three arrays at every level.
   - [Array.unsafe_*] in the sift loops: every index is derived from
     [len], which the bounds discipline below keeps inside capacity.
   - the pending key crosses into the sift helper through the flat
     [pend] scratch record, never as a function argument: under the
     Closure middle-end a float argument to a non-inlined call is boxed,
     which would put an allocation back on every push.

   [push] therefore allocates nothing (array growth is amortized and
   disappears after warm-up), and [pop_min]/[min_key] are the
   allocation-free counterparts of [pop]/[peek] for callers that cannot
   afford the [Some (key, value)] boxing; the option-returning API is
   kept as a thin wrapper on top.

   The payload array is never created from a float value: empty slots
   hold an immediate dummy ([Obj.magic 0]), so the array is never given
   the flat float-array representation and the polymorphic reads/writes
   below stay tag-checked and safe even for [float Eventq.t]. Freed
   slots are overwritten with the dummy as soon as an entry is popped so
   the queue does not pin dead payloads (callback closures, packets)
   live until the slot happens to be reused. *)

type pend = { mutable pkey : float }

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
  pend : pend;
}

let no_value : unit -> 'a = fun () -> Obj.magic 0

let create () =
  {
    keys = [||];
    seqs = [||];
    vals = [||];
    len = 0;
    next_seq = 0;
    pend = { pkey = 0. };
  }

let size q = q.len
let is_empty q = q.len = 0

let ensure_capacity q =
  let cap = Array.length q.keys in
  if q.len >= cap then begin
    let ncap = Stdlib.max 16 (2 * cap) in
    let ks = Array.make ncap 0. in
    let ss = Array.make ncap 0 in
    let vs = Array.make ncap (no_value ()) in
    Array.blit q.keys 0 ks 0 q.len;
    Array.blit q.seqs 0 ss 0 q.len;
    Array.blit q.vals 0 vs 0 q.len;
    q.keys <- ks;
    q.seqs <- ss;
    q.vals <- vs
  end

(* Walk a hole from leaf slot [i] towards the root until the pending
   entry (key in [q.pend], seq/value as arguments — ints and pointers
   cross calls for free) is in heap order, then write it once. *)
let sift_up_hole q i seq v =
  let keys = q.keys and seqs = q.seqs and vals = q.vals in
  let key = q.pend.pkey in
  let i = ref i in
  let moving = ref true in
  while !moving do
    if !i = 0 then moving := false
    else begin
      let p = (!i - 1) lsr 2 in
      let kp = Array.unsafe_get keys p in
      if key < kp || (key = kp && seq < Array.unsafe_get seqs p) then begin
        Array.unsafe_set keys !i kp;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
        Array.unsafe_set vals !i (Array.unsafe_get vals p);
        i := p
      end
      else moving := false
    end
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

let[@inline] push q key value =
  if key <> key then invalid_arg "Eventq.push: NaN key";
  ensure_capacity q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let i = q.len in
  q.len <- i + 1;
  q.pend.pkey <- key;
  sift_up_hole q i seq value

let[@inline] min_key q =
  if q.len = 0 then invalid_arg "Eventq.min_key: empty queue";
  q.keys.(0)

(* [q.len] has already been decremented; re-insert the old tail entry
   (now at slot [q.len]) walking a hole down from the root, and clear
   the vacated tail slot. *)
let sift_down_from_root q =
  let keys = q.keys and seqs = q.seqs and vals = q.vals in
  let n = q.len in
  let key = Array.unsafe_get keys n in
  let seq = Array.unsafe_get seqs n in
  let v = Array.unsafe_get vals n in
  Array.unsafe_set vals n (no_value ());
  let i = ref 0 in
  let moving = ref true in
  while !moving do
    let base = (!i lsl 2) + 1 in
    if base + 3 < n then begin
      (* Interior node: all four children exist. Straight-line
         tournament — the four keys sit in at most two cache lines and
         stay in registers; ties fall through to a seq comparison only
         on exact key equality. No tuples: Closure would box them. *)
      let k0 = Array.unsafe_get keys base in
      let k1 = Array.unsafe_get keys (base + 1) in
      let k2 = Array.unsafe_get keys (base + 2) in
      let k3 = Array.unsafe_get keys (base + 3) in
      let c01 =
        if
          k1 < k0
          || k1 = k0
             && Array.unsafe_get seqs (base + 1) < Array.unsafe_get seqs base
        then base + 1
        else base
      in
      let c23 =
        if
          k3 < k2
          || k3 = k2
             && Array.unsafe_get seqs (base + 3)
                < Array.unsafe_get seqs (base + 2)
        then base + 3
        else base + 2
      in
      let k01 = Array.unsafe_get keys c01 in
      let k23 = Array.unsafe_get keys c23 in
      let c =
        if
          k23 < k01
          || k23 = k01 && Array.unsafe_get seqs c23 < Array.unsafe_get seqs c01
        then c23
        else c01
      in
      let kc = Array.unsafe_get keys c in
      if kc < key || (kc = key && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set keys !i kc;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set vals !i (Array.unsafe_get vals c);
        i := c
      end
      else moving := false
    end
    else if base >= n then moving := false
    else begin
      (* Bottom fringe: one to three children. *)
      let stop = n - 1 in
      let c = ref base in
      for j = base + 1 to stop do
        let kj = Array.unsafe_get keys j in
        let kc = Array.unsafe_get keys !c in
        if
          kj < kc
          || (kj = kc && Array.unsafe_get seqs j < Array.unsafe_get seqs !c)
        then c := j
      done;
      let c = !c in
      let kc = Array.unsafe_get keys c in
      if kc < key || (kc = key && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set keys !i kc;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set vals !i (Array.unsafe_get vals c);
        i := c
      end
      else moving := false
    end
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

let[@inline] pop_min q =
  if q.len = 0 then invalid_arg "Eventq.pop_min: empty queue";
  let v = q.vals.(0) in
  let last = q.len - 1 in
  q.len <- last;
  if last = 0 then q.vals.(0) <- no_value () else sift_down_from_root q;
  v

let pop q =
  if q.len = 0 then None
  else
    let k = q.keys.(0) in
    Some (k, pop_min q)

let peek q = if q.len = 0 then None else Some (q.keys.(0), q.vals.(0))

let clear q =
  for i = 0 to q.len - 1 do
    q.vals.(i) <- no_value ()
  done;
  q.len <- 0

let drain q =
  let rec go acc =
    match pop q with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []
