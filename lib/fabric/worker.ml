(* The fabric worker loop: claim, execute, steal, repeat until the
   whole sweep is done.

   A worker is a plain process (or an in-process call) sharing one
   store with its peers. All coordination is the store directory:
   lease claims are exclusive file links (Store.Lease), results are
   content-addressed entries, completion markers are .done files. A
   worker therefore needs no channel to its peers, may join or leave
   at any time, and [run] returning means the *sweep* is complete —
   not merely this worker's share — because the final pass loops until
   every range carries a done marker, stealing from any peer whose
   heartbeat went stale on the way. *)

module Lease = Store.Lease

type report = {
  worker : string;
  ranges_claimed : int;
  ranges_stolen : int;
  executed : int;
  cached : int;
}

(* Stable across runs and OCaml versions (unlike Hashtbl.hash), so the
   worker column in merged trace files is comparable between runs. *)
let worker_code id =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h lsl 5) + !h + Char.code c) land 0x3FFFFFFF) id;
  !h

let run ?(jobs = 1) ?(chunk = 16) ?(ttl = 30.) ?(poll = 0.05) ?on_event
    ~worker cache spec =
  if jobs < 1 then invalid_arg "Fabric.Worker.run: jobs < 1";
  let spec = Spec.validate spec in
  let scenarios = Spec.scenarios spec in
  let points = Array.map Store.Key.of_scenario scenarios in
  let manifest = Store.Manifest.create ~points in
  Store.Manifest.save cache manifest;
  let sweep = manifest.Store.Manifest.sweep_key in
  let ranges = Spec.ranges ~total:(Array.length points) ~chunk in
  let wcode = worker_code worker in
  let emit kind ~a ~b ~range =
    match on_event with
    | None -> ()
    | Some f ->
        f
          {
            Telemetry.Event.kind;
            t = Unix.gettimeofday ();
            a;
            b;
            i = range;
            j = wcode;
          }
  in
  let claimed = ref 0
  and stolen = ref 0
  and executed = Atomic.make 0
  and cached = Atomic.make 0 in
  let run_point last_beat (range, lo, hi) i =
    (if Store.Cache.mem cache points.(i) then Atomic.incr cached
     else begin
       ignore (Store.Sweep.memo_run ~cache ~jobs:1 scenarios.(i));
       Atomic.incr executed
     end);
    (* keep the lease warm from whichever domain finishes a point;
       the CAS makes one beat per interval, the rename makes racing
       beats benign *)
    let now = Unix.gettimeofday () in
    let last = Atomic.get last_beat in
    if now -. last > ttl /. 3. && Atomic.compare_and_set last_beat last now
    then Lease.heartbeat cache ~sweep ~range ~worker ~lo ~hi
  in
  let execute_range pool range (lo, hi) =
    let last_beat = Atomic.make (Unix.gettimeofday ()) in
    let idx = Array.init (hi - lo + 1) (fun k -> lo + k) in
    (match pool with
    | Some p ->
        ignore
          (Parallel.Pool.map_array p (run_point last_beat (range, lo, hi)) idx)
    | None -> Array.iter (run_point last_beat (range, lo, hi)) idx);
    (* completion is judged on the object files themselves, never the
       index: only stat-visible results earn the done marker *)
    let complete =
      Array.for_all (fun i -> Store.Cache.mem cache points.(i)) idx
    in
    if complete then Lease.mark_done cache ~sweep ~range ~worker;
    Lease.release cache ~sweep ~range;
    complete
  in
  let all_done () =
    Array.for_all
      (fun range -> Lease.is_done cache ~sweep ~range)
      (Array.init (Array.length ranges) Fun.id)
  in
  let body pool =
    (* reconcile: a done marker must imply all its points are stored.
       If something evicted a point since (fsck on a corrupt entry),
       revoke the marker so the range becomes claimable and heals. *)
    Array.iteri
      (fun range (lo, hi) ->
        if
          Lease.is_done cache ~sweep ~range
          && not
               (Array.for_all
                  (fun i -> Store.Cache.mem cache points.(i))
                  (Array.init (hi - lo + 1) (fun k -> lo + k)))
        then Lease.clear_done cache ~sweep ~range)
      ranges;
    let continue = ref true in
    while !continue do
      let progress = ref false in
      (* claim pass: free slots first come first served *)
      Array.iteri
        (fun range (lo, hi) ->
          if
            (not (Lease.is_done cache ~sweep ~range))
            && Lease.claim cache ~sweep ~range ~lo ~hi ~worker
          then begin
            if Lease.is_done cache ~sweep ~range then
              (* a peer finished it between our check and claim *)
              Lease.release cache ~sweep ~range
            else begin
              emit Telemetry.Event.Lease_claimed ~a:(float_of_int lo)
                ~b:(float_of_int hi) ~range;
              incr claimed;
              ignore (execute_range pool range (lo, hi))
            end;
            progress := true
          end)
        ranges;
      (* steal pass: ranges still leased by peers whose beat went
         stale, or whose lease file does not parse (which counts as
         expired); a slot vacated since the claim pass is claimed here *)
      let now = Unix.gettimeofday () in
      Array.iteri
        (fun range (lo, hi) ->
          if not (Lease.is_done cache ~sweep ~range) then
            let stealable =
              match Lease.read cache ~sweep ~range with
              | Some info
                when info.Lease.worker = worker
                     || not (Lease.expired ~ttl ~now info) ->
                  false
              | Some info ->
                  emit Telemetry.Event.Lease_expired
                    ~a:(now -. info.Lease.beat) ~b:0. ~range;
                  true
              | None -> true
            in
            if
              stealable
              && Lease.steal cache ~sweep ~range ~lo ~hi ~worker ~ttl ~now
            then begin
              if Lease.is_done cache ~sweep ~range then
                (* a peer finished it between our check and the steal *)
                Lease.release cache ~sweep ~range
              else begin
                emit Telemetry.Event.Lease_stolen ~a:(float_of_int lo)
                  ~b:(float_of_int hi) ~range;
                incr stolen;
                ignore (execute_range pool range (lo, hi))
              end;
              progress := true
            end)
        ranges;
      if all_done () then continue := false
      else if not !progress then
        (* nothing claimable: peers hold live leases — wait for their
           done markers or their heartbeats to expire *)
        Unix.sleepf poll
    done
  in
  if Array.length ranges > 0 then
    if jobs = 1 then body None
    else Parallel.Pool.with_pool ~size:jobs (fun p -> body (Some p));
  {
    worker;
    ranges_claimed = !claimed;
    ranges_stolen = !stolen;
    executed = Atomic.get executed;
    cached = Atomic.get cached;
  }

type progress = { total : int; stored : int; ranges : int; done_ranges : int }

let progress ?(chunk = 16) cache spec =
  let spec = Spec.validate spec in
  let m = Spec.manifest spec in
  let total = Array.length m.Store.Manifest.points in
  let stored = Store.Manifest.progress_of_index cache m in
  let n_ranges = Array.length (Spec.ranges ~total ~chunk) in
  {
    total;
    stored;
    ranges = n_ranges;
    done_ranges = Lease.dones cache ~sweep:m.Store.Manifest.sweep_key;
  }
