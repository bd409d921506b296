(* Work leases: the fabric's coordination primitive, built on nothing
   but the store directory and POSIX file semantics.

   One sweep (identified by its manifest key) owns a directory
   [<root>/leases/<sweep-hex>/]; each contiguous point range of the
   manifest is one lease slot [rNNNNNN.lease] plus a completion marker
   [rNNNNNN.done]. A claim stages a complete lease file and [link]s it
   into the slot — atomic across processes and (over NFS3+) across
   hosts sharing the directory, and failing on an existing slot like an
   exclusive create — so exactly one worker wins a free slot and no
   reader ever sees a torn lease. Heartbeats rewrite the lease file
   (tmp+rename) with a fresh wall-clock stamp; a lease whose stamp is
   older than the TTL, or whose file does not parse, is presumed dead
   and may be stolen: unlink + re-claim, where the re-claim's link again
   elects exactly one winner among racing stealers.

   The protocol is deliberately only *mostly* exclusive: a worker that
   stalls (not dies) past the TTL can lose its lease yet keep
   executing, so two workers may run the same points concurrently.
   That is safe by construction — points are content-addressed, both
   workers write byte-identical entries, and the merge step reads the
   store in manifest order — so the fabric trades a little duplicated
   work for a protocol with no locks, no server and no fencing.
   Execution is at-least-once; results are exactly-once. *)

type info = { worker : string; lo : int; hi : int; beat : float }

let magic = "dcecc-lease v1"

let sweep_dir cache sweep =
  Filename.concat
    (Filename.concat (Cache.root cache) "leases")
    (Key.to_hex sweep)

let lease_path cache sweep range =
  Filename.concat (sweep_dir cache sweep) (Printf.sprintf "r%06d.lease" range)

let done_path cache sweep range =
  Filename.concat (sweep_dir cache sweep) (Printf.sprintf "r%06d.done" range)

let body ~worker ~lo ~hi ~beat =
  Printf.sprintf "%s\nworker %s\nrange %d %d\nbeat %.6f\n" magic worker lo hi
    beat

(* The worker id is caller-chosen; forbid the separators the file
   format and the done markers rely on. *)
let check_worker worker =
  if
    worker = ""
    || String.exists (function '\n' | '\r' -> true | _ -> false) worker
  then invalid_arg "Store.Lease: worker id must be non-empty, newline-free"

(* Every lease write is a whole-file publish, so no reader ever sees a
   torn lease: [claim] links (fails on an existing slot), [heartbeat]
   renames. *)
let write ?exclusive cache ~sweep ~range ~lo ~hi ~worker =
  check_worker worker;
  Disk.ensure_dir (sweep_dir cache sweep);
  Disk.publish ?exclusive ~root:(Cache.root cache)
    (lease_path cache sweep range)
    (body ~worker ~lo ~hi ~beat:(Unix.gettimeofday ()))

let claim = write ~exclusive:true

let heartbeat cache ~sweep ~range ~worker ~lo ~hi =
  ignore (write cache ~sweep ~range ~lo ~hi ~worker)

(* [None] unless every field is well formed: a finite beat, and a range
   with [0 <= lo <= hi] *)
let parse contents =
  let field name line =
    let prefix = name ^ " " in
    let n = String.length prefix in
    if String.length line > n && String.starts_with ~prefix line then
      Some (String.sub line n (String.length line - n))
    else None
  in
  match String.split_on_char '\n' contents with
  | m :: worker_l :: range_l :: beat_l :: _ when m = magic -> (
      match
        ( field "worker" worker_l,
          Option.map (String.split_on_char ' ') (field "range" range_l),
          Option.bind (field "beat" beat_l) float_of_string_opt )
      with
      | Some worker, Some [ lo; hi ], Some beat when Float.is_finite beat -> (
          match (int_of_string_opt lo, int_of_string_opt hi) with
          | Some lo, Some hi when 0 <= lo && lo <= hi ->
              Some { worker; lo; hi; beat }
          | _ -> None)
      | _ -> None)
  | _ -> None

let read cache ~sweep ~range =
  Option.bind (Disk.read (lease_path cache sweep range)) parse

let release cache ~sweep ~range =
  try Sys.remove (lease_path cache sweep range) with Sys_error _ -> ()

let expired ~ttl ~now info = now -. info.beat > ttl

let steal cache ~sweep ~range ~lo ~hi ~worker ~ttl ~now =
  match Disk.read (lease_path cache sweep range) with
  | None ->
      (* holder vanished between our claim failure and now; never
         unlink here, or a peer's fresh claim could be lost *)
      claim cache ~sweep ~range ~lo ~hi ~worker
  | Some contents -> (
      match parse contents with
      | Some info when not (expired ~ttl ~now info) -> false
      | Some _ | None ->
          (* expired, or unparseable (which no writer here leaves
             behind): unlink the corpse, then race for the empty slot;
             the link elects one winner among concurrent stealers *)
          release cache ~sweep ~range;
          claim cache ~sweep ~range ~lo ~hi ~worker)

let mark_done cache ~sweep ~range ~worker =
  check_worker worker;
  Disk.ensure_dir (sweep_dir cache sweep);
  ignore
    (Disk.publish ~exclusive:true ~root:(Cache.root cache)
       (done_path cache sweep range) (worker ^ "\n"))

let is_done cache ~sweep ~range = Sys.file_exists (done_path cache sweep range)

let clear_done cache ~sweep ~range =
  try Sys.remove (done_path cache sweep range) with Sys_error _ -> ()

let dones cache ~sweep =
  let dir = sweep_dir cache sweep in
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun acc name ->
        if Filename.check_suffix name ".done" then acc + 1 else acc)
      0 (Sys.readdir dir)

let list cache ~sweep =
  let dir = sweep_dir cache sweep in
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.filter_map (fun name ->
           if
             String.length name = 13
             && name.[0] = 'r'
             && Filename.check_suffix name ".lease"
           then
             Option.bind (int_of_string_opt (String.sub name 1 6))
               (fun range ->
                 Option.map
                   (fun info -> (range, info))
                   (read cache ~sweep ~range))
           else None)
    |> List.sort compare
