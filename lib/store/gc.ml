(* Generation-based garbage collection.

   Liveness is defined by the manifests: every point key of every
   well-formed manifest is a root, and manifests themselves are never
   collected. Lease ranges are index intervals into manifests, so lease
   liveness is subsumed by manifest liveness — a leased point is a
   manifest point.

   The crash-safety hazard is the race with concurrent workers: a
   worker may [put] an object for a manifest it has not saved yet (the
   sweep layer saves the manifest before the points, but foreign
   writers need not). The generation guard closes it: any object whose
   mtime is at or after the GC's start time is treated as live
   regardless of the root set, and [min_age] widens the guard to cover
   clock skew between hosts sharing the store. An object can therefore
   only be collected when it is both unrooted and demonstrably older
   than this GC generation. *)

type report = {
  scanned : int;
  live : int;
  collected : int;
  collected_bytes : int;
  tmp_removed : int;
}

let roots cache =
  let set = Hashtbl.create 4096 in
  List.iter
    (fun (m : Manifest.t) ->
      Array.iter
        (fun k -> Hashtbl.replace set (Key.to_hex k) ())
        m.Manifest.points)
    (Manifest.list cache);
  set

(* stale tmp files: staged writes whose writer died before publishing.
   Same age guard — a live writer's tmp file is younger than it. *)
let sweep_tmp cache ~cutoff =
  let dir = Filename.concat (Cache.root cache) "tmp" in
  if not (Sys.file_exists dir) then 0
  else
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        match Unix.stat path with
        | { Unix.st_mtime; _ } when st_mtime < cutoff -> (
            match Sys.remove path with
            | () -> acc + 1
            | exception Sys_error _ -> acc)
        | _ | (exception Unix.Unix_error _) -> acc)
      0 (Sys.readdir dir)

let run ?(dry_run = false) ?(min_age = 0.) cache =
  let start = Unix.gettimeofday () in
  let cutoff = start -. min_age in
  let live_set = roots cache in
  let scanned = ref 0
  and live = ref 0
  and collected = ref 0
  and collected_bytes = ref 0 in
  Disk.iter_objects ~root:(Cache.root cache) (fun key path ->
      let hex = Key.to_hex key in
      incr scanned;
      if Hashtbl.mem live_set hex then incr live
      else
        match Unix.stat path with
        | exception Unix.Unix_error _ -> incr live
        | { Unix.st_mtime; st_size; _ } ->
            if st_mtime >= cutoff then
              (* generation guard: written during or near this GC — a
                 concurrent writer's object whose manifest we may not
                 have seen *)
              incr live
            else if dry_run then begin
              incr collected;
              collected_bytes := !collected_bytes + st_size
            end
            else (
              match Sys.remove path with
              | () ->
                  incr collected;
                  collected_bytes := !collected_bytes + st_size;
                  Index.record_remove (Cache.index cache) hex
              | exception Sys_error _ -> incr live));
  let tmp_removed = if dry_run then 0 else sweep_tmp cache ~cutoff in
  if not dry_run then begin
    Cache.add_gc_collected cache !collected;
    (* fold the removal churn out of the journal *)
    Index.compact (Cache.index cache)
  end;
  {
    scanned = !scanned;
    live = !live;
    collected = !collected;
    collected_bytes = !collected_bytes;
    tmp_removed;
  }
