(* Parallel store verification: re-read every object, re-check its
   payload against the header, evict what fails, and cross-check the
   index against what the walk actually found.

   Reading and checking dominate the cost and objects are independent, so
   verification shards across a [Parallel.Pool]. The walk is the source
   of truth (the index is advisory); the index phase repairs both
   divergence modes — entries the index missed ([missing_index],
   recorded in) and records for vanished objects ([stale_index],
   dropped) — then compacts the journal. *)

type report = {
  checked : int;
  ok : int;
  corrupt : int;
  evicted : int;
  missing_index : int;
  stale_index : int;
}

type verdict = Sound of int | Corrupt | Vanished

(* The integrity check of [Cache.find], minus counters and eviction —
   fsck decides centrally what to do with failures. *)
let verify path =
  match Disk.read path with
  | None -> Vanished
  | Some raw ->
      if Option.is_some (Disk.decode_entry raw) then Sound (String.length raw)
      else Corrupt

let run ?jobs ?(evict = true) cache =
  let objects = ref [] in
  Disk.iter_objects ~root:(Cache.root cache) (fun key path ->
      objects := (key, path) :: !objects);
  (* deterministic verification order regardless of readdir order *)
  let objects = Array.of_list (List.sort compare !objects) in
  let verdicts =
    Parallel.Pool.with_pool ?size:jobs (fun pool ->
        Parallel.Pool.parmap_array pool (fun (_, path) -> verify path) objects)
  in
  let ix = Cache.index cache in
  Index.refresh ix;
  let ok = ref 0
  and corrupt = ref 0
  and evicted = ref 0
  and missing_index = ref 0 in
  let live = Hashtbl.create (max 16 (Array.length objects)) in
  Array.iteri
    (fun i verdict ->
      let key, _ = objects.(i) in
      let hex = Key.to_hex key in
      match verdict with
      | Sound size ->
          incr ok;
          Hashtbl.replace live hex ();
          if not (Index.mem ix hex) then begin
            incr missing_index;
            Index.record_add ix hex size
          end
      | Corrupt ->
          incr corrupt;
          if evict then begin
            Cache.evict cache key;
            incr evicted
          end
          else Hashtbl.replace live hex ()
      | Vanished -> ())
    verdicts;
  (* stale records: indexed keys with no surviving object file *)
  let stale = ref 0 in
  List.iter
    (fun hex ->
      if not (Hashtbl.mem live hex) then begin
        incr stale;
        Index.record_remove ix hex
      end)
    (Index.keys ix);
  Index.compact ix;
  {
    checked = Array.length objects;
    ok = !ok;
    corrupt = !corrupt;
    evicted = !evicted;
    missing_index = !missing_index;
    stale_index = !stale;
  }
