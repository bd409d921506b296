let format_stamp = "dcecc-store v1\n"

type stats = { hits : int; misses : int; puts : int; evictions : int }

type t = {
  root : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  put_count : int Atomic.t;
  evictions : int Atomic.t;
  gc_collected : int Atomic.t;  (* objects collected by Gc.run via this handle *)
  index : Index.t;
}

let open_ ~dir =
  Disk.ensure_dir dir;
  let format_path = Filename.concat dir "format" in
  let fresh =
    match Disk.read format_path with
    | Some stamp when stamp = format_stamp -> false
    | Some stamp ->
        failwith
          (Printf.sprintf
             "Store.Cache.open_: %s is not a dcecc store (format stamp %S)" dir
             stamp)
    | None ->
        (* an existing non-empty directory without a stamp is someone
           else's data — refuse rather than mix object files into it *)
        if Sys.readdir dir <> [||] then
          failwith
            (Printf.sprintf
               "Store.Cache.open_: %s exists, is not empty and has no store \
                format stamp"
               dir);
        true
  in
  List.iter
    (fun sub -> Disk.ensure_dir (Filename.concat dir sub))
    [ "tmp"; "objects"; "manifests" ];
  if fresh then ignore (Disk.publish ~root:dir format_path format_stamp);
  {
    root = dir;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    put_count = Atomic.make 0;
    evictions = Atomic.make 0;
    gc_collected = Atomic.make 0;
    index = Index.open_ ~root:dir;
  }

let root c = c.root

let entry_path c key = Disk.object_file ~root:c.root key
let mem c key = Sys.file_exists (entry_path c key)

let put c key payload =
  let path = entry_path c key in
  Disk.ensure_dir (Filename.dirname path);
  let entry = Disk.encode_entry payload in
  ignore (Disk.publish ~root:c.root path entry);
  Index.record_add c.index (Key.to_hex key) (String.length entry);
  Atomic.incr c.put_count

let evict c key =
  (try Sys.remove (entry_path c key) with Sys_error _ -> ());
  Index.record_remove c.index (Key.to_hex key);
  Atomic.incr c.evictions

(* The entry's bytes and the payload's offset in them. A corrupt entry
   is evicted and reads as absent. *)
let read_entry c key =
  match Disk.read (entry_path c key) with
  | None -> None
  | Some raw -> (
      match Disk.decode_entry raw with
      | Some off -> Some (raw, off)
      | None ->
          evict c key;
          None)

let counted c found =
  Atomic.incr (if Option.is_none found then c.misses else c.hits);
  found

let find c key =
  counted c
    (Option.map
       (fun (raw, off) -> String.sub raw off (String.length raw - off))
       (read_entry c key))

let find_value (type a) c key : a option =
  counted c
    (match read_entry c key with
    | None -> None
    | Some (raw, off) -> (
        match (Marshal.from_string raw off : a) with
        | v -> Some v
        | exception _ ->
            (* check-valid but undecodable: written by an incompatible
               runtime; treat as corruption *)
            evict c key;
            None))

let store_value c key v = put c key (Marshal.to_string v [])

let memo (type a) c key (f : unit -> a) : a =
  match find_value c key with
  | Some v -> v
  | None ->
      let v = f () in
      let payload = Marshal.to_string v [] in
      put c key payload;
      (* return the parse of the stored bytes, not [v] itself: [v] may
         carry physical sharing with values outside itself (statically
         allocated float constants, shared sub-structures), which
         Marshal encodes and a later warm read would not reproduce.
         Normalizing through the stored representation makes cold and
         warm returns structurally identical, so anything downstream —
         including a whole-results-array Marshal — is byte-identical
         whether the cache was hot or cold. *)
      (Marshal.from_string payload 0 : a)

let stats c =
  {
    hits = Atomic.get c.hits;
    misses = Atomic.get c.misses;
    puts = Atomic.get c.put_count;
    evictions = Atomic.get c.evictions;
  }

let reset_stats c =
  Atomic.set c.hits 0;
  Atomic.set c.misses 0;
  Atomic.set c.put_count 0;
  Atomic.set c.evictions 0

let index c = c.index
let gc_collected c = Atomic.get c.gc_collected
let add_gc_collected c n = ignore (Atomic.fetch_and_add c.gc_collected n)

let objects c =
  Index.refresh c.index;
  Index.objects c.index

let bytes c =
  Index.refresh c.index;
  Index.bytes c.index

let publish_metrics c mx =
  let s = stats c in
  Telemetry.Metrics.add mx "store.hits" s.hits;
  Telemetry.Metrics.add mx "store.misses" s.misses;
  Telemetry.Metrics.add mx "store.puts" s.puts;
  Telemetry.Metrics.add mx "store.evictions" s.evictions;
  Telemetry.Metrics.add mx "store.gc_collected" (gc_collected c);
  (* size accounting through the index: O(records appended since the
     last refresh), not a directory walk *)
  Index.refresh c.index;
  Telemetry.Metrics.add mx "store.objects" (Index.objects c.index);
  Telemetry.Metrics.add mx "store.bytes" (Index.bytes c.index)
