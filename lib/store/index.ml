(* On-disk object index: an append-only journal of add/remove records
   mirrored into an in-memory hash table, so key membership, object
   counts and byte totals are O(1) instead of a stat per key or a
   directory walk per query.

   The journal is *advisory*: nothing correctness-critical trusts it.
   [Cache.find] still reads and verifies the entry file itself, and the
   fabric's range-completion checks stat the object files directly. The
   index only has to be cheap, mostly-fresh and rebuildable — which is
   what lets it stay crash-tolerant with no locking:

   - records are single short lines written with one O_APPEND write, so
     concurrent writers (pool domains, separate worker processes on a
     shared store) interleave whole lines;
   - a torn trailing line (a writer died mid-write, or we raced a
     writer) is simply not consumed yet — [refresh] re-reads from the
     last consumed byte offset and only advances past complete lines;
   - a journal that shrank (another process ran [compact]) or fails to
     parse is discarded and replayed from byte 0;
   - a missing or stale journal is rebuilt from the object tree, the
     one source of truth. *)

let journal_magic = "dcecc-index v1\n"

type t = {
  root : string;
  tbl : (string, int) Hashtbl.t;  (* key hex -> bytes on disk *)
  mutable total : int;  (* sum of table sizes, kept in lockstep *)
  mutable consumed : int;  (* journal bytes replayed so far *)
  mutable append_fd : Unix.file_descr option;
  mx : Mutex.t;
}

let journal_path root = Filename.concat root "index.jnl"

(* Replay journal lines from [buf]; returns bytes consumed (complete
   lines only). A malformed complete line aborts the replay by raising
   — the caller falls back to a rebuild. *)
exception Malformed

let set_entry t hex size =
  (match Hashtbl.find_opt t.tbl hex with
  | Some old -> t.total <- t.total - old
  | None -> ());
  Hashtbl.replace t.tbl hex size;
  t.total <- t.total + size

let drop_entry t hex =
  match Hashtbl.find_opt t.tbl hex with
  | Some old ->
      t.total <- t.total - old;
      Hashtbl.remove t.tbl hex;
      true
  | None -> false

let apply_line t line =
  let fail () = raise Malformed in
  match String.split_on_char ' ' line with
  | [ "+"; hex; size ] -> (
      if Option.is_none (Key.of_hex hex) then fail ();
      match int_of_string_opt size with
      | Some s when s >= 0 -> set_entry t hex s
      | Some _ | None -> fail ())
  | [ "-"; hex ] ->
      if Option.is_none (Key.of_hex hex) then fail ();
      ignore (drop_entry t hex)
  | _ -> fail ()

let replay t buf start =
  let rec go pos =
    match String.index_from_opt buf pos '\n' with
    | None -> pos
    | Some nl ->
        apply_line t (String.sub buf pos (nl - pos));
        go (nl + 1)
  in
  go start

(* Writing the journal image is tmp+rename atomic; [consumed] is set to
   the byte length of what we wrote so a subsequent [refresh] picks up
   only records appended after the rewrite. *)
let write_image t =
  let buf = Buffer.create (64 + (Hashtbl.length t.tbl * 80)) in
  Buffer.add_string buf journal_magic;
  let entries =
    Hashtbl.fold (fun hex size acc -> (hex, size) :: acc) t.tbl []
  in
  List.iter
    (fun (hex, size) -> Buffer.add_string buf (Printf.sprintf "+ %s %d\n" hex size))
    (List.sort compare entries);
  let image = Buffer.contents buf in
  (* advisory: if the image cannot be published (the journal path is a
     directory, say) the table stays right and a later load rebuilds *)
  match Disk.publish ~root:t.root (journal_path t.root) image with
  | exception Sys_error _ -> ()
  | _ ->
      (* the append fd (if any) now points at the replaced inode; drop it *)
      (match t.append_fd with
      | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.append_fd <- None
      | None -> ());
      t.consumed <- String.length image

let rebuild_locked t =
  Hashtbl.reset t.tbl;
  t.total <- 0;
  Disk.iter_objects ~root:t.root (fun key path ->
      match Unix.stat path with
      | { Unix.st_size; _ } -> set_entry t (Key.to_hex key) st_size
      | exception Unix.Unix_error _ -> ());
  write_image t

(* ---------- load / refresh ---------- *)

let load_locked t =
  Hashtbl.reset t.tbl;
  t.total <- 0;
  t.consumed <- 0;
  match Disk.read (journal_path t.root) with
  | None -> rebuild_locked t
  | Some buf -> (
      let m = String.length journal_magic in
      if String.length buf < m || String.sub buf 0 m <> journal_magic then
        rebuild_locked t
      else
        match replay t buf m with
        | consumed -> t.consumed <- consumed
        | exception Malformed -> rebuild_locked t)

let refresh_locked t =
  let path = journal_path t.root in
  match (Unix.stat path).Unix.st_size with
  | exception Unix.Unix_error _ -> load_locked t
  | size ->
      if size < t.consumed then load_locked t (* compacted underneath us *)
      else if size > t.consumed then (
        match Disk.read ~off:t.consumed path with
        | None -> load_locked t
        | Some buf -> (
            match replay t buf 0 with
            | n -> t.consumed <- t.consumed + n
            | exception Malformed -> load_locked t))

let locked t f =
  Mutex.lock t.mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mx) (fun () -> f ())

let open_ ~root =
  let t =
    {
      root;
      tbl = Hashtbl.create 1024;
      total = 0;
      consumed = 0;
      append_fd = None;
      mx = Mutex.create ();
    }
  in
  locked t (fun () -> load_locked t);
  t

let refresh t = locked t (fun () -> refresh_locked t)
let rebuild t = locked t (fun () -> rebuild_locked t)
let compact t = locked t (fun () -> refresh_locked t; write_image t)

(* ---------- queries ---------- *)

let mem t hex = locked t (fun () -> Hashtbl.mem t.tbl hex)

let keys t =
  locked t (fun () -> Hashtbl.fold (fun hex _ acc -> hex :: acc) t.tbl [])
let size_of t hex = locked t (fun () -> Hashtbl.find_opt t.tbl hex)
let objects t = locked t (fun () -> Hashtbl.length t.tbl)
let bytes t = locked t (fun () -> t.total)

(* ---------- updates ---------- *)

(* One write(2) per record: with O_APPEND the kernel serializes
   concurrent appenders, so lines never interleave mid-record. If the
   journal vanished (foreign cleanup), the open recreates it headerless;
   [load] treats a header mismatch as cause for rebuild, which heals. *)
let append_locked t line =
  let fd =
    match t.append_fd with
    | Some fd -> fd
    | None ->
        let path = journal_path t.root in
        let fresh = not (Sys.file_exists path) in
        let fd =
          Unix.openfile path [ O_WRONLY; O_APPEND; O_CREAT ] 0o644
        in
        if fresh then
          ignore (Unix.write_substring fd journal_magic 0 (String.length journal_magic));
        t.append_fd <- Some fd;
        fd
  in
  ignore (Unix.write_substring fd line 0 (String.length line))

let record_add t hex size =
  locked t (fun () ->
      set_entry t hex size;
      append_locked t (Printf.sprintf "+ %s %d\n" hex size))

let record_remove t hex =
  locked t (fun () ->
      if drop_entry t hex then append_locked t (Printf.sprintf "- %s\n" hex))

let close t =
  locked t (fun () ->
      match t.append_fd with
      | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.append_fd <- None
      | None -> ())
