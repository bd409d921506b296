(* The store's on-disk layout and its only file reads and writes.

   Every other store module names files through this one and never
   opens, renames or links them itself, so the crash-safety argument
   lives here: a reader sees a whole file or none, and a writer that
   dies leaves at most a staged file under [<root>/tmp/], which [Gc]
   sweeps by age. The index journal's O_APPEND records are the one
   exception (see [Index]). *)

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let read ?(off = 0) path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          (* a directory opens fine on Linux; only a regular file reads *)
          try
            match Unix.fstat (Unix.descr_of_in_channel ic) with
            | { Unix.st_kind = S_REG; st_size; _ } when st_size >= off ->
                seek_in ic off;
                Some (really_input_string ic (st_size - off))
            | _ -> None
          with Sys_error _ | End_of_file | Unix.Unix_error _ -> None)

let remove_noerr path = try Sys.remove path with Sys_error _ -> ()

let publish ?(exclusive = false) ~root path bytes =
  (* unique within the store: pid for cross-process, domain id for pool
     workers sharing the process *)
  let tmp =
    Filename.concat (Filename.concat root "tmp")
      (Printf.sprintf "%s.%d.%d" (Filename.basename path) (Unix.getpid ())
         (Domain.self () :> int))
  in
  Fun.protect
    ~finally:(fun () -> remove_noerr tmp)
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc bytes;
          close_out oc);
      if not exclusive then begin
        Sys.rename tmp path;
        true
      end
      else
        match Unix.link tmp path with
        | () -> true
        | exception Unix.Unix_error (EEXIST, _, _) -> false)

(* ---------- objects ---------- *)

let object_file ~root key =
  let hex = Key.to_hex key in
  Filename.concat
    (Filename.concat (Filename.concat root "objects") (String.sub hex 0 2))
    hex

let iter_objects ~root f =
  let objects = Filename.concat root "objects" in
  if Sys.file_exists objects then
    Array.iter
      (fun sub ->
        let d = Filename.concat objects sub in
        if Sys.is_directory d then
          Array.iter
            (fun name ->
              match Key.of_hex name with
              | Some key -> f key (Filename.concat d name)
              | None -> ())
            (Sys.readdir d))
      (Sys.readdir objects)

(* header is "dcecc1 " (7) + 64 hex + "\n" = 72 bytes *)
let entry_magic = "dcecc1 "
let header_len = 72

let encode_entry payload =
  String.concat "" [ entry_magic; Key.sha256_hex payload; "\n"; payload ]

let decode_entry raw =
  let n = String.length raw in
  if
    n >= header_len
    && String.starts_with ~prefix:entry_magic raw
    && raw.[header_len - 1] = '\n'
  then
    let payload = String.sub raw header_len (n - header_len) in
    if Key.sha256_hex payload = String.sub raw (String.length entry_magic) 64
    then Some payload
    else None
  else None
