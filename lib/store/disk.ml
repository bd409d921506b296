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

(* An entry is a header line, then the payload. The header is
   "dcecc2 <16 hex: payload length> <16 hex: check>\n" (41 bytes). The
   object's name is its key, the SHA-256 of what it answers, so the
   header guards only against torn or rotted bytes, and a checksum does
   that at memory speed. The check folds every little-endian 64-bit
   word, then every tail byte, into a state seeded with the length. A
   step is a bijection in the state for a fixed word and in the word for
   a fixed state, so changing any one word (or tail byte) always changes
   the check; the length field catches truncation. Entries written
   before this header carry "dcecc1 <sha256 of payload>\n" (72 bytes)
   and still read. *)

let mix h w =
  let x = Int64.mul (Int64.logxor h w) 0x9E3779B97F4A7C15L in
  Int64.logxor x (Int64.shift_right_logical x 29)

let checksum s off len =
  let h = ref (Int64.of_int len) in
  let words = off + (len land lnot 7) in
  let i = ref off in
  while !i < words do
    h := mix !h (String.get_int64_le s !i);
    i := !i + 8
  done;
  for j = words to off + len - 1 do
    h := mix !h (Int64.of_int (Char.code s.[j]))
  done;
  !h

let header_len = 41

let header len check = Printf.sprintf "dcecc2 %016x %016Lx\n" len check

let encode_entry payload =
  let len = String.length payload in
  String.concat "" [ header len (checksum payload 0 len); payload ]

(* An entry is valid only when its header is the one its payload
   encodes to. That is the strict parse: lowercase hex at fixed widths,
   both separators, and the length of the bytes that follow. *)
let decode_entry raw =
  let n = String.length raw in
  let matches off header =
    n >= off && String.sub raw 0 off = header (n - off)
  in
  if String.starts_with ~prefix:"dcecc1 " raw then
    if
      matches 72 (fun len ->
          String.concat ""
            [ "dcecc1 "; Key.sha256_hex (String.sub raw 72 len); "\n" ])
    then Some 72
    else None
  else if
    matches header_len (fun len -> header len (checksum raw header_len len))
  then Some header_len
  else None
