let magic = "dcecc-manifest v1"

type t = { sweep_key : Key.t; points : Key.t array }

let create ~points =
  let material =
    String.concat "\n"
      ("sweep@v1" :: Array.to_list (Array.map Key.to_hex points))
  in
  { sweep_key = Key.of_material material; points }

let path cache key =
  Filename.concat (Filename.concat (Cache.root cache) "manifests")
    (Key.to_hex key)

let save cache m =
  let body =
    String.concat "\n"
      (magic :: Array.to_list (Array.map Key.to_hex m.points))
    ^ "\n"
  in
  ignore (Disk.publish ~root:(Cache.root cache) (path cache m.sweep_key) body)

let parse key body =
  match String.split_on_char '\n' body with
  | m :: rest when m = magic ->
      let hexes = List.filter (fun l -> l <> "") rest in
      let keys = List.filter_map Key.of_hex hexes in
      if List.length keys <> List.length hexes then None
      else
        let m = { sweep_key = key; points = Array.of_list keys } in
        (* a manifest is content-addressed too: its name must match
           its points, else it was tampered with or misfiled *)
        if Key.to_hex (create ~points:m.points).sweep_key = Key.to_hex key
        then Some m
        else None
  | _ -> None

let load cache key = Option.bind (Disk.read (path cache key)) (parse key)

let list cache =
  let dir = Filename.concat (Cache.root cache) "manifests" in
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.filter_map (fun name -> Option.bind (Key.of_hex name) (load cache))

let progress cache m =
  Array.fold_left
    (fun acc k -> if Cache.mem cache k then acc + 1 else acc)
    0 m.points

let progress_of_index cache m =
  let ix = Cache.index cache in
  Index.refresh ix;
  Array.fold_left
    (fun acc k -> if Index.mem ix (Key.to_hex k) then acc + 1 else acc)
    0 m.points
