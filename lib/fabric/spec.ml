module Scenario = Simnet.Scenario

type t =
  | Explicit of Scenario.t array
  | Seeds of { base : Scenario.t; first_seed : int; count : int }

let validate = function
  | Explicit scenarios ->
      if Array.length scenarios = 0 then
        invalid_arg "Fabric.Spec: empty scenario list";
      Explicit (Array.map Scenario.validate scenarios)
  | Seeds { base; first_seed; count } ->
      if count < 1 then invalid_arg "Fabric.Spec: seed count must be >= 1";
      Seeds { base = Scenario.validate base; first_seed; count }

let scenarios = function
  | Explicit scenarios -> Array.copy scenarios
  | Seeds { base; first_seed; count } ->
      Array.init count (fun i -> Scenario.with_seed base (first_seed + i))

let size = function
  | Explicit scenarios -> Array.length scenarios
  | Seeds { count; _ } -> count

let points spec = Array.map Store.Key.of_scenario (scenarios spec)
let manifest spec = Store.Manifest.create ~points:(points spec)

(* Lease ranges: contiguous [chunk]-sized slices of the manifest.
   Purely a function of (total, chunk), so every worker — whatever its
   own chunk default — derives the same slot table when launched with
   the same spec and chunk. *)
let ranges ~total ~chunk =
  if chunk < 1 then invalid_arg "Fabric.Spec.ranges: chunk must be >= 1";
  if total < 0 then invalid_arg "Fabric.Spec.ranges: negative total";
  let n = (total + chunk - 1) / chunk in
  Array.init n (fun k ->
      let lo = k * chunk in
      (lo, min (total - 1) (lo + chunk - 1)))

(* ---------- canonical encoding ---------- *)

let codec =
  let open Simnet.Json_read in
  let scenario = embed Scenario.encode Scenario.of_json in
  let arms () =
    let base = Scenario.bcn Fluid.Params.default in
    [ Explicit [||]; Seeds { base; first_seed = 0; count = 0 } ]
  in
  record "fabric spec" (Explicit [||]) (fun o spec ->
      (match req o "fabric" int 1 with
      | 1 -> ()
      | v -> bad "fabric spec.fabric: unsupported version %d" v);
      validate
        (cases o arms
           (fun o -> function
             | Explicit scenarios ->
                 tag o "list";
                 Explicit
                   (req o "scenarios"
                      (conv Array.to_list Array.of_list (list scenario))
                      scenarios)
             | Seeds r ->
                 tag o "seeds";
                 let base = req o "base" scenario r.base in
                 let first_seed = req o "first_seed" int r.first_seed in
                 Seeds { base; first_seed; count = req o "count" int r.count })
           spec))

let encode spec = Simnet.Json_read.encode codec spec
let decode s = Simnet.Json_read.decode codec s
let of_json j = Simnet.Json_read.of_json codec j

let decode_exn s =
  match decode s with Ok spec -> spec | Error msg -> invalid_arg msg

let describe = function
  | Explicit scenarios ->
      Printf.sprintf "%d scenarios (%s, ...)" (Array.length scenarios)
        (Scenario.describe scenarios.(0))
  | Seeds { base; first_seed; count } ->
      Printf.sprintf "%s, seeds %d..%d" (Scenario.describe base) first_seed
        (first_seed + count - 1)
