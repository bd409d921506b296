(* figures — regenerate every paper figure/table; prints the text
   reproductions and writes the data series as CSVs.

   Usage: figures [--out DIR] [ID ...]   (no IDs = all)

   With --adaptive and/or --dense the tool switches to region-tracing
   mode: instead of rasterizing, the strong-stability safe region in
   (q, r) and the stability map in the normalized-gain plane (a, b) are
   traced adaptively (quadtree + marching squares, boundary-length
   cost) and/or evaluated on the dense corner lattice at the matching
   resolution (the baseline). Giving both prints the savings ratio. *)

open Cmdliner

let ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then (
    try Sys.mkdir d 0o755 with Sys_error _ -> ())

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* ---------- region-tracing mode (--adaptive / --dense) ---------- *)

let report_adaptive ~label ~out (t : Refine.Engine.t) =
  print_string (Refine.Engine.render t);
  Printf.printf
    "%s adaptive: %d boundary cells, %d segments, %d verdict evaluations\n"
    label
    (Array.length t.Refine.Engine.boundary_cells)
    (Array.length t.Refine.Engine.segments)
    t.Refine.Engine.evaluations;
  let path = Filename.concat out (label ^ "_boundary.csv") in
  with_out path (fun oc -> output_string oc (Refine.Engine.segments_csv t));
  Printf.printf "wrote %s\n" path;
  t.Refine.Engine.evaluations

let report_dense ~label dom ~n verdicts =
  let cells, evals = Refine.Engine.dense_mixed_cells dom ~nx:n ~ny:n verdicts in
  Printf.printf "%s dense %dx%d lattice: %d mixed cells, %d verdict evaluations\n"
    label n n (Array.length cells) evals;
  evals

let report_ratio label = function
  | Some adaptive, Some dense ->
      Printf.printf "%s: adaptive / dense = %d / %d evaluations (%.1fx fewer)\n"
        label adaptive dense
        (float_of_int dense /. float_of_int (max 1 adaptive))
  | _ -> ()

let region_run out adaptive dense coarse levels jobs store_spec =
  ensure_dir out;
  let p = Fluid.Params.default in
  let cache = Cli_common.open_store store_spec in
  let store =
    Option.map
      (fun c ->
        let lookup, save = Store.Sweep.verdict_memo c in
        if store_spec.Cli_common.no_cache then ((fun _ -> None), save)
        else (lookup, save))
      cache
  in
  let n = coarse * (1 lsl levels) in
  (* safe region in the (q, r) initial-state plane *)
  let a_safe =
    if adaptive then
      Some
        (report_adaptive ~label:"safe_region" ~out
           (Refine.Safe_plane.trace ?jobs ?store ~coarse:(coarse, coarse)
              ~levels p))
    else None
  in
  let d_safe =
    if dense then
      Some
        (report_dense ~label:"safe_region" (Refine.Safe_plane.domain p) ~n
           (Refine.Safe_plane.verdicts ?jobs p))
    else None
  in
  report_ratio "safe_region" (a_safe, d_safe);
  (* stability map in the normalized-gain plane (a, b) around the
     paper's example point *)
  let apply = Refine.Param_plane.gains p in
  let dom =
    {
      Refine.Engine.x0 = 0.25 *. Fluid.Params.a p;
      x1 = 8. *. Fluid.Params.a p;
      y0 = 0.25 *. Fluid.Params.b p;
      y1 = 8. *. Fluid.Params.b p;
    }
  in
  let a_gains =
    if adaptive then
      Some
        (report_adaptive ~label:"gain_plane" ~out
           (Refine.Param_plane.trace ?jobs ?store ~coarse:(coarse, coarse)
              ~levels apply dom))
    else None
  in
  let d_gains =
    if dense then
      Some
        (report_dense ~label:"gain_plane" dom ~n
           (Refine.Param_plane.verdicts ?jobs apply))
    else None
  in
  report_ratio "gain_plane" (a_gains, d_gains);
  Cli_common.report_store store_spec cache;
  0

(* ---------- figure regeneration (default mode) ---------- *)

let run out ids adaptive dense coarse levels jobs store_spec =
  if adaptive || dense then
    region_run out adaptive dense coarse levels jobs store_spec
  else begin
    let all = Dcecc_core.Figures.all ?jobs ~out () in
    let selected =
      match ids with
      | [] -> all
      | ids ->
          List.filter_map
            (fun id ->
              match List.assoc_opt id all with
              | Some text -> Some (id, text)
              | None ->
                  Printf.eprintf "unknown figure id: %s\n" id;
                  None)
            ids
    in
    List.iter
      (fun (id, text) ->
        Printf.printf "############ %s ############\n%s\n" id text)
      selected;
    Printf.printf "CSV data written to %s\n" out;
    if List.length selected = List.length ids || ids = [] then 0 else 1
  end

let cmd =
  let out =
    Arg.(value & opt string "out" & info [ "out" ] ~docv:"DIR" ~doc:"CSV output directory.")
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Trace the safe-region and gain-plane stability boundaries \
             adaptively (quadtree + marching squares; verdict cost scales \
             with boundary length, not raster area) instead of \
             regenerating the figures. Writes the traced boundary \
             polylines as CSVs under $(b,--out).")
  in
  let dense =
    Arg.(
      value & flag
      & info [ "dense" ]
          ~doc:
            "Evaluate the dense corner lattice at the resolution matching \
             $(b,--coarse)/$(b,--levels) (the baseline the adaptive path \
             replaces). Combine with $(b,--adaptive) to print the savings \
             ratio.")
  in
  let coarse =
    Arg.(
      value & opt Cli_common.pos_int 8
      & info [ "coarse" ] ~docv:"N"
          ~doc:"Region mode: coarse seeding grid (N x N cells).")
  in
  let levels =
    Arg.(
      value & opt Cli_common.pos_int 3
      & info [ "levels" ] ~docv:"L"
          ~doc:
            "Region mode: subdivision levels (fine lattice = coarse * 2^L).")
  in
  let doc =
    "Regenerate the figures and tables of 'Phase Plane Analysis of \
     Congestion Control in Data Center Ethernet Networks' (ICDCS 2010)."
  in
  Cmd.v (Cmd.info "figures" ~doc)
    Term.(
      const run $ out $ ids $ adaptive $ dense $ coarse $ levels
      $ Cli_common.jobs_term $ Cli_common.store_term)

let () = exit (Cmd.eval' cmd)
