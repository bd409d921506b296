(* A set of runs: every workload five times, interleaved (w1…w5,
   w1…w5, …) so a slow phase of a shared machine spreads over all
   workloads, each run in a fresh process of this executable, then one
   traced round. Prints each metric's median, quartiles and sample
   count, and can write them as JSON or check them against the bounds
   BENCHMARK.json commits. *)

module R = Simnet.Json_read
module J = Telemetry.Json

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;
  details : (string * (float * string)) list;
}

let metrics_of o =
  List.map
    (fun (name, v) ->
      let m = R.as_obj name v in
      (name, (R.get_float name m "value", R.get_str name m "unit")))
    o

(* Run this executable on one workload; [None] when it fails or prints
   no result. *)
let child args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> acc in
  let lines = read [] in
  close_in ic;
  match (snd (Unix.waitpid [] pid), lines) with
  | Unix.WEXITED 0, result :: details :: _ -> (
      try
        let o = R.as_obj "result" (R.parse result) in
        let d = R.as_obj "details" (R.parse details) in
        Some
          {
            correct = (match R.field o "correct" with Some (R.Jbool b) -> b | _ -> false);
            attempted = R.get_int "result" o "attempted";
            failed = R.get_int "result" o "failed";
            metrics = metrics_of (R.as_obj "metrics" (Option.get (R.field o "metrics")));
            details = metrics_of (R.as_obj "details" (Option.get (R.field d "details")));
          }
      with R.Bad _ | Invalid_argument _ -> None)
  | _ -> None

type stat = { median : float; q1 : float; q3 : float; n : int; unit : string }

let stat values unit =
  let q = Harness.quantile values in
  { median = q 0.5; q1 = q 0.25; q3 = q 0.75; n = List.length values; unit }

(* Per metric name, across runs. *)
let summarise pick runs =
  match runs with
  | [] -> []
  | r :: _ ->
      List.map
        (fun (name, (_, unit)) ->
          let values = List.filter_map (fun r -> Option.map fst (List.assoc_opt name (pick r))) runs in
          (name, stat values unit))
        (pick r)

let command args =
  match Unix.open_process_args_in (List.hd args) (Array.of_list args) with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
  | exception Unix.Unix_error _ -> "unknown"

(* The filesystem type of the mount holding [dir], from /proc/self/mounts. *)
let fs_type dir =
  Harness.mkdir_p dir;
  let dir = Unix.realpath dir in
  let under m = m = "/" || dir = m || String.starts_with ~prefix:(m ^ "/") dir in
  match open_in "/proc/self/mounts" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec go best =
        match String.split_on_char ' ' (input_line ic) with
        | _ :: mount :: fs :: _ when under mount && String.length mount >= String.length (fst best) ->
            go (mount, fs)
        | _ -> go best
        | exception End_of_file -> snd best
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> go ("", "unknown"))

let machine ~seed ~work =
  [
    ("nproc", J.int (Domain.recommended_domain_count ()));
    ("ocaml", J.str Sys.ocaml_version);
    ("git_rev", J.str (command [ "git"; "rev-parse"; "HEAD" ]));
    ("dcecc_jobs", J.str (Option.value ~default:"unset" (Sys.getenv_opt "DCECC_JOBS")));
    ("work_fs", J.str (fs_type work));
    ("seed", J.int seed);
  ]

let stat_json s =
  J.obj
    [
      ("median", J.float_full s.median);
      ("q1", J.float_full s.q1);
      ("q3", J.float_full s.q3);
      ("n", J.int s.n);
      ("unit", J.str s.unit);
    ]

(* BENCHMARK.json: the declared metric names, and each end-to-end
   metric's direction and bound. *)
let declared file =
  let ic = open_in_bin file in
  let o = R.as_obj file (R.parse (really_input_string ic (in_channel_length ic))) in
  close_in ic;
  let list key =
    match R.field o key with
    | Some (R.Jarr items) -> List.map (R.as_obj key) items
    | _ -> R.bad "%s: %s must be a list" file key
  in
  ( List.map
      (fun m -> (R.get_str file m "name", (R.get_str file m "better", R.get_float file m "bound")))
      (list "end_to_end"),
    List.map (fun m -> R.get_str file m "name") (list "per_layer") )

(* The committed medians: workload -> metric -> median. *)
let baseline file =
  let ic = open_in_bin file in
  let o = R.as_obj file (R.parse (really_input_string ic (in_channel_length ic))) in
  close_in ic;
  List.map
    (fun (w, v) ->
      let e = R.as_obj w (Option.get (R.field (R.as_obj w v) "end_to_end")) in
      (w, List.map (fun (m, s) -> (m, R.get_float m (R.as_obj m s) "median")) e))
    (R.as_obj "workloads" (Option.get (R.field o "workloads")))

let main ~seed ~seconds ~json ~check ~work ~smoke names =
  let rounds = if smoke then 1 else 5 in
  let seconds = if smoke then Float.min seconds 0.5 else seconds in
  let args w s trace =
    [ "--workload"; w; "--seed"; string_of_int s; "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if trace then "1" else "0"); "--work"; work ]
    @ if smoke then [ "--smoke" ] else []
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems; prerr_endline s) fmt in
  let go w s trace =
    match child (args w s trace) with
    | Some r ->
        if not r.correct then problem "%s: incorrect output (seed %d)" w s;
        if r.failed > 0 then problem "%s: %d of %d operations failed (seed %d)" w r.failed r.attempted s;
        Some r
    | None ->
        problem "%s: run failed (seed %d)" w s;
        None
  in
  let plain = Hashtbl.create 8 in
  let runs w = Option.value ~default:[] (Hashtbl.find_opt plain w) in
  for r = 0 to rounds - 1 do
    List.iter
      (fun w -> Option.iter (fun run -> Hashtbl.replace plain w (run :: runs w)) (go w (seed + r) false))
      names
  done;
  let traced =
    List.filter_map (fun w -> Option.map (fun r -> (w, r)) (go w (seed + rounds) true)) names
  in
  let table =
    List.map
      (fun w ->
        ( w,
          summarise (fun r -> r.metrics) (runs w),
          summarise (fun r -> r.details) (runs w),
          Option.fold ~none:[] ~some:(fun r -> r.metrics) (List.assoc_opt w traced) ))
      names
  in
  Printf.printf "%-14s %-24s %14s %14s %14s %3s  %s\n" "workload" "metric" "median" "q1" "q3" "n" "unit";
  List.iter
    (fun (w, e2e, details, _) ->
      List.iter
        (fun (m, s) ->
          Printf.printf "%-14s %-24s %14.6g %14.6g %14.6g %3d  %s\n" w m s.median s.q1 s.q3 s.n
            s.unit)
        (e2e @ details))
    table;
  (match json with
  | None -> ()
  | Some file ->
      let oc = open_out_bin file in
      output_string oc
        (J.obj
           [
             ("machine", J.obj (machine ~seed ~work));
             ("seconds", J.float_full seconds);
             ("rounds", J.int rounds);
             ( "workloads",
               J.obj
                 (List.map
                    (fun (w, e2e, details, layers) ->
                      ( w,
                        J.obj
                          [
                            ("end_to_end", J.obj (List.map (fun (m, s) -> (m, stat_json s)) e2e));
                            ("details", J.obj (List.map (fun (m, s) -> (m, stat_json s)) details));
                            ( "traced_layers",
                              J.obj (List.map (fun (m, (v, _)) -> (m, J.float_full v)) layers) );
                          ] ))
                    table) );
           ]);
      output_char oc '\n';
      close_out oc);
  (match check with
  | None -> ()
  | Some file ->
      let e2e, per_layer = declared file in
      let same_names declared got what w =
        if List.sort compare declared <> List.sort compare got then
          problem "%s: %s metrics differ from %s" w what file
      in
      List.iter
        (fun (w, e, _, layers) ->
          same_names (List.map fst e2e) (List.map fst e) "end-to-end" w;
          same_names per_layer (List.map fst layers) "per-layer" w)
        table;
      if not smoke then begin
        let base = baseline (Filename.concat (Filename.dirname file) "bench/e2e/results.json") in
        List.iter
          (fun (w, e, _, _) ->
            List.iter
              (fun (m, s) ->
                match (List.assoc_opt m e2e, Option.bind (List.assoc_opt w base) (List.assoc_opt m)) with
                | Some (better, bound), Some b ->
                    let worse =
                      if better = "lower" then s.median > b *. (1. +. bound)
                      else s.median < b *. (1. -. bound)
                    in
                    if worse then
                      problem "%s %s: median %.6g vs committed %.6g (%s is better, bound %g)" w m
                        s.median b better bound
                | _ -> problem "%s %s: no committed median" w m)
              e)
          table
      end);
  if !problems <> [] then begin
    Printf.printf "FAIL: %d problem(s)\n" (List.length !problems);
    exit 1
  end
