(* End-to-end benchmark. See README.md in this directory.

   One run:  main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
                      [--spans FILE] [--work DIR] [--smoke]
   prints one JSON line of details, then the result line
   {"correct", "attempted", "failed", "metrics"}.

   A set:    main.exe [--seed N] [--seconds S] [--json FILE]
                      [--check BENCHMARK.json] [--work DIR] [--smoke]
   runs every workload five times, interleaved, each run in a fresh
   process, then one traced round, and prints each metric's median,
   quartiles and sample count. *)

let workloads =
  [
    ("packet_cold", Packet_cold.workload);
    ("store_rerun", Store_rerun.workload);
    ("fluid_figures", Fluid_figures.workload);
    ("serve_mix", Serve_mix.workload);
    ("fabric_tiny", Fabric_tiny.workload);
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]\n\
    \                [--json FILE] [--check BENCHMARK.json] [--work DIR] [--smoke]";
  exit 2

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  spans : string option;
  json : string option;
  check : string option;
  work : string;
  smoke : bool;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = Some w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--spans" :: f :: rest -> go { a with spans = Some f } rest
    | "--json" :: f :: rest -> go { a with json = Some f } rest
    | "--check" :: f :: rest -> go { a with check = Some f } rest
    | "--work" :: d :: rest -> go { a with work = d } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | _ -> usage ()
  in
  try
    go
      {
        workload = None;
        seed = 1;
        seconds = 16.;
        trace = false;
        spans = None;
        json = None;
        check = None;
        work = "_e2e_work";
        smoke = false;
      }
      (List.tl (Array.to_list argv))
  with Failure _ -> usage ()

let run_one a name =
  match List.assoc_opt name workloads with
  | None ->
      Printf.eprintf "unknown workload %s (known: %s)\n" name
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some w ->
      (* every pool in the libraries gets one lane: the load is this one
         process, and forking a daemon or worker stays safe *)
      Unix.putenv "DCECC_JOBS" "1";
      Harness.run
        {
          Harness.workload = name;
          seed = a.seed;
          seconds = a.seconds;
          trace = a.trace;
          smoke = a.smoke;
          work = Filename.concat a.work (Printf.sprintf "%s.%d" name (Unix.getpid ()));
          spans_file = a.spans;
        }
        w

let () =
  let a = parse Sys.argv in
  match a.workload with
  | Some name -> run_one a name
  | None ->
      Run_set.main ~seed:a.seed ~seconds:a.seconds ~json:a.json ~check:a.check ~work:a.work
        ~smoke:a.smoke (List.map fst workloads)
