(* bcn_fabric — the distributed sweep fabric.

   Examples:
     bcn_fabric spec --seeds 64 --t-end 0.005 > sweep.json
     bcn_fabric work sweep.json --store results &     # terminal 1
     bcn_fabric work sweep.json --store results       # terminal 2
     bcn_fabric status sweep.json --store results
     bcn_fabric merge sweep.json --store results -o sweep.csv
     bcn_fabric fsck --store results
     bcn_fabric gc --store results --min-age 60
     bcn_fabric smoke                                 # CI

   Workers coordinate through the store alone: the manifest names the
   points, lease files (exclusive links) assign contiguous ranges,
   heartbeats keep them, expired leases are stolen. Any number of
   workers may join or leave mid-sweep; the merge reads the store in
   manifest order, so its bytes are identical for any worker history. *)

open Cmdliner

let read_file = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_bin path In_channel.input_all

let spec_of_file path =
  match Fabric.Spec.decode (read_file path) with
  | Ok spec -> spec
  | Error msg -> invalid_arg (Printf.sprintf "%s: %s" path msg)

let spec_file_term =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SPEC"
        ~doc:
          "Fabric spec document (see $(b,bcn_fabric spec)); \"-\" reads \
           standard input.")

let store_req_term =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Content-addressed result store shared by all workers of the \
           run — the only coordination medium the fabric has.")

let chunk_term =
  Arg.(
    value & opt Cli_common.pos_int 16
    & info [ "chunk" ] ~docv:"N"
        ~doc:
          "Points per work lease. Must agree across the workers of one \
           run (they derive the lease table from it); never affects the \
           merged bytes.")

(* ---------- spec ---------- *)

let spec_run seeds first_seed t_end sample_dt sets bernoulli replicas =
  let params =
    List.fold_left
      (fun p (name, v) -> Serve.Tasks.apply_param p name v)
      Fluid.Params.default sets
  in
  let base =
    Simnet.Scenario.bcn ~t_end ~sample_dt
      ?sampling:(if bernoulli then Some Simnet.Scenario.Bernoulli else None)
      params
  in
  let base =
    if replicas > 1 then Simnet.Scenario.with_replicas base replicas else base
  in
  print_endline
    (Fabric.Spec.encode (Fabric.Spec.Seeds { base; first_seed; count = seeds }));
  0

let spec_cmd =
  let seeds =
    Arg.(
      value & opt Cli_common.pos_int 8
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of sweep points (base scenario at seeds $(i,first)..).")
  in
  let first_seed =
    Arg.(
      value & opt int 0
      & info [ "first-seed" ] ~docv:"S" ~doc:"Seed of the first point.")
  in
  let sample_dt =
    Arg.(
      value & opt float 1e-3
      & info [ "sample-dt" ] ~docv:"T" ~doc:"Congestion sampling period.")
  in
  let sets =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string float) []
      & info [ "set" ] ~docv:"PARAM=V"
          ~doc:
            "Override one fluid parameter of the base scenario \
             (gi | gd | ru | q0 | buffer | n | w | pm | capacity); \
             repeatable.")
  in
  let bernoulli =
    Arg.(
      value & flag
      & info [ "bernoulli" ]
          ~doc:
            "Bernoulli congestion sampling — makes the seed axis \
             statistically meaningful (and is required for --replicas).")
  in
  let replicas =
    Arg.(
      value & opt Cli_common.pos_int 1
      & info [ "replicas" ] ~docv:"R"
          ~doc:"Replicas per point (requires --bernoulli).")
  in
  Cmd.v
    (Cmd.info "spec"
       ~doc:
         "Print a canonical fabric spec document: a base BCN scenario \
          fanned over a seed range. Hand the same document to every \
          worker of the run.")
    Term.(
      const spec_run $ seeds $ first_seed
      $ Cli_common.t_end_term ~default:0.005 ()
      $ sample_dt $ sets $ bernoulli $ replicas)

(* ---------- work ---------- *)

let work_run spec_file store worker chunk ttl jobs trace =
  let spec = spec_of_file spec_file in
  let cache = Store.Cache.open_ ~dir:store in
  let worker =
    match worker with
    | Some w -> w
    | None -> Printf.sprintf "%s.%d" (Unix.gethostname ()) (Unix.getpid ())
  in
  let trace_oc = Option.map open_out trace in
  let on_event =
    Option.map
      (fun oc ev ->
        output_string oc (Telemetry.Event.to_line ev ^ "\n");
        flush oc)
      trace_oc
  in
  let report =
    Fun.protect
      ~finally:(fun () -> Option.iter close_out_noerr trace_oc)
      (fun () ->
        Fabric.Worker.run ?jobs ~chunk ~ttl ?on_event ~worker cache spec)
  in
  Printf.printf
    "worker %s: %d ranges claimed, %d stolen; %d points executed, %d \
     already stored\n"
    report.Fabric.Worker.worker report.Fabric.Worker.ranges_claimed
    report.Fabric.Worker.ranges_stolen report.Fabric.Worker.executed
    report.Fabric.Worker.cached;
  0

let work_cmd =
  let worker =
    Arg.(
      value
      & opt (some string) None
      & info [ "worker" ] ~docv:"ID"
          ~doc:
            "Worker id, unique among live workers (default \
             $(i,host).$(i,pid)).")
  in
  let ttl =
    Arg.(
      value & opt float 30.
      & info [ "ttl" ] ~docv:"S"
          ~doc:
            "Heartbeat time-to-live: a lease whose beat is older is \
             presumed dead and may be stolen.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Append lease lifecycle events (claimed/stolen/expired) as \
             telemetry JSONL — $(b,bcn_trace) summarizes the merged \
             files of a distributed run.")
  in
  Cmd.v
    (Cmd.info "work"
       ~doc:
         "Run one fabric worker until the sweep completes: claim free \
          lease ranges, execute their points into the store, steal \
          expired leases from crashed or stalled peers. Safe to run any \
          number of these concurrently against one store.")
    Term.(
      const work_run $ spec_file_term $ store_req_term $ worker $ chunk_term
      $ ttl $ Cli_common.jobs_term $ trace)

(* ---------- status ---------- *)

let status_run spec_file store chunk =
  let spec = spec_of_file spec_file in
  let cache = Store.Cache.open_ ~dir:store in
  let p = Fabric.Worker.progress ~chunk cache spec in
  let m = Fabric.Spec.manifest spec in
  let sweep = m.Store.Manifest.sweep_key in
  Printf.printf "sweep %s\n" (Store.Key.to_hex sweep);
  Printf.printf "points %d/%d stored, ranges %d/%d done\n"
    p.Fabric.Worker.stored p.Fabric.Worker.total p.Fabric.Worker.done_ranges
    p.Fabric.Worker.ranges;
  let now = Unix.gettimeofday () in
  List.iter
    (fun (range, info) ->
      Printf.printf "lease r%06d worker %s points %d..%d beat %.1fs ago\n"
        range info.Store.Lease.worker info.Store.Lease.lo info.Store.Lease.hi
        (now -. info.Store.Lease.beat))
    (Store.Lease.list cache ~sweep);
  0

let status_cmd =
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Show a fabric run's progress without touching it: stored \
          points (through the store index — no per-point I/O), completed \
          ranges, and the live leases with heartbeat ages.")
    Term.(const status_run $ spec_file_term $ store_req_term $ chunk_term)

(* ---------- merge ---------- *)

let merge_run spec_file store as_json out =
  let spec = spec_of_file spec_file in
  let cache = Store.Cache.open_ ~dir:store in
  match
    if as_json then Fabric.Merge.json cache spec else Fabric.Merge.csv cache spec
  with
  | payload ->
      (match out with
      | Some path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc payload)
      | None -> print_string payload);
      0
  | exception Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      1

let merge_cmd =
  let as_json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the JSON document instead of CSV.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of standard output.")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Assemble the completed sweep from the store, in manifest \
          order. Stateless: the bytes depend only on the spec and the \
          stored results — never on which workers ran, joined, died or \
          stole. Fails (exit 1) while points are still missing.")
    Term.(const merge_run $ spec_file_term $ store_req_term $ as_json $ out)

(* ---------- fsck ---------- *)

let fsck_run store jobs no_evict =
  let cache = Store.Cache.open_ ~dir:store in
  let r = Store.Fsck.run ?jobs ~evict:(not no_evict) cache in
  Printf.printf
    "fsck %s: %d checked, %d ok, %d corrupt (%d evicted), index +%d/-%d \
     repaired\n"
    store r.Store.Fsck.checked r.Store.Fsck.ok r.Store.Fsck.corrupt
    r.Store.Fsck.evicted r.Store.Fsck.missing_index r.Store.Fsck.stale_index;
  if r.Store.Fsck.corrupt > 0 then 1 else 0

let fsck_cmd =
  let no_evict =
    Arg.(
      value & flag
      & info [ "no-evict" ]
          ~doc:"Report corrupt entries without removing them.")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Re-verify every stored object's payload hash in parallel, \
          evict corruption, and reconcile the on-disk index with the \
          object tree. Exit status 1 when corruption was found.")
    Term.(const fsck_run $ store_req_term $ Cli_common.jobs_term $ no_evict)

(* ---------- gc ---------- *)

let gc_run store dry_run min_age =
  let cache = Store.Cache.open_ ~dir:store in
  let r = Store.Gc.run ~dry_run ~min_age cache in
  Printf.printf
    "gc %s:%s %d scanned, %d live, %d collected (%d bytes), %d stale tmp \
     removed\n"
    store
    (if dry_run then " (dry run)" else "")
    r.Store.Gc.scanned r.Store.Gc.live r.Store.Gc.collected
    r.Store.Gc.collected_bytes r.Store.Gc.tmp_removed;
  0

let gc_cmd =
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ] ~doc:"Report what would be collected; delete nothing.")
  in
  let min_age =
    Arg.(
      value & opt float 0.
      & info [ "min-age" ] ~docv:"S"
          ~doc:
            "Widen the generation guard: never collect objects younger \
             than $(docv) seconds, protecting in-flight writers on \
             clock-skewed shared filesystems.")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Collect objects referenced by no manifest. Every point of \
          every live manifest is a root (lease ranges are manifest \
          subsets, so leased work is covered), and objects written \
          during the collection are age-guarded — a concurrent worker \
          never loses a result.")
    Term.(const gc_run $ store_req_term $ dry_run $ min_age)

(* ---------- smoke (CI) ---------- *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "FAIL: %s\n" s;
      exit 1)
    fmt

let tiny_spec ~seeds =
  let params = Fluid.Params.with_flows Fluid.Params.default 4 in
  let base =
    Simnet.Scenario.bcn ~t_end:2e-4 ~sample_dt:1e-4
      ~sampling:Simnet.Scenario.Bernoulli params
  in
  Fabric.Spec.Seeds { base; first_seed = 0; count = seeds }

let smoke_run () =
  ignore (Unix.alarm 300);
  let dir = Filename.temp_dir "dcecc-fabric-smoke" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let spec = tiny_spec ~seeds:12 in
      (* 1. single-process oracle: plain Store.Sweep through store A *)
      let store_a = Filename.concat dir "store_a" in
      let cache_a = Store.Cache.open_ ~dir:store_a in
      let outcomes =
        Store.Sweep.sweep ~cache:cache_a ~jobs:1 (Fabric.Spec.scenarios spec)
      in
      let oracle = Fabric.Merge.csv_of spec outcomes in
      if Fabric.Merge.csv cache_a spec <> oracle then
        fail "store-read merge differs from in-memory render";
      (* 2. two worker processes over store B: byte-identical merge *)
      let store_b = Filename.concat dir "store_b" in
      ignore (Store.Cache.open_ ~dir:store_b);
      let child =
        match Unix.fork () with
        | 0 ->
            (try
               let cache = Store.Cache.open_ ~dir:store_b in
               ignore
                 (Fabric.Worker.run ~chunk:2 ~ttl:5. ~worker:"smoke.w2" cache
                    spec)
             with e ->
               Printf.eprintf "worker died: %s\n%!" (Printexc.to_string e);
               Unix._exit 1);
            Unix._exit 0
        | pid -> pid
      in
      let cache_b = Store.Cache.open_ ~dir:store_b in
      let events = ref [] in
      let report =
        Fabric.Worker.run ~chunk:2 ~ttl:5. ~worker:"smoke.w1"
          ~on_event:(fun ev -> events := ev :: !events)
          cache_b spec
      in
      (match Unix.waitpid [] child with
      | _, Unix.WEXITED 0 -> ()
      | _ -> fail "second worker exited abnormally");
      if report.Fabric.Worker.ranges_claimed = 0 then
        fail "first worker claimed no ranges";
      if
        not
          (List.exists
             (fun ev -> ev.Telemetry.Event.kind = Telemetry.Event.Lease_claimed)
             !events)
      then fail "no lease_claimed telemetry event";
      List.iter
        (fun ev ->
          match Telemetry.Event.of_line (Telemetry.Event.to_line ev) with
          | Some ev' when ev' = ev -> ()
          | _ -> fail "lease event does not round-trip through JSONL")
        !events;
      let merged = Fabric.Merge.csv cache_b spec in
      if merged <> oracle then
        fail "two-worker merge differs from single-process bytes";
      Printf.printf
        "fabric ok (2 workers, merged bytes = single-process sweep)\n";
      (* 3. fsck: clean store, then one injected corruption *)
      let r = Store.Fsck.run ~jobs:2 cache_b in
      if r.Store.Fsck.corrupt <> 0 || r.Store.Fsck.stale_index <> 0 then
        fail "fsck of a healthy store found corrupt=%d stale=%d"
          r.Store.Fsck.corrupt r.Store.Fsck.stale_index;
      let victim =
        let m = Fabric.Spec.manifest spec in
        let hex = Store.Key.to_hex m.Store.Manifest.points.(0) in
        Filename.concat
          (Filename.concat
             (Filename.concat store_b "objects")
             (String.sub hex 0 2))
          hex
      in
      let fd = Unix.openfile victim [ O_WRONLY ] 0 in
      ignore (Unix.lseek fd 100 Unix.SEEK_SET);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      let r = Store.Fsck.run ~jobs:2 cache_b in
      if r.Store.Fsck.corrupt <> 1 || r.Store.Fsck.evicted <> 1 then
        fail "fsck missed the injected corruption (corrupt=%d evicted=%d)"
          r.Store.Fsck.corrupt r.Store.Fsck.evicted;
      let r = Store.Fsck.run ~jobs:2 cache_b in
      if r.Store.Fsck.corrupt <> 0 then fail "fsck left corruption behind";
      Printf.printf "fsck ok (clean store clean, 1 injected corruption \
                     detected and evicted)\n";
      (* 4. gc: orphans collected, manifest-rooted objects kept *)
      let orphan_key = Store.Key.of_material "fabric-smoke orphan" in
      Store.Cache.store_value cache_b orphan_key 42;
      let orphan_path =
        let hex = Store.Key.to_hex orphan_key in
        Filename.concat
          (Filename.concat
             (Filename.concat store_b "objects")
             (String.sub hex 0 2))
          hex
      in
      (* age the orphan past the generation guard *)
      let old = Unix.gettimeofday () -. 3600. in
      Unix.utimes orphan_path old old;
      let live_before = Store.Cache.objects cache_b in
      let r = Store.Gc.run cache_b in
      if r.Store.Gc.collected < 1 then fail "gc did not collect the orphan";
      if Store.Cache.mem cache_b orphan_key then
        fail "gc left the orphan object behind";
      let m = Fabric.Spec.manifest spec in
      if Store.Manifest.progress cache_b m <> Fabric.Spec.size spec - 1 then
        fail "gc touched manifest-rooted objects";
      (* point 0 was evicted by the fsck test above, hence the -1;
         re-running one worker heals it and the merge matches again *)
      ignore (Fabric.Worker.run ~chunk:2 ~worker:"smoke.w3" cache_b spec);
      if Fabric.Merge.csv cache_b spec <> oracle then
        fail "post-gc merge differs";
      if Store.Cache.objects cache_b <> live_before then
        fail "index object count inconsistent after gc + heal";
      Printf.printf
        "gc ok (orphan collected, %d live manifest points kept)\n"
        r.Store.Gc.live;
      Printf.printf "fabric smoke ok\n";
      0)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "CI check: a two-worker fabric run merges byte-identically to \
          the single-process sweep, fsck passes a healthy store and \
          detects injected corruption, and gc collects orphans while \
          refusing manifest-rooted objects.")
    Term.(const smoke_run $ const ())

let cmd =
  Cmd.group
    (Cmd.info "bcn_fabric"
       ~doc:
         "Distributed sweep fabric: crash-safe work-leasing workers \
          over the content-addressed store, with stateless \
          byte-deterministic merging, parallel fsck and generational \
          gc.")
    [ spec_cmd; work_cmd; status_cmd; merge_cmd; fsck_cmd; gc_cmd; smoke_cmd ]

let () = exit (Cmd.eval' cmd)
