(* Tests for the distributed sweep fabric: the lease protocol's
   exclusivity and steal semantics, the spec codec and range table,
   worker runs over a shared store (single worker, two forked workers,
   a SIGKILLed worker whose lease is stolen), and the merge invariant —
   bytes are a pure function of the spec, independent of worker count,
   join/leave order and steal history. A qcheck property runs a worker
   against arbitrary dead-claim patterns and asserts no point is ever
   lost or duplicated.

   Everything here runs [jobs:1] (no pool domains) so the fork-based
   tests stay safe: forks happen before the parent ever spawns a
   domain. *)

module Key = Store.Key
module Cache = Store.Cache
module Lease = Store.Lease
module Spec = Fabric.Spec
module Worker = Fabric.Worker
module Merge = Fabric.Merge

let with_store f =
  let dir = Filename.temp_dir "dcecc-fabric-test" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f (Cache.open_ ~dir))

(* the same tiny scenario the bcn_fabric smoke uses: ~0.03 ms per
   point, so whole-fabric runs stay instant *)
let tiny_base () =
  Simnet.Scenario.bcn ~t_end:2e-4 ~sample_dt:1e-4
    ~sampling:Simnet.Scenario.Bernoulli
    (Fluid.Params.with_flows Fluid.Params.default 4)

let tiny_spec count = Spec.Seeds { base = tiny_base (); first_seed = 0; count }
let sweep_of spec = (Spec.manifest spec).Store.Manifest.sweep_key

(* the single-process comparison path: same scenarios, no fabric, no
   store — what any fabric run's merged bytes must equal *)
let oracle_csv spec =
  Merge.csv_of spec (Store.Sweep.sweep ~jobs:1 (Spec.scenarios spec))

(* ---------------- lease protocol ---------------- *)

let test_lease_claim_exclusive () =
  with_store (fun c ->
      let sweep = Key.of_material "lease-exclusive" in
      Alcotest.(check bool)
        "first claim wins" true
        (Lease.claim c ~sweep ~range:0 ~lo:0 ~hi:4 ~worker:"a");
      Alcotest.(check bool)
        "second claim loses" false
        (Lease.claim c ~sweep ~range:0 ~lo:0 ~hi:4 ~worker:"b");
      (match Lease.read c ~sweep ~range:0 with
      | None -> Alcotest.fail "claimed lease unreadable"
      | Some i ->
          Alcotest.(check string) "holder" "a" i.Lease.worker;
          Alcotest.(check int) "lo" 0 i.Lease.lo;
          Alcotest.(check int) "hi" 4 i.Lease.hi);
      Alcotest.(check bool)
        "other slot independent" true
        (Lease.claim c ~sweep ~range:1 ~lo:5 ~hi:9 ~worker:"b");
      Lease.release c ~sweep ~range:0;
      Alcotest.(check bool)
        "released slot reclaimable" true
        (Lease.claim c ~sweep ~range:0 ~lo:0 ~hi:4 ~worker:"b");
      Alcotest.(check int)
        "list sees both live leases" 2
        (List.length (Lease.list c ~sweep)))

let test_lease_heartbeat () =
  with_store (fun c ->
      let sweep = Key.of_material "lease-heartbeat" in
      ignore (Lease.claim c ~sweep ~range:0 ~lo:0 ~hi:3 ~worker:"w");
      let b1 = (Option.get (Lease.read c ~sweep ~range:0)).Lease.beat in
      Unix.sleepf 0.01;
      Lease.heartbeat c ~sweep ~range:0 ~worker:"w" ~lo:0 ~hi:3;
      let i = Option.get (Lease.read c ~sweep ~range:0) in
      Alcotest.(check bool) "beat advanced" true (i.Lease.beat > b1);
      Alcotest.(check string) "holder preserved" "w" i.Lease.worker;
      Alcotest.(check bool)
        "fresh beat not expired" false
        (Lease.expired ~ttl:30. ~now:(i.Lease.beat +. 1.) i);
      Alcotest.(check bool)
        "stale beat expired" true
        (Lease.expired ~ttl:30. ~now:(i.Lease.beat +. 31.) i))

let test_lease_steal () =
  with_store (fun c ->
      let sweep = Key.of_material "lease-steal" in
      ignore (Lease.claim c ~sweep ~range:0 ~lo:0 ~hi:7 ~worker:"dead");
      let beat = (Option.get (Lease.read c ~sweep ~range:0)).Lease.beat in
      let now = beat +. 10. in
      Alcotest.(check bool)
        "live lease not stealable" false
        (Lease.steal c ~sweep ~range:0 ~lo:0 ~hi:7 ~worker:"thief" ~ttl:100.
           ~now);
      Alcotest.(check string)
        "holder unchanged" "dead"
        (Option.get (Lease.read c ~sweep ~range:0)).Lease.worker;
      Alcotest.(check bool)
        "expired lease stolen" true
        (Lease.steal c ~sweep ~range:0 ~lo:0 ~hi:7 ~worker:"thief" ~ttl:5.
           ~now);
      Alcotest.(check string)
        "thief holds it" "thief"
        (Option.get (Lease.read c ~sweep ~range:0)).Lease.worker;
      (* a vacated slot is claimable through the steal path too *)
      Lease.release c ~sweep ~range:0;
      Alcotest.(check bool)
        "steal of an empty slot claims it" true
        (Lease.steal c ~sweep ~range:0 ~lo:0 ~hi:7 ~worker:"thief2" ~ttl:5.
           ~now))

let test_lease_done_markers () =
  with_store (fun c ->
      let sweep = Key.of_material "lease-done" in
      Alcotest.(check bool) "not done initially" false
        (Lease.is_done c ~sweep ~range:0);
      Lease.mark_done c ~sweep ~range:0 ~worker:"a";
      (* duplicated completions (two workers computed the same range)
         collapse onto one marker *)
      Lease.mark_done c ~sweep ~range:0 ~worker:"b";
      Alcotest.(check bool) "done after mark" true
        (Lease.is_done c ~sweep ~range:0);
      Lease.mark_done c ~sweep ~range:2 ~worker:"a";
      Alcotest.(check int) "two markers" 2 (Lease.dones c ~sweep);
      Lease.clear_done c ~sweep ~range:0;
      Lease.clear_done c ~sweep ~range:0;
      Alcotest.(check bool) "revoked" false (Lease.is_done c ~sweep ~range:0);
      Alcotest.(check int) "one marker left" 1 (Lease.dones c ~sweep))

let lease_file c sweep =
  Filename.concat
    (Filename.concat
       (Filename.concat (Cache.root c) "leases")
       (Key.to_hex sweep))
    "r000000.lease"

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes)

let lease_body ?(range = "0 3") ?(beat = "1.5") () =
  Printf.sprintf "dcecc-lease v1\nworker w\nrange %s\nbeat %s\n" range beat

let test_lease_torn_file () =
  with_store (fun c ->
      let sweep = Key.of_material "lease-torn" in
      ignore (Lease.claim c ~sweep ~range:0 ~lo:0 ~hi:3 ~worker:"w");
      write_file (lease_file c sweep) (lease_body ());
      Alcotest.(check bool)
        "well-formed body reads" true
        (Lease.read c ~sweep ~range:0 <> None);
      List.iter
        (fun body ->
          write_file (lease_file c sweep) body;
          Alcotest.(check bool)
            (Printf.sprintf "torn lease %S reads as None" body)
            true
            (Lease.read c ~sweep ~range:0 = None))
        [
          "not a lease";
          "";
          lease_body ~beat:"nan" ();
          lease_body ~beat:"inf" ();
          lease_body ~beat:"1e400" ();
          lease_body ~range:"3 1" ();
          lease_body ~range:"-1 3" ();
        ])

let test_lease_path_is_directory () =
  with_store (fun c ->
      let sweep = Key.of_material "lease-dir" in
      ignore (Lease.claim c ~sweep ~range:1 ~lo:4 ~hi:7 ~worker:"w");
      Sys.mkdir (lease_file c sweep) 0o755;
      Alcotest.(check bool) "read of a directory is None" true
        (Lease.read c ~sweep ~range:0 = None);
      Alcotest.(check (list int)) "list skips it" [ 1 ]
        (List.map fst (Lease.list c ~sweep)))

(* Every truncation and every single-bit flip of one valid lease file:
   [read] never raises, and what it accepts is well formed. *)
let test_lease_corpus () =
  with_store (fun c ->
      let sweep = Key.of_material "lease-corpus" in
      ignore (Lease.claim c ~sweep ~range:0 ~lo:3 ~hi:9 ~worker:"w");
      let path = lease_file c sweep in
      let valid = In_channel.with_open_bin path In_channel.input_all in
      let check bytes =
        write_file path bytes;
        match Lease.read c ~sweep ~range:0 with
        | exception e ->
            Alcotest.failf "lease %S raised %s" bytes (Printexc.to_string e)
        | Some i
          when (not (Float.is_finite i.Lease.beat))
               || i.Lease.lo < 0
               || i.Lease.lo > i.Lease.hi ->
            Alcotest.failf "lease %S read as ill-formed info" bytes
        | Some _ | None -> ()
      in
      for len = 0 to String.length valid - 1 do
        check (String.sub valid 0 len)
      done;
      String.iteri
        (fun pos _ ->
          for bit = 0 to 7 do
            check
              (String.mapi
                 (fun i ch ->
                   if i = pos then Char.chr (Char.code ch lxor (1 lsl bit))
                   else ch)
                 valid)
          done)
        valid)

let test_lease_worker_validation () =
  with_store (fun c ->
      let sweep = Key.of_material "lease-validate" in
      let msg = "Store.Lease: worker id must be non-empty, newline-free" in
      Alcotest.check_raises "empty id rejected" (Invalid_argument msg)
        (fun () ->
          ignore (Lease.claim c ~sweep ~range:0 ~lo:0 ~hi:1 ~worker:""));
      Alcotest.check_raises "newline id rejected" (Invalid_argument msg)
        (fun () ->
          ignore (Lease.claim c ~sweep ~range:0 ~lo:0 ~hi:1 ~worker:"a\nb")))

(* ---------------- spec: ranges and codec ---------------- *)

let ranges_list ~total ~chunk =
  Array.to_list (Spec.ranges ~total ~chunk)

let test_ranges () =
  Alcotest.(check (list (pair int int)))
    "10 points, chunk 3"
    [ (0, 2); (3, 5); (6, 8); (9, 9) ]
    (ranges_list ~total:10 ~chunk:3);
  Alcotest.(check (list (pair int int)))
    "chunk larger than sweep" [ (0, 4) ]
    (ranges_list ~total:5 ~chunk:16);
  Alcotest.(check (list (pair int int)))
    "empty sweep" [] (ranges_list ~total:0 ~chunk:4);
  Alcotest.(check (list (pair int int)))
    "chunk 1 is one slot per point"
    [ (0, 0); (1, 1); (2, 2) ]
    (ranges_list ~total:3 ~chunk:1)

let qcheck_ranges_cover =
  QCheck.Test.make ~name:"ranges tile 0..total-1 exactly" ~count:200
    QCheck.(pair (int_range 0 500) (int_range 1 64))
    (fun (total, chunk) ->
      let r = Spec.ranges ~total ~chunk in
      let covered = Array.make total false in
      Array.iter
        (fun (lo, hi) ->
          for i = lo to hi do
            if covered.(i) then QCheck.Test.fail_report "overlap";
            covered.(i) <- true
          done)
        r;
      Array.for_all Fun.id covered
      && Array.for_all (fun (lo, hi) -> lo <= hi && hi - lo + 1 <= chunk) r)

let test_spec_roundtrip () =
  let check_roundtrip label spec =
    let enc = Spec.encode spec in
    match Spec.decode enc with
    | Error e -> Alcotest.failf "%s: decode failed: %s" label e
    | Ok spec' ->
        Alcotest.(check string) (label ^ ": stable encoding") enc
          (Spec.encode spec');
        Alcotest.(check int) (label ^ ": size preserved") (Spec.size spec)
          (Spec.size spec');
        Alcotest.(check bool)
          (label ^ ": same point keys") true
          (Spec.points spec = Spec.points spec')
  in
  check_roundtrip "seeds" (tiny_spec 5);
  check_roundtrip "explicit" (Spec.Explicit (Spec.scenarios (tiny_spec 3)));
  (match Spec.decode "{\"fabric\": 2}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign version accepted");
  match Spec.decode "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_seeds_expansion () =
  let base = tiny_base () in
  let seeds = Spec.Seeds { base; first_seed = 7; count = 3 } in
  let explicit =
    Spec.Explicit
      (Array.init 3 (fun i -> Simnet.Scenario.with_seed base (7 + i)))
  in
  Alcotest.(check bool)
    "Seeds expands to with_seed base (first_seed + i)" true
    (Spec.points seeds = Spec.points explicit);
  Alcotest.(check (list int))
    "seed sequence" [ 7; 8; 9 ]
    (Array.to_list
       (Array.map
          (fun s -> s.Simnet.Scenario.seed)
          (Spec.scenarios seeds)))

(* ---------------- worker: single process ---------------- *)

let test_single_worker () =
  with_store (fun c ->
      let spec = tiny_spec 7 in
      let events = ref [] in
      let r =
        Worker.run ~chunk:3 ~worker:"w1"
          ~on_event:(fun e -> events := e :: !events)
          c spec
      in
      Alcotest.(check int) "three ranges claimed" 3 r.Worker.ranges_claimed;
      Alcotest.(check int) "nothing stolen" 0 r.Worker.ranges_stolen;
      Alcotest.(check int) "every point executed" 7 r.Worker.executed;
      Alcotest.(check int) "nothing cached cold" 0 r.Worker.cached;
      Alcotest.(check int) "one claim event per range" 3
        (List.length
           (List.filter
              (fun e -> e.Telemetry.Event.kind = Telemetry.Event.Lease_claimed)
              !events));
      let p = Worker.progress ~chunk:3 c spec in
      Alcotest.(check int) "progress: total" 7 p.Worker.total;
      Alcotest.(check int) "progress: stored" 7 p.Worker.stored;
      Alcotest.(check int) "progress: ranges" 3 p.Worker.ranges;
      Alcotest.(check int) "progress: done" 3 p.Worker.done_ranges;
      (* a second worker on the warm store finds only done markers *)
      let r2 = Worker.run ~chunk:3 ~worker:"w2" c spec in
      Alcotest.(check int) "warm run claims nothing" 0 r2.Worker.ranges_claimed;
      Alcotest.(check int) "warm run executes nothing" 0 r2.Worker.executed;
      (* merged bytes = the single-process render, CSV and JSON *)
      Alcotest.(check string)
        "merged CSV = single-process bytes" (oracle_csv spec)
        (Merge.csv c spec);
      Alcotest.(check string)
        "merged JSON = single-process bytes"
        (Merge.json_of spec (Store.Sweep.sweep ~jobs:1 (Spec.scenarios spec)))
        (Merge.json c spec))

let test_merge_incomplete () =
  with_store (fun c ->
      let spec = tiny_spec 4 in
      (match Merge.outcomes c spec with
      | Error n -> Alcotest.(check int) "all four missing" 4 n
      | Ok _ -> Alcotest.fail "merge of an empty store succeeded");
      match Merge.csv c spec with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "csv of an incomplete sweep did not raise")

(* a done marker whose results were evicted (fsck on a corrupt entry)
   is revoked at worker start, and the range heals *)
let test_done_reconcile () =
  with_store (fun c ->
      let spec = tiny_spec 4 in
      ignore (Worker.run ~chunk:2 ~worker:"first" c spec);
      let merged = Merge.csv c spec in
      Cache.evict c (Spec.points spec).(1);
      Alcotest.(check int) "markers intact after evict" 2
        (Lease.dones c ~sweep:(sweep_of spec));
      let r = Worker.run ~chunk:2 ~worker:"healer" c spec in
      Alcotest.(check int) "only the broken range re-claimed" 1
        r.Worker.ranges_claimed;
      Alcotest.(check int) "only the evicted point re-executed" 1
        r.Worker.executed;
      Alcotest.(check string) "healed bytes identical" merged
        (Merge.csv c spec))

(* ---------------- worker: two processes ---------------- *)

let spawn_worker ?(chunk = 2) ?(ttl = 30.) ~worker cache spec =
  match Unix.fork () with
  | 0 ->
      (* fresh handle: the child must not share the parent's index
         append descriptor state *)
      (try
         let c = Cache.open_ ~dir:(Cache.root cache) in
         ignore (Worker.run ~chunk ~ttl ~worker c spec);
         Unix._exit 0
       with e ->
         Printf.eprintf "worker %s died: %s\n%!" worker (Printexc.to_string e);
         Unix._exit 1)
  | pid -> pid

let test_two_workers_fork () =
  with_store (fun c ->
      let spec = tiny_spec 11 in
      let child = spawn_worker ~chunk:2 ~worker:"child" c spec in
      let r = Worker.run ~chunk:2 ~worker:"parent" c spec in
      let _, status = Unix.waitpid [] child in
      Alcotest.(check bool)
        "child exited cleanly" true
        (status = Unix.WEXITED 0);
      (* either worker's [run] returning means the sweep is done *)
      let p = Worker.progress ~chunk:2 c spec in
      Alcotest.(check int) "all points stored" 11 p.Worker.stored;
      Alcotest.(check int) "all ranges done" 6 p.Worker.done_ranges;
      Alcotest.(check bool)
        "parent did not do everything alone (or peer did)" true
        (r.Worker.ranges_claimed + r.Worker.ranges_stolen <= 6);
      Alcotest.(check string)
        "bytes independent of worker count" (oracle_csv spec)
        (Merge.csv c spec))

let test_sigkill_steal () =
  with_store (fun c ->
      let spec = tiny_spec 6 in
      let manifest = Spec.manifest spec in
      let sweep = manifest.Store.Manifest.sweep_key in
      (* the victim claims range 0 and hangs — a worker that died
         mid-lease without releasing *)
      let victim =
        match Unix.fork () with
        | 0 ->
            (try
               let cc = Cache.open_ ~dir:(Cache.root c) in
               Store.Manifest.save cc manifest;
               ignore (Lease.claim cc ~sweep ~range:0 ~lo:0 ~hi:2 ~worker:"victim");
               Unix.sleep 600
             with _ -> ());
            Unix._exit 0
        | pid -> pid
      in
      let rec wait_for_lease n =
        if n = 0 then Alcotest.fail "victim never claimed its lease";
        match Lease.read c ~sweep ~range:0 with
        | Some i when i.Lease.worker = "victim" -> ()
        | _ ->
            Unix.sleepf 0.01;
            wait_for_lease (n - 1)
      in
      wait_for_lease 500;
      Unix.kill victim Sys.sigkill;
      ignore (Unix.waitpid [] victim);
      (* the rescuer claims the free range, then waits out the orphaned
         lease's TTL and steals it *)
      let events = ref [] in
      let r =
        Worker.run ~chunk:3 ~ttl:0.2 ~poll:0.02 ~worker:"rescuer"
          ~on_event:(fun e -> events := e :: !events)
          c spec
      in
      Alcotest.(check int) "stole the victim's range" 1 r.Worker.ranges_stolen;
      Alcotest.(check int) "claimed the free range" 1 r.Worker.ranges_claimed;
      Alcotest.(check int) "executed every point" 6 r.Worker.executed;
      Alcotest.(check bool)
        "emitted lease_expired and lease_stolen" true
        (List.exists
           (fun e -> e.Telemetry.Event.kind = Telemetry.Event.Lease_expired)
           !events
        && List.exists
             (fun e -> e.Telemetry.Event.kind = Telemetry.Event.Lease_stolen)
             !events);
      (match Merge.outcomes c spec with
      | Ok arr ->
          Alcotest.(check int) "no point lost" 6 (Array.length arr)
      | Error n -> Alcotest.failf "%d points missing after rescue" n);
      Alcotest.(check string)
        "rescued bytes = single-process bytes" (oracle_csv spec)
        (Merge.csv c spec))

(* A lease file that does not parse counts as expired: a worker steals
   it at once instead of waiting for a beat that never comes. The run
   is forked under a deadline, so a worker that never finishes fails
   the test rather than hanging it. *)
let finishes_within seconds f =
  match Unix.fork () with
  | 0 -> (
      match f () with
      | () -> Unix._exit 0
      | exception e ->
          Printf.eprintf "worker died: %s\n%!" (Printexc.to_string e);
          Unix._exit 1)
  | pid ->
      let deadline = Unix.gettimeofday () +. seconds in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.01;
            wait ()
        | 0, _ ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            false
        | _, status -> status = Unix.WEXITED 0
      in
      wait ()

let test_torn_lease_stolen () =
  List.iter
    (fun body ->
      with_store (fun c ->
          let spec = tiny_spec 4 in
          let sweep = sweep_of spec in
          ignore (Lease.claim c ~sweep ~range:0 ~lo:0 ~hi:1 ~worker:"dead");
          write_file (lease_file c sweep) body;
          Alcotest.(check bool)
            (Printf.sprintf "worker finishes past lease %S" body)
            true
            (finishes_within 10. (fun () ->
                 let c = Cache.open_ ~dir:(Cache.root c) in
                 let r = Worker.run ~chunk:2 ~ttl:30. ~poll:0.01 ~worker:"w" c spec in
                 if r.Worker.ranges_stolen <> 1 then failwith "no steal"));
          Alcotest.(check string)
            "merged bytes = single-process bytes" (oracle_csv spec)
            (Merge.csv c spec)))
    [ ""; lease_body ~range:"0 1" ~beat:"nan" () ]

(* ---------------- qcheck: arbitrary dead-claim patterns ----------------

   Model a kill schedule as its observable residue: some subset of
   ranges is held by leases of workers that will never beat again. A
   live worker with ttl 0 must steal exactly that subset, claim the
   rest, and merge to the oracle bytes with every point exactly once. *)

let qcheck_kill_schedules =
  QCheck.Test.make ~name:"any dead-claim pattern loses no point" ~count:10
    QCheck.(
      triple (int_range 1 10) (int_range 1 4)
        (list_of_size Gen.(return 10) bool))
    (fun (count, chunk, dead_mask) ->
      with_store (fun c ->
          let spec = tiny_spec count in
          let manifest = Spec.manifest spec in
          Store.Manifest.save c manifest;
          let sweep = manifest.Store.Manifest.sweep_key in
          let ranges = Spec.ranges ~total:count ~chunk in
          let dead = ref 0 in
          Array.iteri
            (fun range (lo, hi) ->
              if List.nth_opt dead_mask range = Some true then begin
                ignore
                  (Lease.claim c ~sweep ~range ~lo ~hi
                     ~worker:(Printf.sprintf "dead-%d" range));
                incr dead
              end)
            ranges;
          (* let the dead beats age past ttl 0 *)
          Unix.sleepf 0.002;
          let r = Worker.run ~chunk ~ttl:0. ~poll:0.001 ~worker:"live" c spec in
          let rows =
            match Merge.outcomes c spec with
            | Ok arr -> Merge.rows spec arr
            | Error n -> QCheck.Test.fail_reportf "%d points missing" n
          in
          r.Worker.ranges_stolen = !dead
          && r.Worker.ranges_claimed = Array.length ranges - !dead
          && r.Worker.executed = count
          && List.map (fun (row : Merge.row) -> row.Merge.point) rows
             = List.init count Fun.id
          && Merge.csv c spec = oracle_csv spec))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "fabric"
    [
      ( "lease",
        [
          Alcotest.test_case "claim is exclusive per slot" `Quick
            test_lease_claim_exclusive;
          Alcotest.test_case "heartbeat advances the beat" `Quick
            test_lease_heartbeat;
          Alcotest.test_case "steal: live refused, expired taken" `Quick
            test_lease_steal;
          Alcotest.test_case "done markers idempotent and revocable" `Quick
            test_lease_done_markers;
          Alcotest.test_case "torn lease file reads as unclaimed" `Quick
            test_lease_torn_file;
          Alcotest.test_case "lease path is a directory" `Quick
            test_lease_path_is_directory;
          Alcotest.test_case "lease truncations and bit flips" `Quick
            test_lease_corpus;
          Alcotest.test_case "worker id validation" `Quick
            test_lease_worker_validation;
        ] );
      ( "spec",
        [
          Alcotest.test_case "range table shapes" `Quick test_ranges;
          Alcotest.test_case "encode/decode round-trip" `Quick
            test_spec_roundtrip;
          Alcotest.test_case "Seeds = Explicit of with_seed" `Quick
            test_seeds_expansion;
        ] );
      qsuite "spec-qcheck" [ qcheck_ranges_cover ];
      ( "worker",
        [
          Alcotest.test_case "single worker completes and merges" `Quick
            test_single_worker;
          Alcotest.test_case "merge of an incomplete sweep fails" `Quick
            test_merge_incomplete;
          Alcotest.test_case "stale done markers reconcile and heal" `Quick
            test_done_reconcile;
          Alcotest.test_case "two forked workers: byte-identical merge" `Quick
            test_two_workers_fork;
          Alcotest.test_case "SIGKILLed worker's lease is stolen" `Quick
            test_sigkill_steal;
          Alcotest.test_case "unparseable lease is stolen at once" `Quick
            test_torn_lease_stolen;
        ] );
      qsuite "kill-schedules" [ qcheck_kill_schedules ];
    ]
