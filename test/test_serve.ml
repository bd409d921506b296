(* Tests for the serve daemon's determinism contract, beyond what the
   bcn_serve smoke covers: cold -> warm byte-identity through the
   socket for a scenario (Run) request, in-flight dedup of identical
   concurrent requests, crash-resume (SIGKILL the daemon, restart on
   the same store: the repeat is warm and recomputes nothing), and
   jobs 1 vs jobs 4 response identity.

   Every daemon is forked BEFORE the parent touches a pool: the
   parent's reference computations run through Tasks.execute, whose
   internal pools are jobs:1 and spawn no domains, so fork stays
   safe. *)

let temp_dir () = Filename.temp_dir "dcecc-serve-test" ""

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let fork_daemon ~socket ~store ~jobs =
  match Unix.fork () with
  | 0 ->
      (try
         Serve.Daemon.run
           {
             Serve.Daemon.socket_path = socket;
             store_dir = Some store;
             jobs;
             max_inflight = 16;
             log = false;
           }
       with e ->
         Printf.eprintf "daemon died: %s\n%!" (Printexc.to_string e);
         Unix._exit 1);
      Unix._exit 0
  | pid -> pid

(* reap [pid] whatever state the test left it in *)
let stop_daemon pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let with_daemon ~socket ~store ~jobs f =
  let pid = fork_daemon ~socket ~store ~jobs in
  Fun.protect ~finally:(fun () -> stop_daemon pid) (fun () -> f pid)

let with_client ~socket f =
  let c = Serve.Client.connect ~path:socket () in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let metric name m =
  match List.assoc_opt name m with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "stats: missing metric %s" name

let result_exn = function
  | Serve.Protocol.Result { warm; dedup; payload; _ } -> (warm, dedup, payload)
  | Serve.Protocol.Error { message; _ } ->
      Alcotest.failf "request failed: %s" message
  | _ -> Alcotest.fail "unexpected response"

(* a deliberately small scenario so the cold run stays fast *)
let tiny_scenario () =
  Simnet.Scenario.bcn ~t_end:2e-3 (Fluid.Params.with_flows Fluid.Params.default 8)

(* ---------------- cold -> warm byte-identity (Run) ---------------- *)

let test_run_cold_warm () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "serve.sock" in
      let store = Filename.concat dir "store" in
      let req = Serve.Tasks.Run (tiny_scenario ()) in
      with_daemon ~socket ~store ~jobs:1 (fun _pid ->
          with_client ~socket (fun c ->
              let w1, _, p1 = result_exn (Serve.Client.request c ~id:1 req) in
              Alcotest.(check bool) "first answer is cold" false w1;
              Alcotest.(check string)
                "cold payload = direct execution" (Serve.Tasks.execute req) p1;
              let w2, _, p2 = result_exn (Serve.Client.request c ~id:2 req) in
              Alcotest.(check bool) "repeat is warm" true w2;
              Alcotest.(check string) "warm payload = cold payload" p1 p2;
              let m = Serve.Client.stats c ~id:3 in
              Alcotest.(check int)
                "exactly one computation" 1
                (metric "serve.executed" m);
              Serve.Client.shutdown c ~id:4)))

(* ---------------- in-flight dedup ---------------- *)

let test_inflight_dedup () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "serve.sock" in
      let store = Filename.concat dir "store" in
      let req =
        Serve.Tasks.Sweep
          {
            param = "ru";
            lo = 4e6;
            hi = 16e6;
            steps = 3;
            log_scale = false;
            buffer = 15e6;
          }
      in
      with_daemon ~socket ~store ~jobs:1 (fun _pid ->
          with_client ~socket (fun c ->
              (* one write syscall carrying both request lines: the
                 daemon admits both before any completion can land *)
              let cmd = Serve.Protocol.Compute req in
              Serve.Client.send_raw c
                (Serve.Protocol.encode_request ~id:1 cmd
                ^ Serve.Protocol.encode_request ~id:2 cmd);
              let rec read_result id =
                match Serve.Client.next c with
                | Serve.Protocol.Result { id = rid; warm; dedup; payload }
                  when rid = id ->
                    (warm, dedup, payload)
                | Serve.Protocol.Error { id = rid; message } when rid = id ->
                    Alcotest.failf "request %d failed: %s" id message
                | _ -> read_result id
              in
              let w1, d1, p1 = read_result 1 in
              let w2, d2, p2 = read_result 2 in
              Alcotest.(check bool) "neither answered warm" false (w1 || w2);
              Alcotest.(check bool) "first is the computing one" false d1;
              Alcotest.(check bool) "second joined in flight" true d2;
              Alcotest.(check string) "identical payloads" p1 p2;
              Alcotest.(check string)
                "payload = direct execution" (Serve.Tasks.execute req) p1;
              let m = Serve.Client.stats c ~id:3 in
              Alcotest.(check int)
                "one computation for the pair" 1
                (metric "serve.executed" m);
              Serve.Client.shutdown c ~id:4)))

(* ---------------- crash-resume ---------------- *)

let test_crash_resume () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Filename.concat dir "store" in
      let req =
        Serve.Tasks.Sweep
          {
            param = "gi";
            lo = 1.;
            hi = 4.;
            steps = 3;
            log_scale = false;
            buffer = 15e6;
          }
      in
      let socket1 = Filename.concat dir "serve1.sock" in
      let cold =
        with_daemon ~socket:socket1 ~store ~jobs:1 (fun pid ->
            let p =
              with_client ~socket:socket1 (fun c ->
                  let w, _, p = result_exn (Serve.Client.request c ~id:1 req) in
                  Alcotest.(check bool) "first answer is cold" false w;
                  p)
            in
            (* completed points persist immediately: a SIGKILL here must
               lose nothing *)
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            p)
      in
      let socket2 = Filename.concat dir "serve2.sock" in
      with_daemon ~socket:socket2 ~store ~jobs:1 (fun _pid ->
          with_client ~socket:socket2 (fun c ->
              let w, _, p = result_exn (Serve.Client.request c ~id:1 req) in
              Alcotest.(check bool) "restarted daemon answers warm" true w;
              Alcotest.(check string) "payload survives the crash" cold p;
              let m = Serve.Client.stats c ~id:2 in
              Alcotest.(check int)
                "zero recomputation after restart" 0
                (metric "serve.executed" m);
              Serve.Client.shutdown c ~id:3)))

(* ---------------- jobs 1 = jobs 4 ---------------- *)

let test_jobs_identity () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let req =
        Serve.Tasks.Region
          {
            param = "gi";
            lo = 0.5;
            hi = 8.;
            param2 = "gd";
            lo2 = 2e-3;
            hi2 = 32e-3;
            buffer = 15e6;
            coarse = 4;
            levels = 1;
          }
      in
      let payload_at jobs tag =
        let socket = Filename.concat dir (tag ^ ".sock") in
        let store = Filename.concat dir (tag ^ ".store") in
        with_daemon ~socket ~store ~jobs (fun _pid ->
            with_client ~socket (fun c ->
                let w, _, p = result_exn (Serve.Client.request c ~id:1 req) in
                Alcotest.(check bool) "cold on a fresh store" false w;
                Serve.Client.shutdown c ~id:2;
                p))
      in
      let p1 = payload_at 1 "j1" in
      let p4 = payload_at 4 "j4" in
      Alcotest.(check string) "jobs 1 payload = jobs 4 payload" p1 p4;
      Alcotest.(check string)
        "payload = direct execution" (Serve.Tasks.execute req) p1)

(* ---------------- batch: fabric-backed sweeps ---------------- *)

(* A Batch request makes the daemon one more fabric worker over its
   own store. The answer must equal the storeless single-process
   render byte for byte, a repeat must be warm, and — because the
   answer key deliberately excludes the lease chunking — a repeat at a
   different chunk must be warm too. *)
let test_batch_fabric () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "serve.sock" in
      let store = Filename.concat dir "store" in
      let spec =
        Fabric.Spec.Seeds
          {
            base =
              Simnet.Scenario.bcn ~t_end:2e-4 ~sample_dt:1e-4
                ~sampling:Simnet.Scenario.Bernoulli
                (Fluid.Params.with_flows Fluid.Params.default 4);
            first_seed = 0;
            count = 5;
          }
      in
      let req chunk = Serve.Tasks.Batch { spec; chunk; as_json = false } in
      with_daemon ~socket ~store ~jobs:1 (fun _pid ->
          with_client ~socket (fun c ->
              let w1, _, p1 =
                result_exn (Serve.Client.request c ~id:1 (req 2))
              in
              Alcotest.(check bool) "first batch is cold" false w1;
              Alcotest.(check string)
                "batch payload = direct execution"
                (Serve.Tasks.execute (req 2))
                p1;
              let w2, _, p2 =
                result_exn (Serve.Client.request c ~id:2 (req 2))
              in
              Alcotest.(check bool) "repeat is warm" true w2;
              Alcotest.(check string) "warm bytes identical" p1 p2;
              let w3, _, p3 =
                result_exn (Serve.Client.request c ~id:3 (req 3))
              in
              Alcotest.(check bool)
                "different chunking is still warm" true w3;
              Alcotest.(check string) "chunking never shapes bytes" p1 p3;
              let m = Serve.Client.stats c ~id:4 in
              Alcotest.(check int)
                "one computation for all three" 1
                (metric "serve.executed" m);
              Serve.Client.shutdown c ~id:5)))

(* ---------------- malformed lines ---------------- *)

(* A malformed line costs its sender one parse-error reply: the daemon
   stays up for that connection and for every other. *)
let test_malformed_lines () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "serve.sock" in
      let store = Filename.concat dir "store" in
      with_daemon ~socket ~store ~jobs:1 (fun _pid ->
          with_client ~socket (fun bad ->
              let lines =
                [ "{}"; "42"; "[]"; "{\"id\": 1.5, \"kind\": \"stats\"}" ]
              in
              Serve.Client.send_raw bad (String.concat "\n" lines ^ "\n");
              List.iter
                (fun line ->
                  match Serve.Client.next bad with
                  | Serve.Protocol.Error { message; _ }
                    when String.starts_with ~prefix:"parse error" message ->
                      ()
                  | _ -> Alcotest.failf "%s: expected a parse error" line)
                lines;
              with_client ~socket (fun c ->
                  let m = Serve.Client.stats c ~id:1 in
                  Alcotest.(check int)
                    "second connection answered" 0
                    (metric "serve.executed" m));
              Serve.Client.shutdown bad ~id:2)))

let () =
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "run: cold = warm = direct (bytes)" `Quick
            test_run_cold_warm;
          Alcotest.test_case "in-flight dedup: one computation" `Quick
            test_inflight_dedup;
          Alcotest.test_case "crash-resume: warm after SIGKILL" `Quick
            test_crash_resume;
          Alcotest.test_case "jobs 1 = jobs 4 (bytes)" `Quick
            test_jobs_identity;
          Alcotest.test_case "batch: fabric-backed, chunk-independent" `Quick
            test_batch_fabric;
          Alcotest.test_case "malformed lines: parse errors, daemon up" `Quick
            test_malformed_lines;
        ] );
    ]
