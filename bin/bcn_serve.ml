(* bcn_serve — the simulation-as-a-service daemon and its client.

   Examples:
     bcn_serve serve --socket /tmp/bcn.sock --store results &
     bcn_serve request scenario.json --socket /tmp/bcn.sock
     bcn_serve stats --socket /tmp/bcn.sock
     bcn_serve shutdown --socket /tmp/bcn.sock
     bcn_serve smoke                      # CI: dedup + warm + shutdown

   The request file may be either a canonical Simnet.Scenario document
   (as produced by Scenario.encode) or a full protocol request object
   carrying a "kind" field — see Serve.Protocol for the grammar. Warm
   requests are answered from the store without simulating; identical
   concurrent requests share one computation; responses are
   byte-identical to the matching CLI tool's output. *)

open Cmdliner

let socket_term =
  Arg.(
    value
    & opt string "bcn_serve.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

(* ---------- serve ---------- *)

let serve_run socket store jobs max_inflight verbose =
  let base = Serve.Daemon.default_config ~socket_path:socket in
  Serve.Daemon.run
    {
      base with
      Serve.Daemon.store_dir = store;
      jobs = (match jobs with Some j -> j | None -> base.Serve.Daemon.jobs);
      max_inflight;
      log = verbose;
    };
  0

let serve_cmd =
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result store backing the daemon: warm \
             requests are answered from $(docv) without simulating, and \
             every completed point persists immediately, so a killed \
             daemon resumes warm.")
  in
  let max_inflight =
    Arg.(
      value
      & opt Cli_common.pos_int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Bound on distinct queued-or-running requests; cold requests \
             beyond it are refused with a busy error.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Print one lifecycle line per event.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the daemon: accept scenario/sweep/margin/region requests \
          over a Unix-domain socket, answer warm ones from the store, \
          deduplicate identical in-flight work, stream progress to \
          subscribers.")
    Term.(
      const serve_run $ socket_term $ store $ Cli_common.jobs_term
      $ max_inflight $ verbose)

(* ---------- request ---------- *)

let read_file = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_bin path In_channel.input_all

(* A scenario document is itself a valid request body: wrap it as a
   run. A document carrying "kind" is a full protocol request; its
   "id" (if any) is replaced by ours. *)
let command_of_document src =
  let open Simnet.Json_read in
  let decoded = function
    | Ok v -> v
    | Error msg -> invalid_arg ("request file: " ^ msg)
  in
  match parse src with
  | exception Bad msg -> invalid_arg ("request file: " ^ msg)
  | Jobj o when field o "kind" <> None ->
      let o = ("id", Num 1.) :: List.remove_assoc "id" o in
      (decoded (Serve.Protocol.of_json (Jobj o))).Serve.Protocol.command
  | j ->
      let s = decoded (Simnet.Scenario.of_json j) in
      Serve.Protocol.Compute (Serve.Tasks.Run s)

let request_run socket file =
  let command = command_of_document (read_file file) in
  let c = Serve.Client.connect ~path:socket () in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      match Serve.Client.rpc c ~id:1 command with
      | Serve.Protocol.Result { payload; _ } ->
          print_string payload;
          0
      | Serve.Protocol.Error { message; _ } ->
          Printf.eprintf "error: %s\n" message;
          1
      | _ ->
          Printf.eprintf "error: unexpected response\n";
          1)

let request_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Request document: a canonical scenario JSON (run it) or a \
             protocol request object with a \"kind\" field; \"-\" reads \
             standard input.")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running daemon and print the payload \
          (byte-identical to the matching CLI tool's output).")
    Term.(const request_run $ socket_term $ file)

(* ---------- stats / shutdown ---------- *)

let stats_run socket =
  let c = Serve.Client.connect ~path:socket () in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      let metrics = Serve.Client.stats c ~id:1 in
      print_endline
        (Telemetry.Json.obj
           (List.map
              (fun (k, v) -> (k, Telemetry.Json.float_full v))
              metrics));
      0)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print a running daemon's metrics snapshot (store.* counters, \
          queue depth, executed computations) as JSON.")
    Term.(const stats_run $ socket_term)

let shutdown_run socket =
  let c = Serve.Client.connect ~path:socket () in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      Serve.Client.shutdown c ~id:1;
      print_endline "daemon drained and exited";
      0)

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:
         "Gracefully stop a running daemon: admission closes, in-flight \
          work drains and persists, then the daemon exits.")
    Term.(const shutdown_run $ socket_term)

(* ---------- smoke (CI) ---------- *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "FAIL: %s\n" s;
      exit 1)
    fmt

let metric name m =
  match List.assoc_opt name m with
  | Some v -> int_of_float v
  | None -> fail "stats: missing metric %s" name

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

let wait_exit pid =
  let rec go tries =
    if tries = 0 then fail "daemon did not exit within the timeout";
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        Unix.sleepf 0.1;
        go (tries - 1)
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> fail "daemon exited abnormally"
  in
  go 100

(* End-to-end check of the daemon on a throwaway socket + store:
     1. a cold request's payload is byte-identical to direct execution,
        and costs exactly one computation;
     2. the warm repeat simulates nothing: zero miss/executed delta,
        answered from the store;
     3. two identical cold requests written back-to-back share one
        computation (the second is flagged dedup);
     4. graceful shutdown drains, replies bye, exits 0 and unlinks the
        socket within a timeout. *)
let smoke_run () =
  ignore (Unix.alarm 300);
  let dir = Filename.temp_dir "dcecc-serve-smoke" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let socket = Filename.concat dir "serve.sock" in
      let store = Filename.concat dir "store" in
      let pid = fork_daemon ~socket ~store ~jobs:1 in
      let c = Serve.Client.connect ~path:socket () in
      (* 1. cold request: byte-identity + one computation *)
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
      let p1 =
        match Serve.Client.request c ~id:1 req with
        | Serve.Protocol.Result { payload; warm = false; _ } -> payload
        | Serve.Protocol.Result _ -> fail "first request answered warm"
        | Serve.Protocol.Error { message; _ } ->
            fail "cold request failed: %s" message
        | _ -> fail "cold request: unexpected response"
      in
      if p1 <> Serve.Tasks.execute req then
        fail "daemon payload differs from direct execution";
      let m1 = Serve.Client.stats c ~id:2 in
      if metric "serve.executed" m1 <> 1 then
        fail "cold request executed %d computations (expected 1)"
          (metric "serve.executed" m1);
      Printf.printf "cold ok (payload = direct execution, 1 computation)\n";
      (* 2. warm repeat: zero simulations *)
      (match Serve.Client.request c ~id:3 req with
      | Serve.Protocol.Result { payload; warm = true; _ } ->
          if payload <> p1 then fail "warm payload differs from cold"
      | Serve.Protocol.Result _ -> fail "repeat request was not warm"
      | _ -> fail "warm request: unexpected response");
      let m2 = Serve.Client.stats c ~id:4 in
      if metric "serve.executed" m2 <> 1 then
        fail "warm request recomputed (executed %d)"
          (metric "serve.executed" m2);
      if metric "store.misses" m2 <> metric "store.misses" m1 then
        fail "warm request missed the store";
      if metric "conn.warm" m2 <> 1 then
        fail "conn.warm = %d (expected 1)" (metric "conn.warm" m2);
      Printf.printf "warm ok (0 simulations, byte-identical payload)\n";
      (* 3. in-flight dedup: two identical cold requests, one write *)
      let req2 =
        Serve.Tasks.Sweep
          {
            param = "gd";
            lo = 4e-3;
            hi = 16e-3;
            steps = 3;
            log_scale = false;
            buffer = 15e6;
          }
      in
      let cmd = Serve.Protocol.Compute req2 in
      Serve.Client.send_raw c
        (Serve.Protocol.encode_request ~id:5 cmd
        ^ Serve.Protocol.encode_request ~id:6 cmd);
      let rec read_result id =
        match Serve.Client.next c with
        | Serve.Protocol.Result { id = rid; warm; dedup; payload }
          when rid = id ->
            (warm, dedup, payload)
        | Serve.Protocol.Error { id = rid; message } when rid = id ->
            fail "request %d failed: %s" id message
        | _ -> read_result id
      in
      let w5, d5, p5 = read_result 5 in
      let w6, d6, p6 = read_result 6 in
      if w5 || w6 then fail "dedup pair answered warm; wanted in-flight join";
      if d5 then fail "first of the dedup pair was flagged dedup";
      if not d6 then fail "second identical request did not join in flight";
      if p5 <> p6 then fail "dedup pair payloads differ";
      if p5 <> Serve.Tasks.execute req2 then
        fail "dedup payload differs from direct execution";
      let m3 = Serve.Client.stats c ~id:7 in
      if metric "serve.executed" m3 <> 2 then
        fail "dedup pair executed %d computations total (expected 2)"
          (metric "serve.executed" m3);
      if metric "conn.joined" m3 <> 1 then
        fail "conn.joined = %d (expected 1)" (metric "conn.joined" m3);
      Printf.printf
        "dedup ok (2 identical cold requests, 1 computation, dedup flagged)\n";
      (* 4. graceful shutdown *)
      Serve.Client.shutdown c ~id:8;
      Serve.Client.close c;
      wait_exit pid;
      if Sys.file_exists socket then
        fail "socket file survived graceful shutdown";
      Printf.printf "shutdown ok (drained, exit 0, socket unlinked)\n";
      Printf.printf "serve smoke ok\n";
      0)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "CI check: cold payloads match direct execution byte for byte, \
          warm repeats simulate nothing, identical concurrent requests \
          share one computation, and graceful shutdown drains and exits \
          cleanly.")
    Term.(const smoke_run $ const ())

let cmd =
  Cmd.group
    (Cmd.info "bcn_serve"
       ~doc:
         "Simulation-as-a-service: a daemon answering scenario, sweep, \
          margin and region requests with warm-store answers, in-flight \
          dedup and streamed telemetry.")
    [ serve_cmd; request_cmd; stats_cmd; shutdown_cmd; smoke_cmd ]

let () = exit (Cmd.eval' cmd)
