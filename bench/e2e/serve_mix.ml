(* serve_mix: a [bcn_serve] daemon (store in the scratch directory, one
   worker lane) under two closed-loop connections, driven by one
   single-threaded [select] loop over raw sockets.

   Mix per request: 80% warm (one of 64 [run], 4 [sweep] and 4 [margin]
   payloads answered in set-up), 10% cold (a fresh-seed BCN Bernoulli
   [run]) and 10% dedup pairs (one fresh request written twice in a
   single write). Warm answers exercise the protocol, the event loop and
   a small store find; cold ones the engine plus a large put; and warm
   answers that queue behind cold work show in the tail. *)

module P = Serve.Protocol
module T = Serve.Tasks
module S = Simnet.Scenario

let connections = 2

type kind = Warm of int | Cold | Dedup

(* One request in flight. Times are [Span.now_ns]. *)
type pending = {
  kind : kind;
  req : T.request;
  conn : int;
  enc0 : int64;
  enc1 : int64;
  mutable sent : int64;
  mutable pair : int option;  (** the other half of a dedup pair *)
}

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable busy : int }

type st = {
  dir : string;
  socket : string;
  pid : int;
  seed : int;
  warm : (T.request * string) array;  (** requests answered in set-up *)
  golden : string;  (** the seed-independent sweep and margin payloads *)
  rng : Random.State.t;
  mutable fresh : int;  (** cold keys sent *)
  mutable next_id : int;
  mutable cold_done : int;
  mutable cold_checks : (T.request * string) list;  (** every 16th cold answer *)
  mutable dedup_seen : (int * string) list;  (** first half's payload, by pair *)
  mutable lat : (kind * float) list;  (** untraced latencies, by class *)
}

let params = Fluid.Params.default

(* A BCN Bernoulli run no earlier request has asked for. *)
let fresh st =
  st.fresh <- st.fresh + 1;
  T.Run
    (S.with_replicas
       (S.with_seed (S.bcn ~t_end:0.02 ~sample_dt:1e-4 ~sampling:S.Bernoulli params)
          ((st.seed * 1_000_000) + st.fresh))
       2)

let fixed =
  List.init 4 (fun k ->
      T.Sweep
        {
          param = "gi";
          lo = 1.;
          hi = float_of_int (4 + k);
          steps = 3;
          log_scale = false;
          buffer = 15e6;
        })
  @ List.init 4 (fun k ->
        T.Margin
          {
            axes = [ "bcn-loss" ];
            flap_period = 2e-3;
            flap_duty = 0.5;
            t_end = 0.005;
            transient = None;
            iters = Some 3;
            seed = k;
          })

let start_daemon dir =
  let socket = Filename.concat dir "serve.sock" in
  let store = Filename.concat dir "store" in
  Harness.mkdir_p dir;
  let pid =
    Harness.fork (fun () ->
        Serve.Daemon.run
          {
            Serve.Daemon.socket_path = socket;
            store_dir = Some store;
            jobs = 1;
            max_inflight = 64;
            log = false;
          })
  in
  (socket, pid)

let payload = function
  | P.Result { payload; _ } -> payload
  | P.Error { message; _ } -> failwith ("serve set-up: " ^ message)
  | _ -> failwith "serve set-up: unexpected response"

let setup (cfg : Harness.cfg) =
  let dir = Harness.fresh_dir cfg "serve" in
  let socket, pid = start_daemon dir in
  let c = Serve.Client.connect ~path:socket () in
  let runs =
    List.init (if cfg.smoke then 4 else 64) (fun i ->
        T.Run (Points.scenario ~sample_dt:1e-4 ~seed:cfg.seed i))
  in
  let warm =
    Array.of_list
      (List.mapi (fun i r -> (r, payload (Serve.Client.request c ~id:(i + 1) r))) (runs @ fixed))
  in
  Serve.Client.close c;
  {
    dir;
    socket;
    pid;
    seed = cfg.seed;
    warm;
    golden = String.concat "" (List.map (fun r -> List.assoc r (Array.to_list warm)) fixed);
    rng = Random.State.make [| cfg.seed; 7 |];
    fresh = 0;
    next_id = 0;
    cold_done = 0;
    cold_checks = [];
    dedup_seen = [];
    lat = [];
  }

let stop st =
  let c = Serve.Client.connect ~path:st.socket () in
  let executed =
    Option.value ~default:0. (List.assoc_opt "serve.executed" (Serve.Client.stats c ~id:1))
  in
  let rss = Harness.vm_hwm_kb (string_of_int st.pid) in
  Serve.Client.shutdown c ~id:2;
  Serve.Client.close c;
  let clean = Harness.reap st.pid in
  Harness.rm_rf st.dir;
  (executed, rss, clean)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* The closed loop: each connection sends its next request (or dedup
   pair) once every answer to the previous one has arrived. *)
let measure st (ph : Harness.phase) ~deadline =
  let conns =
    Array.init connections (fun _ ->
        let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
        Unix.connect fd (ADDR_UNIX st.socket);
        { fd; buf = Buffer.create 4096; busy = 0 })
  in
  let inflight : (int, pending) Hashtbl.t = Hashtbl.create 16 in
  let issue ci =
    let u = Random.State.float st.rng 1. in
    let kind, reqs =
      if u < 0.8 then
        let i = Random.State.int st.rng (Array.length st.warm) in
        (Warm i, [ fst st.warm.(i) ])
      else if u < 0.9 then (Cold, [ fresh st ])
      else
        let r = fresh st in
        (Dedup, [ r; r ])
    in
    let sent =
      List.map
        (fun req ->
          st.next_id <- st.next_id + 1;
          let id = st.next_id in
          let enc0 = Span.now_ns () in
          let line = P.encode_request ~id (P.Compute req) in
          let p = { kind; req; conn = ci; enc0; enc1 = Span.now_ns (); sent = 0L; pair = None } in
          Hashtbl.replace inflight id p;
          (id, p, line))
        reqs
    in
    (match sent with
    | [ (a, pa, _); (b, pb, _) ] ->
        pa.pair <- Some b;
        pb.pair <- Some a
    | _ -> ());
    let t = Span.now_ns () in
    List.iter (fun (_, p, _) -> p.sent <- t) sent;
    conns.(ci).busy <- List.length sent;
    write_all conns.(ci).fd (String.concat "" (List.map (fun (_, _, l) -> l) sent))
  in
  let complete id resp ~recv ~p0 ~p1 =
    match Hashtbl.find_opt inflight id with
    | None -> ph.failed <- ph.failed + 1
    | Some p ->
        Hashtbl.remove inflight id;
        let ok =
          match (resp, p.kind) with
          | P.Result { payload; _ }, Warm i -> payload = snd st.warm.(i)
          | P.Result { payload; _ }, Cold ->
              st.cold_done <- st.cold_done + 1;
              if st.cold_done mod 16 = 0 then
                st.cold_checks <- (p.req, payload) :: st.cold_checks;
              true
          | P.Result { payload; _ }, Dedup -> (
              let pair = Option.get p.pair in
              match List.assoc_opt pair st.dedup_seen with
              | Some other ->
                  st.dedup_seen <- List.remove_assoc pair st.dedup_seen;
                  other = payload
              | None ->
                  st.dedup_seen <- (id, payload) :: st.dedup_seen;
                  true)
          | _ -> false
        in
        Harness.count ph ~ok;
        let latency = Int64.to_float (Int64.sub p1 p.enc0) *. 1e-9 in
        ph.lat <- latency :: ph.lat;
        if !Span.enabled then begin
          let op = Span.record ~name:"op" ~t0:p.enc0 ~t1:p1 () in
          ignore (Span.record ~name:"serve.encode" ~parent:op ~op ~t0:p.enc0 ~t1:p.enc1 ());
          ignore (Span.record ~name:"serve.roundtrip" ~parent:op ~op ~t0:p.sent ~t1:recv ());
          ignore (Span.record ~name:"serve.parse" ~parent:op ~op ~t0:p0 ~t1:p1 ())
        end
        else st.lat <- (p.kind, latency) :: st.lat;
        let c = conns.(p.conn) in
        c.busy <- c.busy - 1;
        if c.busy = 0 && Span.now () < deadline then issue p.conn
  in
  let scratch = Bytes.create 65536 in
  let on_readable ci =
    let c = conns.(ci) in
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 -> failwith "serve: daemon closed the connection"
    | n ->
        let recv = Span.now_ns () in
        Buffer.add_subbytes c.buf scratch 0 n;
        let s = Buffer.contents c.buf in
        let rec lines start =
          match String.index_from_opt s start '\n' with
          | None ->
              Buffer.clear c.buf;
              Buffer.add_substring c.buf s start (String.length s - start)
          | Some nl ->
              let p0 = Span.now_ns () in
              let resp = P.parse_response (String.sub s start (nl - start)) in
              let p1 = Span.now_ns () in
              (match resp with
              | Ok (P.Queued _) -> ()
              | Ok (P.Result { id; _ } as r) | Ok (P.Error { id; _ } as r) ->
                  complete id r ~recv ~p0 ~p1
              | Ok _ | Error _ -> ph.failed <- ph.failed + 1);
              lines (nl + 1)
        in
        lines 0
  in
  let t0 = Span.now () in
  Array.iteri (fun ci _ -> issue ci) conns;
  while Hashtbl.length inflight > 0 do
    let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    match Unix.select fds [] [] 30. with
    | [], _, _ -> failwith "serve: no answer within 30 s"
    | ready, _, _ ->
        Array.iteri (fun ci c -> if List.mem c.fd ready then on_readable ci) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  ph.wall <- ph.wall +. (Span.now () -. t0);
  Array.iter (fun c -> Unix.close c.fd) conns

let finish st (_ : Harness.phase) =
  let cold_ok = List.for_all (fun (req, payload) -> T.execute req = payload) st.cold_checks in
  let executed, rss, clean = stop st in
  let by k = List.filter_map (fun (k', l) -> if k = k' then Some l else None) st.lat in
  let warm = List.filter_map (function Warm _, l -> Some l | _ -> None) st.lat in
  let ms xs p = 1e3 *. Harness.quantile xs p in
  {
    Harness.correct = cold_ok && clean && st.dedup_seen = [] && Golden.check "serve_mix" st.golden;
    child_rss_kb = rss;
    details =
      [
        ("warm_p50_ms", ms warm 0.5, "ms");
        ("warm_p99_ms", ms warm 0.99, "ms");
        ("cold_p50_ms", ms (by Cold) 0.5, "ms");
        ("cold_p90_ms", ms (by Cold) 0.9, "ms");
        ("dedup_p50_ms", ms (by Dedup) 0.5, "ms");
      ];
    layers =
      [
        ( "serve.executed_per_cold",
          (executed -. float_of_int (Array.length st.warm)) /. float_of_int (max 1 st.fresh) );
      ];
  }

let workload = Harness.W { setup; discard = (fun st -> ignore (stop st)); measure; finish }
