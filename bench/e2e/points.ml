(* The packet scenario mix of packet_cold and store_rerun, and the traced
   form of one memoized run.

   Six kinds rotate, all over [t_end = 20 ms] with a seeded [gi]: BCN
   deterministic at the equilibrium rate, BCN Bernoulli with 4 replicas,
   RCP, FERA, E2CM and two-hop multihop — every protocol the scenario
   layer compiles. Every third non-multihop point also carries a 30%
   BCN-frame loss plan, so [Faultnet.Exec] wires an injector. *)

module S = Simnet.Scenario

let scenario ~sample_dt ~seed i =
  let rng = Random.State.make [| seed; i |] in
  let p = Fluid.Params.default in
  let p = Fluid.Params.with_gains ~gi:(p.gi *. (0.5 +. Random.State.float rng 1.5)) p in
  let t_end = 0.02 in
  let s =
    match i mod 6 with
    | 0 -> S.bcn ~t_end ~sample_dt ~initial_rate:(Fluid.Params.equilibrium_rate p) p
    | 1 ->
        S.with_replicas
          (S.with_seed (S.bcn ~t_end ~sample_dt ~sampling:S.Bernoulli p)
             (Random.State.bits rng))
          4
    | 2 -> S.rcp ~t_end ~sample_dt p
    | 3 -> S.fera ~t_end ~sample_dt p
    | 4 -> S.e2cm ~t_end ~sample_dt p
    | _ -> S.multihop ~t_end ~sample_dt p
  in
  if i mod 6 <> 5 && (i mod 6 + (i / 6)) mod 3 = 0 then
    let loss = Simnet.Fault_plan.Bernoulli 0.3 in
    S.with_fault s
      (Simnet.Fault_plan.with_bcn_loss ~pos:loss ~neg:loss
         { Simnet.Fault_plan.none with seed = Random.State.bits rng })
  else s

let batch ~sample_dt ~seed ~first n =
  Array.init n (fun k -> scenario ~sample_dt ~seed (first + k))

(* Engine events of the models that count them (BCN replicas and RCP). *)
let events : Store.Sweep.outcome -> int = function
  | Bcn_results rs ->
      Array.fold_left (fun a r -> a + r.Simnet.Runner.events_processed) 0 rs
  | Rcp_result r -> r.events_processed
  | E2cm_result _ | Fera_result _ | Multihop_result _ -> 0

let same (a : Store.Sweep.outcome) (b : Store.Sweep.outcome) = compare a b = 0

(* Counters the traced path feeds into the per-layer metrics. *)
type counters = {
  mutable events : int;  (** BCN + RCP engine events simulated *)
  mutable event_run_s : float;  (** their [run_many] time *)
  mutable payloads : int;  (** put or found *)
  mutable put_s : float;
  mutable put_bytes : int;
  mutable find_s : float;
  mutable find_bytes : int;
  mutable sample : string list;  (** a few payloads, for the SHA rate *)
}

let counters () =
  {
    events = 0;
    event_run_s = 0.;
    payloads = 0;
    put_s = 0.;
    put_bytes = 0;
    find_s = 0.;
    find_bytes = 0;
    sample = [];
  }

let note_payload c payload =
  c.payloads <- c.payloads + 1;
  if List.length c.sample < 8 then c.sample <- payload :: c.sample

(* [Store.Sweep.memo_run ~cache ~jobs:1 s], step by step through the
   same public calls the library composes ([Key.of_scenario],
   [Cache.find], [Scenario.compile], [Exec.hooks] + [wire], [run_many],
   [pack], [Marshal], [Cache.put]), each under its own span. *)
let memo_run_traced c cache s =
  let key = Span.with_ "store.key" (fun () -> Store.Key.of_scenario s) in
  let found, dt =
    Span.timed (fun () -> Span.with_ "store.find" (fun () -> Store.Cache.find cache key))
  in
  match found with
  | Some payload ->
      c.find_s <- c.find_s +. dt;
      c.find_bytes <- c.find_bytes + String.length payload;
      note_payload c payload;
      Span.with_ "store.unmarshal" (fun () -> (Marshal.from_string payload 0 : Store.Sweep.outcome))
  | None ->
      let outcome =
        match Span.with_ "simnet.compile" (fun () -> S.compile s) with
        | S.Runnable r ->
            let cfgs =
              Span.with_ "faultnet.wire" (fun () ->
                  match (s.S.fault, r.S.wire) with
                  | None, _ | _, None -> r.S.configs
                  | Some plan, Some wire ->
                      Array.mapi
                        (fun i cfg -> wire cfg (Faultnet.Exec.hooks plan ~replica:i))
                        r.S.configs)
            in
            let rs, run_s =
              Span.timed (fun () -> Span.with_ "simnet.run" (fun () -> r.S.run_many ~jobs:1 cfgs))
            in
            let o = Span.with_ "simnet.pack" (fun () -> r.S.pack rs) in
            let ev = events o in
            if ev > 0 then begin
              c.events <- c.events + ev;
              c.event_run_s <- c.event_run_s +. run_s
            end;
            o
      in
      let payload = Span.with_ "store.marshal" (fun () -> Marshal.to_string outcome []) in
      let (), dt =
        Span.timed (fun () -> Span.with_ "store.put" (fun () -> Store.Cache.put cache key payload))
      in
      c.put_s <- c.put_s +. dt;
      c.put_bytes <- c.put_bytes + String.length payload;
      note_payload c payload;
      Span.with_ "store.unmarshal" (fun () -> (Marshal.from_string payload 0 : Store.Sweep.outcome))

(* One operation: [Store.Sweep.sweep ~jobs:1] over [batch]. Traced, the
   same steps run under spans: the manifest save, then each point's
   memoized run. *)
let sweep_batch (ph : Harness.phase) c cache batch =
  let t0 = Span.now () in
  let out =
    Span.op "op" (fun () ->
        if not !Span.enabled then Store.Sweep.sweep ~cache ~jobs:1 batch
        else begin
          let points = Span.with_ "store.key" (fun () -> Array.map Store.Key.of_scenario batch) in
          Span.with_ "store.manifest" (fun () ->
              Store.Manifest.save cache (Store.Manifest.create ~points));
          Array.map (memo_run_traced c cache) batch
        end)
  in
  let dt = Span.now () -. t0 in
  ph.lat <- dt :: ph.lat;
  ph.wall <- ph.wall +. dt;
  out

let hit_ratio cache =
  let s = Store.Cache.stats cache in
  let n = s.hits + s.misses in
  if n = 0 then 0. else float_of_int s.hits /. float_of_int n

(* The reference rendering an output hash is taken over: the fabric
   merge table of a fixed batch. *)
let render batch outcomes = Fabric.Merge.csv_of (Fabric.Spec.Explicit batch) outcomes

(* Layer metrics the counters give: engine rate, payload size, store
   read/write and bench-side SHA-256 throughput. *)
let layers c =
  let mb = 1e-6 in
  let rate bytes s = if s > 0. then float_of_int bytes *. mb /. s else 0. in
  let sha_bytes = List.fold_left (fun a p -> a + String.length p) 0 c.sample in
  let sha_s =
    if sha_bytes = 0 then 0.
    else snd (Span.timed (fun () -> List.iter (fun p -> ignore (Store.Key.sha256_hex p)) c.sample))
  in
  [
    ( "simnet.events_per_s",
      if c.event_run_s > 0. then float_of_int c.events /. c.event_run_s else 0. );
    ( "store.payload_kb",
      if c.payloads > 0 then
        float_of_int (c.put_bytes + c.find_bytes) /. float_of_int c.payloads /. 1024.
      else 0. );
    ("store.put_mb_per_s", rate c.put_bytes c.put_s);
    ("store.find_mb_per_s", rate c.find_bytes c.find_s);
    ("store.sha_mb_per_s", rate sha_bytes sha_s);
  ]
