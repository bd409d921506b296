(* Packet-engine throughput suite.

   Measures the structure-of-arrays engine stack against the seed
   implementation preserved in [Boxed_baseline], scenario by scenario:

   - simnet_engine / simnet_engine_boxed: the headline incast fan-in
     forwarding scenario (4096 staggered feeders through one switch),
     where the pending-event set is deep enough that the unboxed
     event-queue layout and the packet pool dominate;
   - simnet_runner / simnet_runner_boxed: the full closed-loop dumbbell
     (sources, BCN/PAUSE control, trace sampling) in the busy regime;
   - eventq_push_pop / eventq_boxed_push_pop: the queue in isolation;
   - switch_forwarding: minor words per frame on the pooled fast path.

   Reports events/sec and minor-heap words/event; [rows] feeds the
   BENCH_simnet JSON the perf trajectory tracks, [smoke] is the fast
   allocation-assertion pass wired into the @bench-smoke dune alias. *)

let params = Fluid.Params.with_buffer Fluid.Params.default 15e6

type row = { name : string; metrics : (string * float) list }

let metric row key =
  match List.assoc_opt key row.metrics with Some v -> v | None -> nan

(* ------------------------------------------------------------------ *)
(* Headline scenario: incast fan-in forwarding, new stack vs seed      *)
(* ------------------------------------------------------------------ *)

(* [fanin_sources] staggered feeders pace pool-allocated frames through
   one pooled switch into a releasing sink, aggregate offered load just
   above line rate. With thousands of concurrent feeders the pending-
   event set is large, which is where the engine's data layout earns its
   keep: the structure-of-arrays heap sifts through contiguous unboxed
   keys while the seed heap chases a pointer per comparison, and the
   packet pool keeps the frame churn off the minor heap entirely.
   [Boxed_baseline.run_fanin] is the same scenario on the seed stack. *)
let fanin_sources = 4096

let pooled_fanin ~frames () =
  let pool = Simnet.Packet.Pool.create () in
  let e = Simnet.Engine.create () in
  let cfg =
    {
      (Simnet.Switch.default_config params ~cpid:1) with
      Simnet.Switch.enable_bcn = false;
      enable_pause = false;
      pool = Some pool;
    }
  in
  let sw = Simnet.Switch.create cfg ~control_out:(fun _ _ -> ()) in
  Simnet.Switch.set_forward sw (fun _e pkt ->
      Simnet.Packet.Pool.release pool pkt);
  let nsrc = fanin_sources in
  let gap =
    1.05 *. float_of_int nsrc
    *. float_of_int Simnet.Packet.data_frame_bits
    /. cfg.Simnet.Switch.capacity
  in
  let seq = ref 0 in
  let rec feed e =
    let pkt =
      Simnet.Packet.Pool.alloc_data pool ~seq:!seq ~now:(Simnet.Engine.now e)
        ~flow:0 ~rrt:None
    in
    incr seq;
    Simnet.Switch.receive sw e pkt;
    Simnet.Engine.schedule e ~delay:gap feed
  in
  for i = 0 to nsrc - 1 do
    Simnet.Engine.schedule e
      ~delay:(float_of_int i *. gap /. float_of_int nsrc)
      feed
  done;
  Simnet.Engine.run
    ~until:(float_of_int frames /. float_of_int nsrc *. gap)
    e;
  Simnet.Engine.events_processed e

let boxed_fanin ~frames () =
  Boxed_baseline.run_fanin ~nsrc:fanin_sources ~frames params

(* ------------------------------------------------------------------ *)
(* Full dumbbell runs (Runner.run vs seed replica), busy regime        *)
(* ------------------------------------------------------------------ *)

(* Start the sources at the equilibrium rate so the run is frame-dense
   from t = 0 rather than idling at the 2% probe rate; both stacks see
   the identical event sequence. *)
let pooled_events ~t_end () =
  let cfg =
    {
      (Simnet.Runner.default_config ~t_end ~sample_dt:1e-4 params) with
      Simnet.Runner.initial_rate = Fluid.Params.equilibrium_rate params;
    }
  in
  (Simnet.Runner.run cfg).Simnet.Runner.events_processed

let boxed_events ~t_end () =
  (Boxed_baseline.run
     ~initial_rate:(Fluid.Params.equilibrium_rate params)
     ~t_end ~sample_dt:1e-4 params)
    .Boxed_baseline.events

(* The RCP loop on the same pooled engine: rate-paced sources, one
   switch, a rate frame per flow per control interval. Started at the
   fair share so the loop is in its steady regime, like the BCN runner
   row above. *)
let rcp_events ~t_end () =
  let cfg =
    {
      (Simnet.Rcp.default_config ~t_end ~sample_dt:1e-4 params) with
      Simnet.Rcp.initial_rate =
        params.Fluid.Params.capacity
        /. float_of_int params.Fluid.Params.n_flows;
    }
  in
  (Simnet.Rcp.run cfg).Simnet.Rcp.events_processed

(* Repeat [f] (which returns an event count) until [min_time] has
   elapsed; report events/sec and the Gc.minor_words delta per event. *)
let measure_events ~min_time f =
  ignore (f () : int);
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  let events = ref 0 in
  while Unix.gettimeofday () -. t0 < min_time || !events = 0 do
    events := !events + f ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  let n = float_of_int !events in
  (n /. dt, dw /. n)

(* ------------------------------------------------------------------ *)
(* Event queue in isolation: push/pop churn                            *)
(* ------------------------------------------------------------------ *)

(* Deterministic pseudo-random keys (LCG), generated once. *)
let bench_keys n =
  let keys = Array.make n 0. in
  let state = ref 123456789 in
  for i = 0 to n - 1 do
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    keys.(i) <- float_of_int !state
  done;
  keys

let soa_round q keys =
  for i = 0 to Array.length keys - 1 do
    Simnet.Eventq.push q keys.(i) 0
  done;
  while not (Simnet.Eventq.is_empty q) do
    ignore (Simnet.Eventq.pop_min q : int)
  done

let boxed_round q keys =
  for i = 0 to Array.length keys - 1 do
    Simnet.Eventq_boxed.push q keys.(i) 0
  done;
  let continue = ref true in
  while !continue do
    match Simnet.Eventq_boxed.pop q with
    | None -> continue := false
    | Some (_, _) -> ()
  done

(* One op = one push plus its pop. *)
let measure_queue ~min_time round =
  let keys = bench_keys 4096 in
  round keys;
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  let ops = ref 0 in
  while Unix.gettimeofday () -. t0 < min_time || !ops = 0 do
    round keys;
    ops := !ops + Array.length keys
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  let n = float_of_int !ops in
  (dt /. n *. 1e9, dw /. n)

(* ------------------------------------------------------------------ *)
(* Heap churn at fixed populations                                    *)
(* ------------------------------------------------------------------ *)

(* The engine's actual access pattern is hold-and-churn: a pending set
   of roughly constant size where every pop of the minimum schedules a
   successor a short gap in the future. The churn is measured at several
   hold sizes, from the engine-typical tens of events up to the incast
   fan-in thousands. The queue is taken as a first-class module, whose
   boundary boxes the float keys (~6 minor words/op), so the words
   column is a floor, not structure-owned allocation. *)
module type QUEUE = sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> float -> 'a -> unit
  val pop_min : 'a t -> 'a
  val min_key : 'a t -> float
  val is_empty : 'a t -> bool
end

let churn_rounds = 50_000

let churn (module Q : QUEUE) ~hold =
  let q = Q.create () in
  let state = ref 123456789 in
  let gap () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. 1073741824.
  in
  for _ = 1 to hold do
    Q.push q (gap ()) 0
  done;
  for _ = 1 to churn_rounds do
    let k = Q.min_key q in
    ignore (Q.pop_min q : int);
    Q.push q (k +. gap ()) 0
  done;
  while not (Q.is_empty q) do
    ignore (Q.pop_min q : int)
  done

(* One op = one min_key + pop_min + push at steady state. *)
let measure_churn ~min_time (module Q : QUEUE) ~hold =
  churn (module Q) ~hold;
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  let ops = ref 0 in
  while Unix.gettimeofday () -. t0 < min_time || !ops = 0 do
    churn (module Q) ~hold;
    ops := !ops + churn_rounds
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  let n = float_of_int !ops in
  (dt /. n *. 1e9, dw /. n)

let churn_holds = [ 16; 256; 4096 ]

let churn_rows ~min_time () =
  List.map
    (fun hold ->
      let heap_ns, heap_words =
        measure_churn ~min_time (module Simnet.Eventq : QUEUE) ~hold
      in
      {
        name = Printf.sprintf "eventq_heap_churn_%d" hold;
        metrics = [ ("ns_per_op", heap_ns); ("minor_words_per_op", heap_words) ];
      })
    churn_holds

(* ------------------------------------------------------------------ *)
(* Forwarding fast path: words per data frame through a pooled switch  *)
(* ------------------------------------------------------------------ *)

(* A single feeder paces pool-allocated frames through a switch into a
   releasing sink at just under line rate, so each frame is exactly one
   feed event plus one service completion. After warmup this path must
   allocate nothing. *)
let forwarding_words_per_frame ~frames () =
  let pool = Simnet.Packet.Pool.create () in
  let e = Simnet.Engine.create () in
  let cfg =
    {
      (Simnet.Switch.default_config params ~cpid:1) with
      Simnet.Switch.enable_bcn = false;
      enable_pause = false;
      pool = Some pool;
    }
  in
  let sw = Simnet.Switch.create cfg ~control_out:(fun _ _ -> ()) in
  Simnet.Switch.set_forward sw (fun _e pkt ->
      Simnet.Packet.Pool.release pool pkt);
  let gap =
    1.05 *. float_of_int Simnet.Packet.data_frame_bits
    /. cfg.Simnet.Switch.capacity
  in
  let seq = ref 0 in
  let rec feed e =
    let pkt =
      Simnet.Packet.Pool.alloc_data pool ~seq:!seq ~now:(Simnet.Engine.now e)
        ~flow:0 ~rrt:None
    in
    incr seq;
    Simnet.Switch.receive sw e pkt;
    Simnet.Engine.schedule e ~delay:gap feed
  in
  Simnet.Engine.schedule e ~delay:0. feed;
  let warm = 2048 in
  Simnet.Engine.run ~until:(float_of_int warm *. gap) e;
  let n0 = !seq in
  let w0 = Gc.minor_words () in
  Simnet.Engine.run ~until:(float_of_int (warm + frames) *. gap) e;
  let dw = Gc.minor_words () -. w0 in
  dw /. float_of_int (!seq - n0)

(* Same fast path with the congestion point armed (BCN marking on), bare
   vs interposed by an empty-plan fault injector on the control output.
   The bare BCN-on figure is nonzero — the switch boxes a float storing
   feedback into each emitted BCN record — so the injector's cost is the
   difference between the two, which must stay ~0: classification plus a
   match on an empty plan, no allocation. *)
let bcn_forwarding_words ~inject ~frames () =
  let pool = Simnet.Packet.Pool.create () in
  let e = Simnet.Engine.create () in
  let cfg =
    {
      (Simnet.Switch.default_config params ~cpid:1) with
      Simnet.Switch.enable_pause = false;
      pool = Some pool;
    }
  in
  let release _e pkt = Simnet.Packet.Pool.release pool pkt in
  let control_out =
    if inject then begin
      let inj = Faultnet.Injector.create Faultnet.Plan.none in
      let chan = Faultnet.Injector.channel inj in
      fun e pkt -> chan e pkt ~deliver:release ~drop:release
    end
    else release
  in
  let sw = Simnet.Switch.create cfg ~control_out in
  Simnet.Switch.set_forward sw release;
  let gap =
    1.05 *. float_of_int Simnet.Packet.data_frame_bits
    /. cfg.Simnet.Switch.capacity
  in
  let seq = ref 0 in
  let rec feed e =
    let pkt =
      Simnet.Packet.Pool.alloc_data pool ~seq:!seq ~now:(Simnet.Engine.now e)
        ~flow:0 ~rrt:None
    in
    incr seq;
    Simnet.Switch.receive sw e pkt;
    Simnet.Engine.schedule e ~delay:gap feed
  in
  Simnet.Engine.schedule e ~delay:0. feed;
  let warm = 2048 in
  Simnet.Engine.run ~until:(float_of_int warm *. gap) e;
  let n0 = !seq in
  let w0 = Gc.minor_words () in
  Simnet.Engine.run ~until:(float_of_int (warm + frames) *. gap) e;
  let dw = Gc.minor_words () -. w0 in
  dw /. float_of_int (!seq - n0)

(* ------------------------------------------------------------------ *)
(* Result store: cold sweep vs warm rerun                              *)
(* ------------------------------------------------------------------ *)

(* A small gi-grid of frame-dense BCN scenarios swept through a
   throwaway content-addressed store: the cold pass simulates and
   persists every point, the warm pass answers them all from disk
   (hash + read + unmarshal per point). The ratio is the price of a
   simulation over the price of a lookup, so the points mirror the
   store's actual economics — long frame-dense runs (tens of ms of
   simulation each) sampled coarsely enough that the stored payload
   stays ~100 KB. *)
let store_cold_and_warm ~points () =
  let dir = Filename.temp_dir "dcecc-bench-store" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let cache = Store.Cache.open_ ~dir in
      let sweep_params = Fluid.Params.with_flows params 10 in
      let scenarios =
        Array.init points (fun i ->
            Simnet.Scenario.bcn ~t_end:0.1 ~sample_dt:2e-4
              ~initial_rate:(Fluid.Params.equilibrium_rate sweep_params)
              (Fluid.Params.with_gains
                 ~gi:(2. +. (0.25 *. float_of_int i))
                 sweep_params))
      in
      let timed f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, Unix.gettimeofday () -. t0)
      in
      let cold, cold_s =
        timed (fun () -> Store.Sweep.sweep ~cache ~jobs:1 scenarios)
      in
      Store.Cache.reset_stats cache;
      let warm, warm_s =
        timed (fun () -> Store.Sweep.sweep ~cache ~jobs:1 scenarios)
      in
      if Marshal.to_string cold [] <> Marshal.to_string warm [] then
        failwith "store bench: warm sweep differs from cold";
      if (Store.Cache.stats cache).Store.Cache.misses <> 0 then
        failwith "store bench: warm sweep re-simulated";
      (cold_s, warm_s))

(* ------------------------------------------------------------------ *)
(* Resilience margin: bracketed bisection vs the dense severity scan   *)
(* ------------------------------------------------------------------ *)

(* One margin cell at matched resolution: bisection with [iters]
   halvings brackets the threshold to [max_severity / 2^iters], the
   dense scan walks [2^iters] uniform steps — same resolution, but the
   scan pays one packet run per step up to the first violation while
   bisection pays [2 + iters] logical runs total. Both report the run
   counts in their [evaluations] field, so the rows are exactly
   reproducible (wall time is carried as context). *)
let margin_iters = 7

let margin_rows () =
  let sc = List.hd (Faultnet.Resilience.paper_cases ()) in
  let ax = Faultnet.Resilience.Bcn_loss in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let bis, bis_s =
    timed (fun () ->
        Faultnet.Resilience.bisect ~iters:margin_iters ~seed:0 sc ax)
  in
  let scn, scan_s =
    timed (fun () ->
        Faultnet.Resilience.scan ~n:(1 lsl margin_iters) ~seed:0 sc ax)
  in
  [
    {
      name = "resilience_margin_bisect";
      metrics =
        [
          ("margin", bis.Faultnet.Resilience.margin);
          ("verdict_evals", float_of_int bis.Faultnet.Resilience.evaluations);
          ("seconds", bis_s);
        ];
    };
    {
      name = "resilience_margin_dense_scan";
      metrics =
        [
          ("margin", scn.Faultnet.Resilience.margin);
          ("verdict_evals", float_of_int scn.Faultnet.Resilience.evaluations);
          ("seconds", scan_s);
          ( "dense_over_adaptive_evals",
            float_of_int scn.Faultnet.Resilience.evaluations
            /. float_of_int bis.Faultnet.Resilience.evaluations );
        ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* Object index: O(1) accounting vs the directory walk                 *)
(* ------------------------------------------------------------------ *)

(* The index's whole point is replacing per-key filesystem traffic on
   large stores. Populate one with [index_entries] objects, then time
   the two implementations of the same two questions: how many objects
   (directory walk vs journal replay + O(1) read) and how far along is
   a sweep (one stat per point vs one membership probe per point). *)
let index_entries = 20_000

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let index_rows () =
  let dir = Filename.temp_dir "dcecc-bench-index" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let cache = Store.Cache.open_ ~dir in
      let points =
        Array.init index_entries (fun i ->
            Store.Key.of_material (Printf.sprintf "bench-index-%d" i))
      in
      Array.iter (fun k -> Store.Cache.put cache k "x") points;
      let m = Store.Manifest.create ~points in
      let walk_s = best_of 3 (fun () -> Store.Cache.entries cache) in
      let index_s = best_of 3 (fun () -> Store.Cache.objects cache) in
      let stat_s = best_of 3 (fun () -> Store.Manifest.progress cache m) in
      let probe_s =
        best_of 3 (fun () -> Store.Manifest.progress_of_index cache m)
      in
      if Store.Cache.objects cache <> Store.Cache.entries cache then
        failwith "index bench: index disagrees with the directory walk";
      if
        Store.Manifest.progress_of_index cache m
        <> Store.Manifest.progress cache m
      then failwith "index bench: index progress disagrees with stat progress";
      [
        {
          name = "index_count_vs_walk";
          metrics =
            [
              ("objects", float_of_int index_entries);
              ("walk_s", walk_s);
              ("index_s", index_s);
              ("walk_over_index", walk_s /. index_s);
            ];
        };
        {
          name = "index_progress_vs_stat";
          metrics =
            [
              ("points", float_of_int index_entries);
              ("stat_s", stat_s);
              ("index_s", probe_s);
              ("stat_over_index", stat_s /. probe_s);
            ];
        };
      ])

(* ------------------------------------------------------------------ *)
(* Fabric: multi-process sweep with a mid-flight worker kill           *)
(* ------------------------------------------------------------------ *)

(* A 10^4-point cold sweep, run once through the plain single-process
   Store.Sweep path and once across two forked fabric workers — one of
   which is SIGKILLed mid-flight and replaced, so the run also pays one
   lease-TTL stall and the stolen range's duplicated work. The merged
   CSV and JSON must equal the single-process bytes exactly; the rows
   record the wall-clock ratio. Scenario points are deliberately tiny
   (~30 us of simulation each) so the bench measures fabric overhead,
   the store and the steal path, not the integrator. *)
let fabric_points = 10_000

let fabric_ttl = 0.5
let fabric_chunk = 64

(* per-point horizon picked so simulation, not store I/O, dominates:
   ~0.3 ms of packet work per point against ~0.15 ms of store write *)
let fabric_spec () =
  Fabric.Spec.Seeds
    {
      base =
        Simnet.Scenario.bcn ~t_end:2e-3 ~sample_dt:1e-3
          ~sampling:Simnet.Scenario.Bernoulli
          (Fluid.Params.with_flows Fluid.Params.default 4);
      first_seed = 0;
      count = fabric_points;
    }

let with_tmp_store f =
  let dir = Filename.temp_dir "dcecc-bench-fabric" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let spawn_fabric_worker ~dir ~worker spec =
  match Unix.fork () with
  | 0 ->
      (try
         let c = Store.Cache.open_ ~dir in
         ignore
           (Fabric.Worker.run ~chunk:fabric_chunk ~ttl:fabric_ttl ~poll:0.02
              ~worker c spec);
         Unix._exit 0
       with e ->
         Printf.eprintf "fabric bench worker %s died: %s\n%!" worker
           (Printexc.to_string e);
         Unix._exit 1)
  | pid -> pid

let fabric_rows () =
  let spec = fabric_spec () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* multi-process first: the workers fork while this process's heap
     is still pristine. Forking after the single-process measurement
     hands every child a copy-on-write image of the 10^4-outcome heap,
     and the children's own GC work against those inherited pages was
     measured to cost more than the sweep itself. *)
  let (merged_csv, merged_json, stored), multi_s =
    with_tmp_store (fun dir ->
        let r, dt =
          timed (fun () ->
              let a = spawn_fabric_worker ~dir ~worker:"bench-a" spec in
              let b = spawn_fabric_worker ~dir ~worker:"bench-b" spec in
              (* kill one worker mid-flight (the sweep takes ~4 s);
                 its unreleased lease must expire before a peer can
                 steal the range *)
              Unix.sleepf 1.0;
              Unix.kill a Sys.sigkill;
              ignore (Unix.waitpid [] a);
              let c = spawn_fabric_worker ~dir ~worker:"bench-c" spec in
              ignore (Unix.waitpid [] b);
              ignore (Unix.waitpid [] c))
        in
        ignore (r : unit);
        let cache = Store.Cache.open_ ~dir in
        let p = Fabric.Worker.progress ~chunk:fabric_chunk cache spec in
        ( ( Fabric.Merge.csv cache spec,
            Fabric.Merge.json cache spec,
            p.Fabric.Worker.stored ),
          dt ))
  in
  let (single_csv, single_json), single_s =
    with_tmp_store (fun dir ->
        let cache = Store.Cache.open_ ~dir in
        timed (fun () ->
            let outs =
              Store.Sweep.sweep ~cache ~jobs:1 (Fabric.Spec.scenarios spec)
            in
            (Fabric.Merge.csv_of spec outs, Fabric.Merge.json_of spec outs)))
  in
  if merged_csv <> single_csv || merged_json <> single_json then
    failwith "fabric bench: merged bytes differ from the single-process sweep";
  if stored <> fabric_points then
    failwith "fabric bench: points lost across the worker kill";
  [
    {
      name = "fabric_sweep_1proc";
      metrics =
        [ ("points", float_of_int fabric_points); ("seconds", single_s) ];
    };
    {
      name = "fabric_sweep_2proc_kill1";
      metrics =
        [
          ("seconds", multi_s);
          (* read against [cores]: two workers on one core time-slice,
             so the ideal there is 1.0 minus the kill's lease-TTL
             stall and the stolen range's duplicated work; with two or
             more cores the sweep halves *)
          ("speedup_vs_1proc", single_s /. multi_s);
          ("cores", float_of_int (Domain.recommended_domain_count ()));
          ("lease_ttl_s", fabric_ttl);
          ("byte_identical", 1.);
        ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)

let rows ~min_time ~t_end () =
  (* first, before anything below touches a domain pool: these fork *)
  let fabric = fabric_rows () in
  let eng_eps, eng_words =
    measure_events ~min_time (pooled_fanin ~frames:200_000)
  in
  let box_eps, box_words =
    measure_events ~min_time (boxed_fanin ~frames:200_000)
  in
  let run_eps, run_words = measure_events ~min_time (pooled_events ~t_end) in
  let brun_eps, brun_words = measure_events ~min_time (boxed_events ~t_end) in
  let rcp_eps, rcp_words = measure_events ~min_time (rcp_events ~t_end) in
  let soa_ns, soa_words =
    measure_queue ~min_time:(0.5 *. min_time)
      (soa_round (Simnet.Eventq.create ()))
  in
  let boxed_ns, boxed_words =
    measure_queue ~min_time:(0.5 *. min_time)
      (boxed_round (Simnet.Eventq_boxed.create ()))
  in
  let churn = churn_rows ~min_time:(0.25 *. min_time) () in
  let fwd_words = forwarding_words_per_frame ~frames:100_000 () in
  let bcn_words = bcn_forwarding_words ~inject:false ~frames:100_000 () in
  let inj_words = bcn_forwarding_words ~inject:true ~frames:100_000 () in
  let cold_s, warm_s = store_cold_and_warm ~points:8 () in
  [
    {
      name = "simnet_engine";
      metrics =
        [ ("events_per_sec", eng_eps); ("minor_words_per_event", eng_words) ];
    };
    {
      name = "simnet_engine_boxed";
      metrics =
        [ ("events_per_sec", box_eps); ("minor_words_per_event", box_words) ];
    };
    {
      name = "speedup_vs_boxed";
      metrics = [ ("ratio", eng_eps /. box_eps) ];
    };
    {
      name = "simnet_runner";
      metrics =
        [ ("events_per_sec", run_eps); ("minor_words_per_event", run_words) ];
    };
    {
      name = "simnet_runner_boxed";
      metrics =
        [ ("events_per_sec", brun_eps); ("minor_words_per_event", brun_words) ];
    };
    {
      name = "simnet_rcp";
      metrics =
        [ ("events_per_sec", rcp_eps); ("minor_words_per_event", rcp_words) ];
    };
    {
      name = "eventq_push_pop";
      metrics = [ ("ns_per_op", soa_ns); ("minor_words_per_op", soa_words) ];
    };
    {
      name = "eventq_boxed_push_pop";
      metrics =
        [ ("ns_per_op", boxed_ns); ("minor_words_per_op", boxed_words) ];
    };
  ]
  @ churn
  @ [
    {
      name = "switch_forwarding";
      metrics = [ ("minor_words_per_frame", fwd_words) ];
    };
    {
      name = "switch_forwarding_bcn";
      metrics = [ ("minor_words_per_frame", bcn_words) ];
    };
    {
      name = "switch_forwarding_injected";
      metrics =
        [
          ("minor_words_per_frame", inj_words);
          ("injector_overhead_words", inj_words -. bcn_words);
        ];
    };
    {
      name = "store_warm_vs_cold";
      metrics =
        [
          ("cold_s", cold_s);
          ("warm_s", warm_s);
          ("speedup", cold_s /. warm_s);
        ];
    };
  ]
  @ margin_rows () @ index_rows () @ fabric

let print rows =
  Printf.printf "################ packet engine throughput ################\n";
  List.iter
    (fun r ->
      Printf.printf "%-24s" r.name;
      List.iter (fun (k, v) -> Printf.printf "  %s = %.4g" k v) r.metrics;
      print_newline ())
    rows;
  print_newline ()

(* One row per line through the shared [Telemetry.Json] fragments. *)
let write_json path rows =
  let module J = Telemetry.Json in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n  \"simnet\": [\n";
      List.iteri
        (fun i r ->
          let cells =
            ("name", J.str r.name)
            :: List.map (fun (k, v) -> (k, J.float v)) r.metrics
          in
          Printf.fprintf oc "    %s%s\n" (J.obj cells)
            (if i = List.length rows - 1 then "" else ","))
        rows;
      output_string oc "  ]\n}\n");
  Printf.printf "wrote %s\n" path

let run ?json () =
  let rows = rows ~min_time:1.0 ~t_end:5e-3 () in
  print rows;
  (match json with Some path -> write_json path rows | None -> ());
  rows

(* Fast allocation-assertion pass for @bench-smoke: a failed invariant
   here means the zero-allocation fast path regressed. *)
let smoke () =
  let fwd = forwarding_words_per_frame ~frames:20_000 () in
  Printf.printf "smoke: switch forwarding        %.4f minor words/frame\n" fwd;
  if fwd > 0.01 then begin
    Printf.eprintf
      "bench smoke FAILED: pooled forwarding allocates %.4f words/frame \
       (expected 0)\n"
      fwd;
    exit 1
  end;
  let bcn_bare = bcn_forwarding_words ~inject:false ~frames:20_000 () in
  let bcn_inj = bcn_forwarding_words ~inject:true ~frames:20_000 () in
  Printf.printf
    "smoke: injected forwarding      %.4f minor words/frame overhead\n"
    (bcn_inj -. bcn_bare);
  if bcn_inj -. bcn_bare > 0.01 then begin
    Printf.eprintf
      "bench smoke FAILED: empty-plan fault injector adds %.4f words/frame \
       on the forwarding path (expected 0)\n"
      (bcn_inj -. bcn_bare);
    exit 1
  end;
  let _, soa_words =
    measure_queue ~min_time:0.05 (soa_round (Simnet.Eventq.create ()))
  in
  Printf.printf "smoke: eventq push/pop          %.4f minor words/op\n"
    soa_words;
  if soa_words > 0.01 then begin
    Printf.eprintf
      "bench smoke FAILED: Eventq push/pop allocates %.4f words/op \
       (expected 0)\n"
      soa_words;
    exit 1
  end;
  let eps, words = measure_events ~min_time:0.2 (pooled_events ~t_end:1e-3) in
  Printf.printf
    "smoke: engine scenario          %.3g events/sec, %.2f minor words/event\n"
    eps words;
  if not (Float.is_finite eps && eps > 0.) then begin
    Printf.eprintf "bench smoke FAILED: engine throughput not positive\n";
    exit 1
  end;
  print_endline "bench smoke OK"
