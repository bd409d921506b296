(* Tests for the discrete-event network substrate: event queue, engine,
   FIFO accounting, packets, switch congestion point, sources, the
   dumbbell runner, the victim topology and the QCN variant, plus the
   zero-allocation checks on the forwarding path and the event queue. *)

open Numerics

let checkf eps = Alcotest.(check (float eps))

(* ---------------- Eventq ---------------- *)

let test_eventq_ordering () =
  let q = Simnet.Eventq.create () in
  List.iter (fun (t, v) -> Simnet.Eventq.push q t v)
    [ (3., "c"); (1., "a"); (2., "b") ];
  let drained = Simnet.Eventq.drain q in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.map snd drained)

let test_eventq_fifo_ties () =
  let q = Simnet.Eventq.create () in
  List.iter (fun v -> Simnet.Eventq.push q 1. v) [ "first"; "second"; "third" ];
  Alcotest.(check (list string)) "insertion order on ties"
    [ "first"; "second"; "third" ]
    (List.map snd (Simnet.Eventq.drain q))

let test_eventq_interleaved () =
  let q = Simnet.Eventq.create () in
  Simnet.Eventq.push q 5. 5;
  Simnet.Eventq.push q 1. 1;
  (match Simnet.Eventq.pop q with
  | Some (t, 1) -> checkf 1e-12 "t" 1. t
  | _ -> Alcotest.fail "expected 1");
  Simnet.Eventq.push q 3. 3;
  Alcotest.(check int) "size" 2 (Simnet.Eventq.size q);
  match Simnet.Eventq.peek q with
  | Some (_, 3) -> ()
  | _ -> Alcotest.fail "expected 3 at head"

let test_eventq_nan_rejected () =
  let q = Simnet.Eventq.create () in
  Alcotest.(check bool) "nan key" true
    (try
       Simnet.Eventq.push q nan 0;
       false
     with Invalid_argument _ -> true)

let prop_eventq_sorted =
  QCheck.Test.make ~name:"drain is sorted for random pushes" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 200) (float_range 0. 1e6))
    (fun keys ->
      let q = Simnet.Eventq.create () in
      List.iteri (fun i k -> Simnet.Eventq.push q k i) keys;
      let drained = List.map fst (Simnet.Eventq.drain q) in
      List.sort compare drained = drained)

let prop_eventq_conserves =
  QCheck.Test.make ~name:"push count = drain count" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) (float_range 0. 100.))
    (fun keys ->
      let q = Simnet.Eventq.create () in
      List.iteri (fun i k -> Simnet.Eventq.push q k i) keys;
      List.length (Simnet.Eventq.drain q) = List.length keys)

(* Keys drawn from {0..3} so ties are the common case: payloads with
   equal keys must drain in insertion order. *)
let prop_eventq_fifo_under_ties =
  QCheck.Test.make ~name:"equal keys drain in insertion order" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 150) (int_range 0 3))
    (fun keys ->
      let q = Simnet.Eventq.create () in
      List.iteri (fun i k -> Simnet.Eventq.push q (float_of_int k) i) keys;
      let drained = Simnet.Eventq.drain q in
      (* for every key, the payload sequence must be increasing *)
      List.for_all
        (fun k ->
          let payloads =
            List.filter_map
              (fun (key, v) -> if key = float_of_int k then Some v else None)
              drained
          in
          List.sort compare payloads = payloads)
        [ 0; 1; 2; 3 ])

(* The seed implementation of the event queue, kept as an independent
   oracle: a binary min-heap over boxed { key; seq; value } records,
   one allocated per push. *)
module Boxed_oracle = struct
  type 'a entry = { key : float; seq : int; value : 'a }

  type 'a t = {
    mutable heap : 'a entry option array;
    mutable len : int;
    mutable next_seq : int;
  }

  let create () = { heap = [||]; len = 0; next_seq = 0 }
  let size q = q.len
  let get q i = Option.get q.heap.(i)
  let before a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

  let swap q i j =
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(j);
    q.heap.(j) <- tmp

  let rec sift_up q i =
    let parent = (i - 1) / 2 in
    if i > 0 && before (get q i) (get q parent) then begin
      swap q i parent;
      sift_up q parent
    end

  let rec sift_down q i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < q.len && before (get q l) (get q !smallest) then smallest := l;
    if r < q.len && before (get q r) (get q !smallest) then smallest := r;
    if !smallest <> i then begin
      swap q i !smallest;
      sift_down q !smallest
    end

  let push q key value =
    if q.len = Array.length q.heap then begin
      let h = Array.make (max 16 (2 * q.len)) None in
      Array.blit q.heap 0 h 0 q.len;
      q.heap <- h
    end;
    q.heap.(q.len) <- Some { key; seq = q.next_seq; value };
    q.next_seq <- q.next_seq + 1;
    q.len <- q.len + 1;
    sift_up q (q.len - 1)

  let pop q =
    if q.len = 0 then None
    else begin
      let top = get q 0 in
      q.len <- q.len - 1;
      q.heap.(0) <- q.heap.(q.len);
      q.heap.(q.len) <- None;
      sift_down q 0;
      Some (top.key, top.value)
    end
end

(* Interleaved push/pop sequences against [Boxed_oracle]: both queues
   must agree on every popped (key, payload) pair and on the final
   size. Keys are tie-prone on purpose — this pins the FIFO tie-break
   across the rewrite. *)
let prop_eventq_matches_boxed_oracle =
  QCheck.Test.make ~name:"interleaved ops match the boxed oracle" ~count:300
    QCheck.(
      list_of_size (QCheck.Gen.int_range 0 200)
        (option (int_range 0 7)))
    (fun ops ->
      let q = Simnet.Eventq.create () in
      let oracle = Boxed_oracle.create () in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Some k ->
              let key = float_of_int k in
              Simnet.Eventq.push q key !next;
              Boxed_oracle.push oracle key !next;
              incr next;
              Simnet.Eventq.size q = Boxed_oracle.size oracle
          | None -> (
              match (Simnet.Eventq.pop q, Boxed_oracle.pop oracle) with
              | None, None -> true
              | Some (k1, v1), Some (k2, v2) -> k1 = k2 && v1 = v2
              | _ -> false))
        ops
      && Simnet.Eventq.size q = Boxed_oracle.size oracle)

let test_eventq_clear () =
  let q = Simnet.Eventq.create () in
  for i = 0 to 9 do
    Simnet.Eventq.push q (float_of_int i) i
  done;
  Simnet.Eventq.clear q;
  Alcotest.(check bool) "empty after clear" true (Simnet.Eventq.is_empty q);
  Alcotest.(check bool) "pop after clear" true (Simnet.Eventq.pop q = None);
  (* the queue must be reusable after clear *)
  Simnet.Eventq.push q 2. 2;
  Simnet.Eventq.push q 1. 1;
  Alcotest.(check (list int)) "reusable" [ 1; 2 ]
    (List.map snd (Simnet.Eventq.drain q))

(* The pop space-leak fix: a popped (or cleared) payload must not stay
   reachable through the queue's internal storage. Observed through a
   weak pointer after a full major collection. *)
let test_eventq_does_not_pin_payloads () =
  let q = Simnet.Eventq.create () in
  Simnet.Eventq.push q 5. (ref (-1));
  let w : int ref Weak.t = Weak.create 2 in
  (let v = ref 1 in
   Weak.set w 0 (Some v);
   Simnet.Eventq.push q 1. v);
  (match Simnet.Eventq.pop q with
  | Some (_, r) -> Alcotest.(check int) "popped payload" 1 !r
  | None -> Alcotest.fail "expected a payload");
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" false (Weak.check w 0);
  (let v = ref 2 in
   Weak.set w 1 (Some v);
   Simnet.Eventq.push q 0.5 v);
  Simnet.Eventq.clear q;
  Gc.full_major ();
  Alcotest.(check bool) "cleared payload collected" false (Weak.check w 1)

(* ---------------- Engine ---------------- *)

let test_engine_order_and_clock () =
  let e = Simnet.Engine.create () in
  let log = ref [] in
  Simnet.Engine.schedule e ~delay:2. (fun e ->
      log := ("b", Simnet.Engine.now e) :: !log);
  Simnet.Engine.schedule e ~delay:1. (fun e ->
      log := ("a", Simnet.Engine.now e) :: !log;
      (* nested scheduling *)
      Simnet.Engine.schedule e ~delay:0.5 (fun e ->
          log := ("a2", Simnet.Engine.now e) :: !log));
  Simnet.Engine.run e;
  match List.rev !log with
  | [ ("a", t1); ("a2", t2); ("b", t3) ] ->
      checkf 1e-12 "a at 1" 1. t1;
      checkf 1e-12 "a2 at 1.5" 1.5 t2;
      checkf 1e-12 "b at 2" 2. t3
  | _ -> Alcotest.fail "wrong event order"

let test_engine_until () =
  let e = Simnet.Engine.create () in
  let fired = ref 0 in
  Simnet.Engine.schedule e ~delay:1. (fun _ -> incr fired);
  Simnet.Engine.schedule e ~delay:5. (fun _ -> incr fired);
  Simnet.Engine.run ~until:2. e;
  Alcotest.(check int) "only first fired" 1 !fired;
  checkf 1e-12 "clock at horizon" 2. (Simnet.Engine.now e);
  Alcotest.(check int) "second still pending" 1 (Simnet.Engine.pending e)

let test_engine_until_boundary () =
  (* an event at exactly the horizon fires; one just past it does not,
     and the clock still lands exactly on the horizon *)
  let e = Simnet.Engine.create () in
  let fired = ref [] in
  Simnet.Engine.schedule e ~delay:2. (fun _ -> fired := 2 :: !fired);
  Simnet.Engine.schedule e ~delay:(2. +. epsilon_float *. 8.) (fun _ ->
      fired := 3 :: !fired);
  Simnet.Engine.run ~until:2. e;
  Alcotest.(check (list int)) "boundary event fired" [ 2 ] !fired;
  checkf 0. "clock exactly at horizon" 2. (Simnet.Engine.now e);
  Alcotest.(check int) "past-boundary event pending" 1
    (Simnet.Engine.pending e);
  (* resuming past the horizon runs the remaining event *)
  Simnet.Engine.run e;
  Alcotest.(check (list int)) "remaining event fired" [ 3; 2 ] !fired

let test_engine_stop () =
  let e = Simnet.Engine.create () in
  let fired = ref 0 in
  Simnet.Engine.schedule e ~delay:1. (fun e ->
      incr fired;
      Simnet.Engine.stop e);
  Simnet.Engine.schedule e ~delay:2. (fun _ -> incr fired);
  Simnet.Engine.run e;
  Alcotest.(check int) "stopped after first" 1 !fired

let test_engine_rejects_past () =
  let e = Simnet.Engine.create () in
  Alcotest.(check bool) "negative delay" true
    (try
       Simnet.Engine.schedule e ~delay:(-1.) (fun _ -> ());
       false
     with Invalid_argument _ -> true)

(* ---------------- Fifo ---------------- *)

let test_fifo_accounting () =
  let f = Simnet.Fifo.create ~capacity_bits:30000. in
  let p1 = Simnet.Packet.make_data ~seq:0 ~now:0. ~flow:0 ~rrt:None in
  let p2 = Simnet.Packet.make_data ~seq:1 ~now:0. ~flow:1 ~rrt:None in
  let p3 = Simnet.Packet.make_data ~seq:2 ~now:0. ~flow:2 ~rrt:None in
  Alcotest.(check bool) "p1 accepted" true (Simnet.Fifo.enqueue f p1);
  Alcotest.(check bool) "p2 accepted" true (Simnet.Fifo.enqueue f p2);
  (* third 12000-bit frame exceeds 30000 bits *)
  Alcotest.(check bool) "p3 dropped" false (Simnet.Fifo.enqueue f p3);
  Alcotest.(check int) "drops" 1 (Simnet.Fifo.drops f);
  checkf 1e-9 "occupancy" 24000. (Simnet.Fifo.occupancy_bits f);
  (match Simnet.Fifo.dequeue f with
  | Some p -> Alcotest.(check int) "FIFO order" 0 p.Simnet.Packet.seq
  | None -> Alcotest.fail "dequeue failed");
  checkf 1e-9 "occupancy after dequeue" 12000. (Simnet.Fifo.occupancy_bits f);
  checkf 1e-9 "conservation"
    (Simnet.Fifo.enqueued_bits f)
    (Simnet.Fifo.dequeued_bits f +. Simnet.Fifo.occupancy_bits f)

(* ---------------- Packet ---------------- *)

let test_packet_constructors () =
  let d = Simnet.Packet.make_data ~seq:7 ~now:1.5 ~flow:3 ~rrt:(Some 9) in
  Alcotest.(check bool) "is data" true (Simnet.Packet.is_data d);
  Alcotest.(check (option int)) "flow" (Some 3) (Simnet.Packet.flow_of d);
  Alcotest.(check int) "bits" 12000 d.Simnet.Packet.bits;
  let b = Simnet.Packet.make_bcn ~seq:0 ~now:0. ~flow:1 ~fb:(-2.) ~cpid:4 in
  Alcotest.(check bool) "bcn not data" false (Simnet.Packet.is_data b);
  let p = Simnet.Packet.make_pause ~seq:0 ~now:0. ~on:true in
  Alcotest.(check (option int)) "pause has no flow" None
    (Simnet.Packet.flow_of p)

let test_packet_pool_reuse () =
  let pool = Simnet.Packet.Pool.create () in
  let p1 =
    Simnet.Packet.Pool.alloc_data pool ~seq:0 ~now:1. ~flow:2 ~rrt:None
  in
  Simnet.Packet.Pool.release pool p1;
  Alcotest.(check int) "nothing live" 0 (Simnet.Packet.Pool.live pool);
  let p2 =
    Simnet.Packet.Pool.alloc_data pool ~seq:9 ~now:3. ~flow:5 ~rrt:(Some 1)
  in
  Alcotest.(check bool) "frame recycled, not reallocated" true (p1 == p2);
  Alcotest.(check int) "created only once" 1 (Simnet.Packet.Pool.created pool);
  (* the recycled frame carries the new fields, not stale ones *)
  Alcotest.(check int) "seq rewritten" 9 p2.Simnet.Packet.seq;
  checkf 0. "timestamp rewritten" 3. (Simnet.Packet.born p2);
  (match p2.Simnet.Packet.kind with
  | Simnet.Packet.Data { flow; rrt } ->
      Alcotest.(check int) "flow rewritten" 5 flow;
      Alcotest.(check (option int)) "rrt rewritten" (Some 1) rrt
  | _ -> Alcotest.fail "expected a data frame");
  Simnet.Packet.Pool.release pool p2;
  Alcotest.(check int) "pooled again" 1 (Simnet.Packet.Pool.pooled pool)

(* ---------------- Switch ---------------- *)

let params = Fluid.Params.with_buffer Fluid.Params.default 15e6

let mk_switch ?(cfg_mod = fun c -> c) () =
  let msgs = ref [] in
  let sw =
    Simnet.Switch.create
      (cfg_mod (Simnet.Switch.default_config params ~cpid:1))
      ~control_out:(fun _e pkt -> msgs := pkt :: !msgs)
  in
  Simnet.Switch.set_forward sw (fun _e _pkt -> ());
  (sw, msgs)

let feed sw e n flow =
  for i = 0 to n - 1 do
    Simnet.Switch.receive sw e
      (Simnet.Packet.make_data ~seq:i ~now:(Simnet.Engine.now e) ~flow ~rrt:None)
  done

let test_switch_sampling_rate () =
  let sw, _ = mk_switch () in
  let e = Simnet.Engine.create () in
  feed sw e 1000 0;
  Simnet.Engine.run e;
  (* pm = 0.01 -> every 100th frame *)
  Alcotest.(check int) "10 samples over 1000 frames" 10
    (Simnet.Switch.stats sw).Simnet.Switch.sampled

let test_switch_positive_feedback_when_below_q0 () =
  let sw, msgs = mk_switch () in
  let e = Simnet.Engine.create () in
  (* run to completion after each push so the queue drains: q stays ~0,
     sigma = q0 - w dq > 0 *)
  for i = 0 to 199 do
    Simnet.Engine.schedule e ~delay:(1e-5 *. float_of_int i) (fun e ->
        Simnet.Switch.receive sw e
          (Simnet.Packet.make_data ~seq:i ~now:(Simnet.Engine.now e) ~flow:0
             ~rrt:None))
  done;
  Simnet.Engine.run e;
  let pos =
    List.filter
      (fun (p : Simnet.Packet.t) ->
        match p.Simnet.Packet.kind with
        | Simnet.Packet.Bcn { fb; _ } -> fb > 0.
        | _ -> false)
      !msgs
  in
  Alcotest.(check bool) "positive BCN emitted" true (List.length pos >= 1)

let test_switch_negative_feedback_when_congested () =
  let sw, msgs = mk_switch () in
  let e = Simnet.Engine.create () in
  (* slam 600 frames in at t=0: queue builds to 7.2 Mbit > q0 *)
  feed sw e 600 0;
  Simnet.Engine.run ~until:1e-7 e;
  let neg =
    List.exists
      (fun (p : Simnet.Packet.t) ->
        match p.Simnet.Packet.kind with
        | Simnet.Packet.Bcn { fb; _ } -> fb < 0.
        | _ -> false)
      !msgs
  in
  Alcotest.(check bool) "negative BCN emitted" true neg

let test_switch_pause_thresholds () =
  let sw, msgs = mk_switch () in
  let e = Simnet.Engine.create () in
  (* fill beyond qsc = 13.5 Mbit: 1200 frames = 14.4 Mbit *)
  feed sw e 1200 0;
  Alcotest.(check bool) "pause issued" true (Simnet.Switch.upstream_paused sw);
  (* drain: forwards at 10G; run long enough to empty *)
  Simnet.Engine.run ~until:0.01 e;
  Alcotest.(check bool) "pause lifted after draining" false
    (Simnet.Switch.upstream_paused sw);
  let pauses =
    List.filter
      (fun (p : Simnet.Packet.t) ->
        match p.Simnet.Packet.kind with
        | Simnet.Packet.Pause _ -> true
        | _ -> false)
      !msgs
  in
  Alcotest.(check int) "one on + one off" 2 (List.length pauses)

(* The queue level at which the switch lifts PAUSE is configurable
   ([pause_resume] * qsc, default 0.9). Capture the occupancy at the
   moment the off-frame is emitted and pin it to the configured level:
   just below threshold, within one dequeued frame. *)
let resume_queue_level ~pause_resume =
  let level = ref nan in
  let sw_ref = ref None in
  let cfg =
    {
      (Simnet.Switch.default_config params ~cpid:1) with
      Simnet.Switch.pause_resume;
    }
  in
  let sw =
    Simnet.Switch.create cfg ~control_out:(fun _e pkt ->
        match pkt.Simnet.Packet.kind with
        | Simnet.Packet.Pause { on = false } -> (
            match !sw_ref with
            | Some s -> level := Simnet.Switch.queue_bits s
            | None -> ())
        | _ -> ())
  in
  sw_ref := Some sw;
  Simnet.Switch.set_forward sw (fun _e _pkt -> ());
  let e = Simnet.Engine.create () in
  feed sw e 1200 0;
  Simnet.Engine.run ~until:0.01 e;
  !level

let test_switch_pause_resume_configurable () =
  let qsc = params.Fluid.Params.qsc in
  let frame = float_of_int Simnet.Packet.data_frame_bits in
  List.iter
    (fun frac ->
      let level = resume_queue_level ~pause_resume:frac in
      Alcotest.(check bool)
        (Printf.sprintf "resume at %.1f*qsc (got %g)" frac level)
        true
        (level < frac *. qsc && level > (frac *. qsc) -. (2. *. frame)))
    [ 0.9; 0.5; 0.2 ]

let test_switch_pause_resume_validated () =
  Alcotest.(check bool) "pause_resume = 0 rejected" true
    (try
       ignore
         (Simnet.Switch.create
            {
              (Simnet.Switch.default_config params ~cpid:1) with
              Simnet.Switch.pause_resume = 0.;
            }
            ~control_out:(fun _ _ -> ()));
       false
     with Invalid_argument _ -> true)

let test_switch_egress_pause_stops_service () =
  let sw, _ = mk_switch ~cfg_mod:(fun c -> { c with Simnet.Switch.enable_pause = false }) () in
  let e = Simnet.Engine.create () in
  Simnet.Switch.set_egress_paused sw e true;
  feed sw e 10 0;
  Simnet.Engine.run ~until:0.01 e;
  checkf 1e-9 "queue held" (10. *. 12000.) (Simnet.Switch.queue_bits sw);
  Simnet.Switch.set_egress_paused sw e false;
  Simnet.Engine.run ~until:0.02 e;
  checkf 1e-9 "drained after unpause" 0. (Simnet.Switch.queue_bits sw)

let test_switch_rejects_control_frames () =
  let sw, _ = mk_switch () in
  let e = Simnet.Engine.create () in
  Alcotest.(check bool) "control frame rejected" true
    (try
       Simnet.Switch.receive sw e (Simnet.Packet.make_pause ~seq:0 ~now:0. ~on:true);
       false
     with Invalid_argument _ -> true)

(* ---------------- Source ---------------- *)

let test_source_pacing_rate () =
  let e = Simnet.Engine.create () in
  let sent = ref 0 in
  let src =
    Simnet.Source.create ~id:0 ~initial_rate:1.2e6 ~gi:1. ~gd:0.1 ~ru:1e5
      ~send:(fun _e _p -> incr sent)
      ()
  in
  Simnet.Source.start src e;
  Simnet.Engine.run ~until:1. e;
  (* 1.2e6 bit/s / 12000 bit = 100 frames/s *)
  Alcotest.(check bool) "frame count near 100" true
    (abs (!sent - 100) <= 2)

let test_source_literal_aimd () =
  let src =
    Simnet.Source.create ~id:0 ~initial_rate:1e6 ~mode:Simnet.Source.Literal
      ~gi:2. ~gd:0.5 ~ru:1e3
      ~send:(fun _e _p -> ())
      ()
  in
  Simnet.Source.handle_bcn src ~now:0. ~fb:10. ~cpid:1;
  checkf 1e-6 "additive increase" (1e6 +. (2. *. 1e3 *. 10.))
    (Simnet.Source.rate src);
  Alcotest.(check bool) "untagged after positive" false (Simnet.Source.tagged src);
  let r = Simnet.Source.rate src in
  Simnet.Source.handle_bcn src ~now:0. ~fb:(-1.) ~cpid:1;
  checkf 1e-6 "multiplicative decrease" (r *. 0.5) (Simnet.Source.rate src);
  Alcotest.(check bool) "tagged after negative" true (Simnet.Source.tagged src)

let test_source_zoh_integration () =
  let src =
    Simnet.Source.create ~id:0 ~initial_rate:1e6 ~mode:Simnet.Source.Zoh_fluid
      ~gi:1. ~gd:0.5 ~ru:1e3 ~max_rate:1e9
      ~send:(fun _e _p -> ())
      ()
  in
  let e = Simnet.Engine.create () in
  Simnet.Source.start src e;
  (* hold fb = +100: dr/dt = gi ru fb = 1e5 bit/s^2 *)
  Simnet.Source.handle_bcn src ~now:0. ~fb:100. ~cpid:1;
  Simnet.Engine.run ~until:1. e;
  (* rate should have ramped by about 1e5 *)
  Alcotest.(check bool) "ramped" true
    (Float.abs (Simnet.Source.rate src -. 1.1e6) < 0.02e6)

let test_source_pause_stops_sending () =
  let e = Simnet.Engine.create () in
  let sent = ref 0 in
  let src =
    Simnet.Source.create ~id:0 ~initial_rate:1.2e7 ~gi:1. ~gd:0.1 ~ru:1e5
      ~send:(fun _e _p -> incr sent)
      ()
  in
  Simnet.Source.start src e;
  Simnet.Engine.run ~until:0.1 e;
  let before = !sent in
  Simnet.Source.set_paused src e true;
  Simnet.Engine.run ~until:0.2 e;
  Alcotest.(check int) "no frames while paused" before !sent;
  Simnet.Source.set_paused src e false;
  Simnet.Engine.run ~until:0.3 e;
  Alcotest.(check bool) "resumed" true (!sent > before)

let test_source_rate_clamped () =
  let src =
    Simnet.Source.create ~id:0 ~initial_rate:1e6 ~mode:Simnet.Source.Literal
      ~min_rate:1e3 ~max_rate:2e6 ~gi:1. ~gd:1. ~ru:1e6
      ~send:(fun _e _p -> ())
      ()
  in
  Simnet.Source.handle_bcn src ~now:0. ~fb:1e9 ~cpid:1;
  checkf 1e-9 "max clamp" 2e6 (Simnet.Source.rate src);
  Simnet.Source.handle_bcn src ~now:0. ~fb:(-1e9) ~cpid:1;
  checkf 1e-9 "min clamp" 1e3 (Simnet.Source.rate src)

(* ---------------- Runner ---------------- *)

let test_runner_conservation () =
  let cfg = Simnet.Runner.default_config ~t_end:0.005 params in
  let r = Simnet.Runner.run cfg in
  Alcotest.(check bool) "utilization in [0,1]" true
    (r.Simnet.Runner.utilization >= 0. && r.Simnet.Runner.utilization <= 1.001);
  Alcotest.(check bool) "queue within buffer" true
    (Array.for_all
       (fun q -> q >= 0. && q <= params.Fluid.Params.buffer +. 1.)
       r.Simnet.Runner.queue.Series.vs);
  Alcotest.(check bool) "events processed" true (r.Simnet.Runner.events_processed > 0)

let test_runner_bcn_converges_queue () =
  let cfg =
    {
      (Simnet.Runner.default_config ~t_end:0.02 params) with
      Simnet.Runner.mode = Simnet.Source.Literal;
      initial_rate = 0.5 *. Fluid.Params.equilibrium_rate params;
    }
  in
  let r = Simnet.Runner.run cfg in
  Alcotest.(check int) "no drops" 0 r.Simnet.Runner.drops;
  Alcotest.(check bool) "high utilization" true (r.Simnet.Runner.utilization > 0.5);
  (* the queue eventually lives near q0 (within a broad band: the literal
     mode oscillates) *)
  let tail = Series.tail_from r.Simnet.Runner.queue 0.01 in
  let mean = Stats.mean tail.Series.vs in
  Alcotest.(check bool) "tail mean within (0, 2 q0)" true
    (mean > 0. && mean < 2. *. params.Fluid.Params.q0)

let test_runner_fairness_metric () =
  checkf 1e-12 "equal rates" 1. (Simnet.Runner.fairness [| 5.; 5.; 5. |]);
  checkf 1e-12 "one hog" (1. /. 3.) (Simnet.Runner.fairness [| 1.; 0.; 0. |])

let test_runner_no_bcn_overflows () =
  let p = Fluid.Params.default in
  let cfg =
    {
      (Simnet.Runner.default_config ~t_end:0.005 p) with
      Simnet.Runner.enable_bcn = false;
      enable_pause = false;
      initial_rate = 2. *. Fluid.Params.equilibrium_rate p;
    }
  in
  let r = Simnet.Runner.run cfg in
  Alcotest.(check bool) "drops without control" true (r.Simnet.Runner.drops > 0)

let test_runner_pause_prevents_drops () =
  let p = Fluid.Params.default in
  let cfg =
    {
      (Simnet.Runner.default_config ~t_end:0.005 p) with
      Simnet.Runner.enable_bcn = false;
      enable_pause = true;
      initial_rate = 2. *. Fluid.Params.equilibrium_rate p;
    }
  in
  let r = Simnet.Runner.run cfg in
  Alcotest.(check int) "no drops with PAUSE" 0 r.Simnet.Runner.drops;
  Alcotest.(check bool) "pauses occurred" true (r.Simnet.Runner.pause_on_events > 0)

(* Early exit on the overflow verdict: an uncontrolled overload run must
   reach the same [drops > 0] verdict with [stop_on_verdict] as over the
   full horizon, while actually cutting the run short; a drop-free
   controlled run must be byte-identical with the flag on, because the
   stop condition never fires. *)
let test_runner_stop_on_verdict () =
  let p = Fluid.Params.default in
  let overload =
    {
      (Simnet.Runner.default_config ~t_end:0.02 p) with
      Simnet.Runner.enable_bcn = false;
      enable_pause = false;
      initial_rate = 2. *. Fluid.Params.equilibrium_rate p;
    }
  in
  let full = Simnet.Runner.run overload in
  let early =
    Simnet.Runner.run { overload with Simnet.Runner.stop_on_verdict = true }
  in
  Alcotest.(check bool) "full horizon overflows" true
    (full.Simnet.Runner.drops > 0);
  Alcotest.(check bool) "early exit agrees on the verdict" true
    (early.Simnet.Runner.drops > 0);
  Alcotest.(check bool) "early exit is actually early" true
    (early.Simnet.Runner.events_processed
    < full.Simnet.Runner.events_processed);
  Alcotest.(check bool) "trace stops at the verdict" true
    (Array.length early.Simnet.Runner.queue.Series.ts
    < Array.length full.Simnet.Runner.queue.Series.ts);
  Alcotest.(check bool) "utilization normalized by elapsed time" true
    (early.Simnet.Runner.utilization >= 0.
    && early.Simnet.Runner.utilization <= 1.001);
  (* drop-free run: the flag must be a no-op, bit for bit *)
  let calm = Simnet.Runner.default_config ~t_end:0.005 p in
  let a = Simnet.Runner.run calm in
  let b = Simnet.Runner.run { calm with Simnet.Runner.stop_on_verdict = true } in
  Alcotest.(check int) "calm run drop-free" 0 a.Simnet.Runner.drops;
  Alcotest.(check string) "flag is a no-op without drops"
    (Marshal.to_string a [])
    (Marshal.to_string b [])

let test_runner_replicate_deterministic () =
  (* the same seeds must give byte-identical results whether the
     replicas run sequentially or fan out over a 4-lane pool *)
  let cfg = Simnet.Runner.default_config ~t_end:0.002 params in
  let seeds = [| 11; 22; 33; 44 |] in
  let serial = Simnet.Runner.replicate ~jobs:1 ~seeds cfg in
  let parallel = Simnet.Runner.replicate ~jobs:4 ~seeds cfg in
  Alcotest.(check int) "replica count" (Array.length seeds)
    (Array.length serial);
  Array.iteri
    (fun i a ->
      Alcotest.(check string)
        (Printf.sprintf "replica %d byte-identical" i)
        (Marshal.to_string a [])
        (Marshal.to_string parallel.(i) []))
    serial;
  (* different seeds under Bernoulli sampling are genuinely different
     runs: at least one pair of replicas must diverge *)
  let distinct =
    Array.exists
      (fun r ->
        Marshal.to_string r [] <> Marshal.to_string serial.(0) [])
      serial
  in
  Alcotest.(check bool) "seeds differentiate replicas" true distinct

let test_runner_run_many_matches_run () =
  let cfg = Simnet.Runner.default_config ~t_end:0.002 params in
  let cfg' = { cfg with Simnet.Runner.enable_pause = false } in
  let batch = Simnet.Runner.run_many ~jobs:2 [| cfg; cfg' |] in
  Alcotest.(check string) "slot 0 = run cfg"
    (Marshal.to_string (Simnet.Runner.run cfg) [])
    (Marshal.to_string batch.(0) []);
  Alcotest.(check string) "slot 1 = run cfg'"
    (Marshal.to_string (Simnet.Runner.run cfg') [])
    (Marshal.to_string batch.(1) [])

(* ---------------- Telemetry probes through the runner ---------------- *)

(* A congested scenario that exercises every event kind the runner can
   emit: sources start at line rate, drops forced by a small buffer. *)
let probe_cfg ~enable_pause ~buffer =
  let p =
    Fluid.Params.make ~n_flows:8 ~capacity:10e9 ~q0:(0.2 *. buffer) ~buffer
      ~gi:4. ~gd:(1. /. 128.) ~ru:8e6 ()
  in
  {
    (Simnet.Runner.default_config ~t_end:2e-3 p) with
    Simnet.Runner.enable_pause;
    initial_rate = 10e9;
  }

let run_probed cfg =
  let probe = Telemetry.Probe.create ~capacity:(1 lsl 20) () in
  let r = Simnet.Runner.run ~probe cfg in
  Alcotest.(check int) "flight recorder did not overflow" 0
    (Telemetry.Recorder.overwritten (Telemetry.Probe.recorder probe));
  (r, probe)

let test_probe_counts_match_result () =
  List.iter
    (fun (label, cfg) ->
      let r, probe = run_probed cfg in
      let rec_ = Telemetry.Probe.recorder probe in
      let count k = Telemetry.Recorder.count rec_ k in
      let check name got want =
        Alcotest.(check int) (label ^ ": " ^ name) want got
      in
      check "drop events == result.drops"
        (count Telemetry.Event.Drop)
        r.Simnet.Runner.drops;
      check "bcn+ events == result.bcn_positive"
        (count Telemetry.Event.Bcn_positive)
        r.Simnet.Runner.bcn_positive;
      check "bcn- events == result.bcn_negative"
        (count Telemetry.Event.Bcn_negative)
        r.Simnet.Runner.bcn_negative;
      check "pause-on events == result.pause_on_events"
        (count Telemetry.Event.Pause_on)
        r.Simnet.Runner.pause_on_events;
      (* every BCN message triggers exactly one reaction-point update
         (feedback is unicast to the sampled flow) *)
      check "rate updates == bcn messages"
        (count Telemetry.Event.Rate_update)
        (r.Simnet.Runner.bcn_positive + r.Simnet.Runner.bcn_negative))
    [
      ("pause", probe_cfg ~enable_pause:true ~buffer:1e6);
      ("drops", probe_cfg ~enable_pause:false ~buffer:1e6);
    ]

let test_probe_bits_conservation () =
  (* only data frames traverse the switch queue, so every dequeue is one
     delivered data frame, and enqueued - dequeued frames are still in
     the system (queued or in service) at t_end *)
  let cfg = probe_cfg ~enable_pause:false ~buffer:1e6 in
  let r, probe = run_probed cfg in
  let rec_ = Telemetry.Probe.recorder probe in
  let count k = Telemetry.Recorder.count rec_ k in
  let frame = float_of_int Simnet.Packet.data_frame_bits in
  checkf 0. "delivered == dequeues * frame_bits"
    (float_of_int (count Telemetry.Event.Dequeue) *. frame)
    r.Simnet.Runner.delivered_bits;
  checkf 0. "dropped == drops * frame_bits"
    (float_of_int (count Telemetry.Event.Drop) *. frame)
    r.Simnet.Runner.dropped_bits;
  let in_flight =
    count Telemetry.Event.Enqueue - count Telemetry.Event.Dequeue
  in
  Alcotest.(check bool) "in-flight frames fit the buffer (+1 in service)" true
    (in_flight >= 0
    && float_of_int in_flight *. frame
       <= cfg.Simnet.Runner.params.Fluid.Params.buffer +. frame)

let test_probe_does_not_perturb_run () =
  let cfg = probe_cfg ~enable_pause:true ~buffer:1e6 in
  let bare = Simnet.Runner.run cfg in
  let probed, _ = run_probed cfg in
  Alcotest.(check string) "probed run byte-identical to bare run"
    (Marshal.to_string bare [])
    (Marshal.to_string probed [])

let test_replicate_instrumented_deterministic () =
  let cfg = Simnet.Runner.default_config ~t_end:2e-3 params in
  let seeds = [| 5; 6; 7; 8 |] in
  let rs1, m1 = Simnet.Runner.replicate_instrumented ~jobs:1 ~seeds cfg in
  let rs4, m4 = Simnet.Runner.replicate_instrumented ~jobs:4 ~seeds cfg in
  Alcotest.(check string) "merged metrics byte-identical for jobs=1 vs 4"
    (Telemetry.Metrics.to_json_string m1)
    (Telemetry.Metrics.to_json_string m4);
  Array.iteri
    (fun i a ->
      Alcotest.(check string)
        (Printf.sprintf "replica %d identical" i)
        (Marshal.to_string a [])
        (Marshal.to_string rs4.(i) []))
    rs1;
  (* the merged registry really is the sum over replicas *)
  let total_events =
    Array.fold_left
      (fun acc (r : Simnet.Runner.result) -> acc + r.Simnet.Runner.events_processed)
      0 rs1
  in
  Alcotest.(check int) "runner.events_processed sums across replicas"
    total_events
    (Telemetry.Metrics.counter_value m1 "runner.events_processed");
  (* and matches the plain (uninstrumented) fan-out *)
  let plain = Simnet.Runner.replicate ~jobs:1 ~seeds cfg in
  Array.iteri
    (fun i a ->
      Alcotest.(check string)
        (Printf.sprintf "replica %d matches plain replicate" i)
        (Marshal.to_string plain.(i) [])
        (Marshal.to_string rs1.(i) []))
    rs1

(* ---------------- Topology ---------------- *)

let test_victim_scenario_contrast () =
  let p =
    Fluid.Params.make ~n_flows:10 ~capacity:10e9 ~q0:2.5e6 ~buffer:5e6 ~gi:4.
      ~gd:(1. /. 128.) ~ru:8e6 ()
  in
  let base = Simnet.Topology.default_config ~t_end:0.005 ~n_hot:10 ~victim_rate:500e6 p in
  let base = { base with Simnet.Topology.initial_hot_rate = 1.5e9 } in
  let pause_only =
    Simnet.Topology.victim_scenario
      { base with Simnet.Topology.enable_bcn = false; enable_pause = true }
  in
  let with_bcn =
    Simnet.Topology.victim_scenario
      { base with Simnet.Topology.enable_bcn = true; enable_pause = true }
  in
  Alcotest.(check bool) "victim suffers under PAUSE-only" true
    (pause_only.Simnet.Topology.victim_paused_fraction > 0.05);
  Alcotest.(check bool) "victim fine under BCN" true
    (with_bcn.Simnet.Topology.victim_paused_fraction
     < pause_only.Simnet.Topology.victim_paused_fraction /. 2.);
  Alcotest.(check bool) "BCN goodput better" true
    (with_bcn.Simnet.Topology.victim_goodput
     > pause_only.Simnet.Topology.victim_goodput)

(* ---------------- Qcn ---------------- *)

let test_qcn_quantize () =
  let q = Simnet.Qcn.quantize ~bits:6 ~fb_max:64. in
  checkf 1e-9 "positive clipped to 0" 0. (q 5.);
  checkf 1e-9 "below -fb_max clipped" (-64.) (q (-100.));
  (* step = 64/63; -1 rounds to nearest level *)
  Alcotest.(check bool) "quantized to a level" true
    (let v = q (-1.) in
     let step = 64. /. 63. in
     Float.abs (Float.rem v step) < 1e-9 || Float.abs (Float.rem v step) > step -. 1e-9)

let test_qcn_runs_and_controls () =
  let p = Fluid.Params.with_buffer Fluid.Params.default 15e6 in
  let cfg =
    {
      (Simnet.Qcn.default_config ~t_end:0.02 p) with
      (* offer 1.5x the capacity so the congestion point must act *)
      Simnet.Qcn.initial_rate = 1.5 *. Fluid.Params.equilibrium_rate p;
    }
  in
  let r = Simnet.Qcn.run cfg in
  (* QCN has no positive messages and reacts per sampled flow, so the
     initial 1.5x surge loses a few frames before control bites (this is
     why 802.1Qau deployments pair QCN with 802.1Qbb PFC); the loss must
     stay a small fraction and the queue must come under control *)
  Alcotest.(check bool) "control messages sent" true (r.Simnet.Qcn.cn_messages > 0);
  Alcotest.(check bool) "transient loss below 5%" true
    (float_of_int r.Simnet.Qcn.drops
     < 0.05 *. (r.Simnet.Qcn.delivered_bits /. 12000.));
  let tail = Series.tail_from r.Simnet.Qcn.queue 0.012 in
  Alcotest.(check bool) "queue controlled after transient" true
    (Stats.max tail.Series.vs < p.Fluid.Params.qsc);
  Alcotest.(check bool) "utilization high" true (r.Simnet.Qcn.utilization > 0.85)

(* ---------------- Workload ---------------- *)

let run_workload w t_end =
  let e = Simnet.Engine.create () in
  let frames = ref 0 in
  Simnet.Workload.start w e ~sink:(fun _e _p -> incr frames);
  Simnet.Engine.run ~until:t_end e;
  !frames

let test_workload_cbr_rate () =
  let w = Simnet.Workload.cbr ~id:0 ~rate:1.2e6 in
  let frames = run_workload w 1. in
  (* 1.2e6 / 12000 = 100 frames/s *)
  Alcotest.(check bool) "close to 100" true (abs (frames - 100) <= 2)

let test_workload_poisson_mean () =
  let w = Simnet.Workload.poisson ~id:0 ~mean_rate:1.2e6 ~seed:3 in
  let frames = run_workload w 10. in
  (* 1000 expected; Poisson std ~ 32 *)
  Alcotest.(check bool) "within 4 sigma" true (abs (frames - 1000) < 130)

let test_workload_on_off_duty_cycle () =
  let w =
    Simnet.Workload.on_off ~id:0 ~peak_rate:1.2e6 ~mean_on:0.05 ~mean_off:0.05
      ~seed:5
  in
  let frames = run_workload w 20. in
  (* 50% duty cycle of 100 frames/s over 20 s: ~1000 *)
  Alcotest.(check bool)
    (Printf.sprintf "duty cycle ~50%% (got %d)" frames)
    true
    (frames > 600 && frames < 1400);
  Alcotest.(check (float 1e-6)) "mean offered" 0.6e6
    (Simnet.Workload.mean_offered_rate w)

let test_workload_incast_bursts () =
  let w =
    Simnet.Workload.incast ~ids:[ 0; 1; 2 ] ~burst_frames:10 ~period:0.1 ()
  in
  let frames = run_workload w 0.35 in
  (* epochs at 0, 0.1, 0.2, 0.3: 4 x 3 x 10 = 120 *)
  Alcotest.(check int) "four epochs" 120 frames

let test_workload_zero_rate_rejected () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "cbr rate 0" true
    (raises (fun () -> Simnet.Workload.cbr ~id:0 ~rate:0.));
  Alcotest.(check bool) "cbr rate < 0" true
    (raises (fun () -> Simnet.Workload.cbr ~id:0 ~rate:(-1.)));
  Alcotest.(check bool) "poisson rate 0" true
    (raises (fun () -> Simnet.Workload.poisson ~id:0 ~mean_rate:0. ~seed:1));
  Alcotest.(check bool) "on_off mean_off < 0" true
    (raises (fun () ->
         Simnet.Workload.on_off ~id:0 ~peak_rate:1e6 ~mean_on:0.1
           ~mean_off:(-0.1) ~seed:1))

let test_workload_on_off_always_on () =
  (* mean_off = 0 degenerates to CBR at the peak rate: the source never
     leaves the on phase and the frame count matches plain CBR *)
  let w =
    Simnet.Workload.on_off ~id:0 ~peak_rate:1.2e6 ~mean_on:0.05 ~mean_off:0.
      ~seed:5
  in
  let frames = run_workload w 1. in
  let cbr_frames = run_workload (Simnet.Workload.cbr ~id:0 ~rate:1.2e6) 1. in
  Alcotest.(check int) "same schedule as CBR at peak" cbr_frames frames;
  Alcotest.(check (float 1e-6)) "mean offered = peak" 1.2e6
    (Simnet.Workload.mean_offered_rate w)

(* Seeded workloads are pure functions of their seed: rebuilding the
   workload with the same seed replays the identical arrival schedule. *)
let prop_workload_seed_stable =
  QCheck.Test.make ~name:"same seed replays the same schedule" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let times w =
        let e = Simnet.Engine.create () in
        let ts = ref [] in
        Simnet.Workload.start w e ~sink:(fun e _p ->
            ts := Simnet.Engine.now e :: !ts);
        Simnet.Engine.run ~until:0.3 e;
        !ts
      in
      let poisson () =
        Simnet.Workload.poisson ~id:0 ~mean_rate:2.4e6 ~seed
      in
      let onoff () =
        Simnet.Workload.on_off ~id:0 ~peak_rate:2.4e6 ~mean_on:0.02
          ~mean_off:0.02 ~seed
      in
      times (poisson ()) = times (poisson ())
      && times (onoff ()) = times (onoff ()))

let test_workload_stop () =
  let e = Simnet.Engine.create () in
  let frames = ref 0 in
  let w = Simnet.Workload.cbr ~id:0 ~rate:1.2e6 in
  Simnet.Workload.start w e ~sink:(fun _e _p -> incr frames);
  Simnet.Engine.run ~until:0.5 e;
  Simnet.Workload.stop w;
  let before = !frames in
  Simnet.Engine.run ~until:1.5 e;
  Alcotest.(check bool) "at most one frame after stop" true
    (!frames - before <= 1)

(* ---------------- Fera ---------------- *)

let test_fera_converges_to_fair_share () =
  let p = Fluid.Params.with_buffer Fluid.Params.default 15e6 in
  let cfg = Simnet.Fera.default_config ~t_end:0.01 p in
  let r = Simnet.Fera.run cfg in
  Alcotest.(check int) "no drops" 0 r.Simnet.Fera.drops;
  Alcotest.(check bool) "converged" true (r.Simnet.Fera.convergence_time <> None);
  Alcotest.(check bool) "fair" true
    (Simnet.Runner.fairness r.Simnet.Fera.final_rates > 0.99);
  let fair = Fluid.Params.equilibrium_rate p in
  Array.iter
    (fun rate ->
      Alcotest.(check bool) "near 0.95 fair share" true
        (Float.abs (rate -. (0.95 *. fair)) < 0.15 *. fair))
    r.Simnet.Fera.final_rates;
  Alcotest.(check bool) "utilization near target" true
    (r.Simnet.Fera.utilization > 0.85)

(* The paradigm runners' batch entry points must be order-preserving and
   jobs-independent: the fan-out over a 4-lane pool is byte-identical to
   the sequential fallback, and each slot equals a direct [run]. *)
let check_run_many name run run_many cfgs =
  let serial = run_many ~jobs:1 cfgs in
  let parallel = run_many ~jobs:4 cfgs in
  Array.iteri
    (fun i a ->
      Alcotest.(check string)
        (Printf.sprintf "%s slot %d: jobs 1 = jobs 4" name i)
        (Marshal.to_string a [])
        (Marshal.to_string parallel.(i) []))
    serial;
  Alcotest.(check string)
    (name ^ " slot 0 = direct run")
    (Marshal.to_string (run cfgs.(0)) [])
    (Marshal.to_string serial.(0) [])

let test_fera_run_many_deterministic () =
  check_run_many "fera" Simnet.Fera.run
    (fun ~jobs cfgs -> Simnet.Fera.run_many ~jobs cfgs)
    (Array.map
       (fun t_end -> Simnet.Fera.default_config ~t_end params)
       [| 2e-3; 3e-3; 4e-3 |])

let test_e2cm_run_many_deterministic () =
  check_run_many "e2cm" Simnet.E2cm.run
    (fun ~jobs cfgs -> Simnet.E2cm.run_many ~jobs cfgs)
    (Array.map
       (fun t_end -> Simnet.E2cm.default_config ~t_end params)
       [| 2e-3; 3e-3; 4e-3 |])

let test_multihop_run_many_deterministic () =
  check_run_many "multihop" Simnet.Multihop.run
    (fun ~jobs cfgs -> Simnet.Multihop.run_many ~jobs cfgs)
    (Array.map
       (fun t_end -> Simnet.Multihop.default_config ~t_end params)
       [| 2e-3; 3e-3; 4e-3 |])

let test_fera_queue_stays_small () =
  let p = Fluid.Params.with_buffer Fluid.Params.default 15e6 in
  let r = Simnet.Fera.run (Simnet.Fera.default_config ~t_end:0.01 p) in
  (* explicit rates never let the queue grow anywhere near the buffer *)
  Alcotest.(check bool) "queue < q0" true
    (Stats.max r.Simnet.Fera.queue.Series.vs < p.Fluid.Params.q0)

(* ---------------- E2cm ---------------- *)

let test_e2cm_controls_and_outperforms_bcn_fairness () =
  let p = Fluid.Params.with_buffer Fluid.Params.default 15e6 in
  let start = 0.3 *. Fluid.Params.equilibrium_rate p in
  let e2cm =
    Simnet.E2cm.run
      { (Simnet.E2cm.default_config ~t_end:0.02 p) with Simnet.E2cm.initial_rate = start }
  in
  Alcotest.(check int) "no drops" 0 e2cm.Simnet.E2cm.drops;
  Alcotest.(check bool) "messages flowed" true (e2cm.Simnet.E2cm.messages > 0);
  Alcotest.(check bool) "queue bounded by q0 region" true
    (Stats.max e2cm.Simnet.E2cm.queue.Series.vs < p.Fluid.Params.buffer);
  let bcn =
    Simnet.Runner.run
      {
        (Simnet.Runner.default_config ~t_end:0.02 p) with
        Simnet.Runner.mode = Simnet.Source.Literal;
        initial_rate = start;
        enable_pause = false;
      }
  in
  (* the fair-share cap tames BCN's per-sample unfairness *)
  Alcotest.(check bool) "fairer than plain BCN" true
    (Simnet.Runner.fairness e2cm.Simnet.E2cm.final_rates
     > Simnet.Runner.fairness bcn.Simnet.Runner.final_rates)

(* ---------------- Multihop ---------------- *)

let test_multihop_strict_tagging_protects () =
  let p =
    Fluid.Params.with_sampling ~pm:0.05
      (Fluid.Params.with_buffer Fluid.Params.default 15e6)
  in
  let base = Simnet.Multihop.default_config ~t_end:0.02 p in
  let strict = Simnet.Multihop.run base in
  let relaxed =
    Simnet.Multihop.run { base with Simnet.Multihop.strict_tagging = false }
  in
  Alcotest.(check int) "no drops (strict)" 0
    (strict.Simnet.Multihop.drops_a + strict.Simnet.Multihop.drops_b);
  (* strict tagging keeps the long/short goodput ratio within bounds;
     relaxing it distorts the share substantially more *)
  let dev r = Float.abs (log r.Simnet.Multihop.beatdown) in
  Alcotest.(check bool)
    (Printf.sprintf "strict %.3f closer to 1 than relaxed %.3f"
       strict.Simnet.Multihop.beatdown relaxed.Simnet.Multihop.beatdown)
    true
    (dev strict < dev relaxed);
  Alcotest.(check bool) "messages flowed" true
    (strict.Simnet.Multihop.bcn_messages > 0)

let test_multihop_validation () =
  let p = Fluid.Params.with_buffer Fluid.Params.default 15e6 in
  let base = Simnet.Multihop.default_config p in
  Alcotest.(check bool) "rejects inverted capacities" true
    (try
       ignore (Simnet.Multihop.run { base with Simnet.Multihop.c_b = 2. *. base.Simnet.Multihop.c_a });
       false
     with Invalid_argument _ -> true)

(* ---------------- Runner histograms ---------------- *)

let test_runner_latency_histogram () =
  let cfg = Simnet.Runner.default_config ~t_end:0.005 params in
  let r = Simnet.Runner.run cfg in
  let h = r.Simnet.Runner.latency in
  Alcotest.(check bool) "latency recorded" true (Numerics.Histogram.count h > 0.);
  let p50 = Numerics.Histogram.quantile h 0.5 in
  let p99 = Numerics.Histogram.quantile h 0.99 in
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
  (* sojourn cannot exceed buffer/C plus one service time by much *)
  Alcotest.(check bool) "p99 below bound" true
    (p99 <= (params.Fluid.Params.buffer /. params.Fluid.Params.capacity) *. 2.2)

(* ---------------- Model-based property tests ---------------- *)

let prop_fifo_conserves_bits =
  QCheck.Test.make ~name:"FIFO conserves bits over random op sequences"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 200) bool)
    (fun ops ->
      let f = Simnet.Fifo.create ~capacity_bits:60000. in
      let seq = ref 0 in
      List.iter
        (fun enq ->
          if enq then begin
            incr seq;
            ignore
              (Simnet.Fifo.enqueue f
                 (Simnet.Packet.make_data ~seq:!seq ~now:0. ~flow:0 ~rrt:None))
          end
          else ignore (Simnet.Fifo.dequeue f))
        ops;
      Float.abs
        (Simnet.Fifo.enqueued_bits f
        -. (Simnet.Fifo.dequeued_bits f +. Simnet.Fifo.occupancy_bits f))
      < 1e-9
      && Simnet.Fifo.occupancy_bits f <= 60000.)

let prop_fifo_order_preserved =
  QCheck.Test.make ~name:"FIFO pops in push order" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let f = Simnet.Fifo.create ~capacity_bits:1e9 in
      for i = 0 to n - 1 do
        ignore
          (Simnet.Fifo.enqueue f
             (Simnet.Packet.make_data ~seq:i ~now:0. ~flow:0 ~rrt:None))
      done;
      let ok = ref true in
      for i = 0 to n - 1 do
        match Simnet.Fifo.dequeue f with
        | Some p -> if p.Simnet.Packet.seq <> i then ok := false
        | None -> ok := false
      done;
      !ok)

let prop_engine_processes_in_time_order =
  QCheck.Test.make ~name:"engine fires callbacks in nondecreasing time"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (float_range 0. 50.))
    (fun delays ->
      let e = Simnet.Engine.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          Simnet.Engine.schedule e ~delay:d (fun e ->
              times := Simnet.Engine.now e :: !times))
        delays;
      Simnet.Engine.run e;
      let fired = List.rev !times in
      List.length fired = List.length delays
      && List.sort compare fired = fired)

let prop_source_rate_always_in_bounds =
  QCheck.Test.make ~name:"reaction point clamps under random feedback"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 100) (float_range (-1e7) 1e7))
    (fun fbs ->
      let src =
        Simnet.Source.create ~id:0 ~initial_rate:1e6 ~min_rate:1e3
          ~max_rate:1e9 ~mode:Simnet.Source.Literal ~gi:4. ~gd:(1. /. 128.)
          ~ru:8e6
          ~send:(fun _ _ -> ())
          ()
      in
      List.iter (fun fb -> Simnet.Source.handle_bcn src ~now:0. ~fb ~cpid:1) fbs;
      let r = Simnet.Source.rate src in
      r >= 1e3 && r <= 1e9)

(* ---------------- Packet digests ---------------- *)

(* SHA-256 of the Marshal bytes of every packet model's result on a
   short default run, and of [Faultnet.Exec.run] over the committed v1
   scenario fixture plus channel- and capacity-fault scenarios for the
   explicit-rate models. Any change to a model's event schedule, to its
   sampled trace or to the sharing inside its result shows up here. *)
let packet_digest_cases () =
  let p = Fluid.Params.default in
  let t_end = 2e-3 in
  let digest v = Store.Key.sha256_hex (Marshal.to_string v []) in
  let fixture =
    let path =
      if Sys.file_exists "scenario_v1.jsonl" then "scenario_v1.jsonl"
      else Filename.concat "test" "scenario_v1.jsonl"
    in
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let exec s = digest (Faultnet.Exec.run ~jobs:1 s) in
  let module S = Simnet.Scenario in
  let module F = Simnet.Fault_plan in
  let channel_plan =
    {
      F.none with
      F.seed = 5;
      bcn_pos_loss = Some (F.Bernoulli 0.2);
      bcn_neg_loss = Some (F.Bernoulli 0.2);
      delay = Some { F.fixed = 2e-6; jitter = 1e-6; reorder = false };
    }
  in
  let flap_plan =
    { F.none with F.seed = 3; capacity = Some (F.Flap_schedule [ (5e-4, 0.5) ]) }
  in
  [
    ("runner", digest (Simnet.Runner.run (Simnet.Runner.default_config ~t_end p)));
    ( "runner stop_on_verdict",
      digest
        (Simnet.Runner.run
           {
             (probe_cfg ~enable_pause:false ~buffer:1e6) with
             Simnet.Runner.stop_on_verdict = true;
           }) );
    ("e2cm", digest (Simnet.E2cm.run (Simnet.E2cm.default_config ~t_end p)));
    ( "fera",
      digest
        (Simnet.Fera.run
           (Simnet.Fera.default_config ~t_end:0.01
              (Fluid.Params.with_buffer p 15e6))) );
    ("rcp", digest (Simnet.Rcp.run (Simnet.Rcp.default_config ~t_end p)));
    ( "multihop",
      digest (Simnet.Multihop.run (Simnet.Multihop.default_config ~t_end p)) );
    ("qcn", digest (Simnet.Qcn.run (Simnet.Qcn.default_config ~t_end p)));
    ( "topology",
      digest
        (Simnet.Topology.victim_scenario
           (Simnet.Topology.default_config ~t_end p)) );
    ("e2cm + channel", exec (S.with_fault (S.e2cm ~t_end p) channel_plan));
    ("fera + channel", exec (S.with_fault (S.fera ~t_end p) channel_plan));
    ("rcp + channel", exec (S.with_fault (S.rcp ~t_end p) channel_plan));
    ("rcp + flap", exec (S.with_fault (S.rcp ~t_end p) flap_plan));
  ]
  @ List.mapi
      (fun i line ->
        (Printf.sprintf "fixture line %d" (i + 1), exec (S.decode_exn line)))
      fixture

let expected_packet_digests =
  [
    ("runner",
     "f7ffa45121c3d920ab48b5200ec4ba0dd1b32a0cd4af3e913c4574b1a7c25e3f");
    ("runner stop_on_verdict",
     "9fe7e489d1591daa7d8a2f5ddeb66f7780f0ea6ba953c1779ad7054f44c56e3f");
    ("e2cm",
     "150a3d4af65be8d0b3a7e297f573d49aaa924afc3ca763ea5920260fb310f309");
    ("fera",
     "57c6f156214fec5f09ae6e8ec138447530f0fc3a6262511630513268bae70479");
    ("rcp",
     "10e2f8682a6532c6b87324becb861c7f66aaa0afc4ce3d604b34ed9388bb70a9");
    ("multihop",
     "781810ad0c0e80d8a3ba1335796edff5f681383b8e0c93050b0b514e33eec595");
    ("qcn",
     "1128273585939ecc7b854382ce87f663c453e2a8dd6044ecc5075bb05107778a");
    ("topology",
     "5bca785349e4876f0ef115b81b88cc8e9ef77ca9f65d745674b4933545770372");
    ("e2cm + channel",
     "bf03a3af13b6a93d2459f2ef706694ab1924f8a1f378301fc02ae33b76615eb8");
    ("fera + channel",
     "246228518b7040bd979d3d06e1e6767e32670716d4d93175c65b2c203fa11629");
    ("rcp + channel",
     "611f5a5838ddd8de4fd1f4bc9f07ad0f1aee557dfe0801fb30aac0f3cf794c1a");
    ("rcp + flap",
     "79e7f6d75a7fdaea832fbc0c5e53412d0deaf2576bd67b9e4a4f05c6661bd81f");
    ("fixture line 1",
     "0b70e11110ee6c0640f2eeb1e19992bcaa00247d7a74ddb4f4a151964dc998eb");
    ("fixture line 2",
     "3366cf94a309b88046290642e2373e79e9a8b044d7a2dc422041f84c91e8456c");
    ("fixture line 3",
     "c8a8e04400c5a98802ee5fc0e73be16c5c5c9f64273a88dca4a919ee5f481ae5");
    ("fixture line 4",
     "95d7afe156aa6373f5097bc4c8b5e74c1f940e9de30196ca688ea8a4cfd28690");
    ("fixture line 5",
     "db728996a1d78327ab52633caee2e14877e70ad0adcbe5ce9f295665c508dec2");
  ]

let test_packet_digests () =
  let got = packet_digest_cases () in
  Alcotest.(check (list (pair string string)))
    "digests" expected_packet_digests got

(* ---------------- allocation ---------------- *)

(* The zero-allocation fast path. Under the release profile the pooled
   forwarding path and the structure-of-arrays queue allocate nothing
   once warm; the 0.01 words of slack absorb warm-up residue only. *)
let alloc_slack = 0.01

(* A single feeder paces pool-allocated frames through a switch (BCN
   and PAUSE off) into a releasing sink at just under line rate, so
   each frame is one feed event plus one service completion. *)
let test_forwarding_allocates_nothing () =
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
  let warm = 2048 and frames = 20_000 in
  Simnet.Engine.run ~until:(float_of_int warm *. gap) e;
  let n0 = !seq in
  let w0 = Gc.minor_words () in
  Simnet.Engine.run ~until:(float_of_int (warm + frames) *. gap) e;
  let words = (Gc.minor_words () -. w0) /. float_of_int (!seq - n0) in
  if words > alloc_slack then
    Alcotest.failf "pooled forwarding allocates %.4f minor words/frame" words

(* One op = one push plus its pop_min, over 4096 pseudo-random keys.
   The keys are pushed from an index loop: [Array.iter] over a float
   array would box each key before the queue sees it. *)
let test_eventq_allocates_nothing () =
  let n = 4096 and rounds = 50 in
  let keys = Array.make n 0. in
  let state = ref 123456789 in
  for i = 0 to n - 1 do
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    keys.(i) <- float_of_int !state
  done;
  let q = Simnet.Eventq.create () in
  let round () =
    for i = 0 to n - 1 do
      Simnet.Eventq.push q keys.(i) 0
    done;
    while not (Simnet.Eventq.is_empty q) do
      ignore (Simnet.Eventq.pop_min q : int)
    done
  in
  round ();
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int (n * rounds) in
  if words > alloc_slack then
    Alcotest.failf "Eventq push + pop_min allocates %.4f minor words/op" words

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "simnet"
    [
      ( "eventq",
        [
          Alcotest.test_case "ordering" `Quick test_eventq_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_eventq_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_eventq_interleaved;
          Alcotest.test_case "nan rejected" `Quick test_eventq_nan_rejected;
          Alcotest.test_case "clear" `Quick test_eventq_clear;
          Alcotest.test_case "no payload pinning" `Quick
            test_eventq_does_not_pin_payloads;
        ] );
      qsuite "eventq-props"
        [
          prop_eventq_sorted;
          prop_eventq_conserves;
          prop_eventq_fifo_under_ties;
          prop_eventq_matches_boxed_oracle;
        ];
      qsuite "model-props"
        [
          prop_fifo_conserves_bits;
          prop_fifo_order_preserved;
          prop_engine_processes_in_time_order;
          prop_source_rate_always_in_bounds;
        ];
      ( "engine",
        [
          Alcotest.test_case "order and clock" `Quick test_engine_order_and_clock;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "until boundary" `Quick test_engine_until_boundary;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        ] );
      ( "fifo",
        [ Alcotest.test_case "accounting" `Quick test_fifo_accounting ] );
      ( "packet",
        [
          Alcotest.test_case "constructors" `Quick test_packet_constructors;
          Alcotest.test_case "pool reuse" `Quick test_packet_pool_reuse;
        ] );
      ( "switch",
        [
          Alcotest.test_case "sampling rate" `Quick test_switch_sampling_rate;
          Alcotest.test_case "positive feedback" `Quick
            test_switch_positive_feedback_when_below_q0;
          Alcotest.test_case "negative feedback" `Quick
            test_switch_negative_feedback_when_congested;
          Alcotest.test_case "pause thresholds" `Quick test_switch_pause_thresholds;
          Alcotest.test_case "pause resume configurable" `Quick
            test_switch_pause_resume_configurable;
          Alcotest.test_case "pause resume validated" `Quick
            test_switch_pause_resume_validated;
          Alcotest.test_case "egress pause" `Quick
            test_switch_egress_pause_stops_service;
          Alcotest.test_case "rejects control" `Quick
            test_switch_rejects_control_frames;
        ] );
      ( "source",
        [
          Alcotest.test_case "pacing rate" `Quick test_source_pacing_rate;
          Alcotest.test_case "literal AIMD" `Quick test_source_literal_aimd;
          Alcotest.test_case "zoh integration" `Quick test_source_zoh_integration;
          Alcotest.test_case "pause" `Quick test_source_pause_stops_sending;
          Alcotest.test_case "rate clamp" `Quick test_source_rate_clamped;
        ] );
      ( "runner",
        [
          Alcotest.test_case "conservation" `Quick test_runner_conservation;
          Alcotest.test_case "BCN controls queue" `Quick
            test_runner_bcn_converges_queue;
          Alcotest.test_case "fairness metric" `Quick test_runner_fairness_metric;
          Alcotest.test_case "no control overflows" `Quick
            test_runner_no_bcn_overflows;
          Alcotest.test_case "PAUSE prevents drops" `Quick
            test_runner_pause_prevents_drops;
          Alcotest.test_case "stop on verdict" `Quick
            test_runner_stop_on_verdict;
          Alcotest.test_case "replicate deterministic" `Quick
            test_runner_replicate_deterministic;
          Alcotest.test_case "run_many matches run" `Quick
            test_runner_run_many_matches_run;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "event counts match result" `Quick
            test_probe_counts_match_result;
          Alcotest.test_case "bits conservation" `Quick
            test_probe_bits_conservation;
          Alcotest.test_case "probe does not perturb" `Quick
            test_probe_does_not_perturb_run;
          Alcotest.test_case "replicate_instrumented deterministic" `Quick
            test_replicate_instrumented_deterministic;
        ] );
      ( "topology",
        [ Alcotest.test_case "victim contrast" `Quick test_victim_scenario_contrast ] );
      ( "workload",
        [
          Alcotest.test_case "cbr rate" `Quick test_workload_cbr_rate;
          Alcotest.test_case "poisson mean" `Quick test_workload_poisson_mean;
          Alcotest.test_case "on/off duty cycle" `Quick
            test_workload_on_off_duty_cycle;
          Alcotest.test_case "incast bursts" `Quick test_workload_incast_bursts;
          Alcotest.test_case "stop" `Quick test_workload_stop;
          Alcotest.test_case "zero rate rejected" `Quick
            test_workload_zero_rate_rejected;
          Alcotest.test_case "on/off mean_off = 0" `Quick
            test_workload_on_off_always_on;
        ] );
      qsuite "workload-props" [ prop_workload_seed_stable ];
      ( "fera",
        [
          Alcotest.test_case "fair convergence" `Quick
            test_fera_converges_to_fair_share;
          Alcotest.test_case "small queue" `Quick test_fera_queue_stays_small;
          Alcotest.test_case "run_many deterministic" `Quick
            test_fera_run_many_deterministic;
        ] );
      ( "multihop",
        [
          Alcotest.test_case "strict tagging" `Slow
            test_multihop_strict_tagging_protects;
          Alcotest.test_case "validation" `Quick test_multihop_validation;
          Alcotest.test_case "run_many deterministic" `Slow
            test_multihop_run_many_deterministic;
        ] );
      ( "e2cm",
        [
          Alcotest.test_case "controls + fairness" `Quick
            test_e2cm_controls_and_outperforms_bcn_fairness;
          Alcotest.test_case "run_many deterministic" `Quick
            test_e2cm_run_many_deterministic;
        ] );
      ( "measurements",
        [
          Alcotest.test_case "latency histogram" `Quick
            test_runner_latency_histogram;
        ] );
      ( "qcn",
        [
          Alcotest.test_case "quantize" `Quick test_qcn_quantize;
          Alcotest.test_case "runs and controls" `Quick test_qcn_runs_and_controls;
        ] );
      ( "packet digests",
        [
          Alcotest.test_case "seven models + v1 fixture" `Quick
            test_packet_digests;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "pooled forwarding, BCN and PAUSE off" `Quick
            test_forwarding_allocates_nothing;
          Alcotest.test_case "eventq push + pop_min" `Quick
            test_eventq_allocates_nothing;
        ] );
    ]
