(* Tests for the content-addressed result store and the Scenario
   canonical encoding that feeds it: SHA-256 against the FIPS vectors,
   encode/decode round-trips, key stability under field permutation and
   default elision, key sensitivity to single-field perturbation, cache
   integrity (corruption evicts and recomputes), sweep resumability and
   jobs-independence, the resilience probe memo, and the entry format:
   its header and checksum, the strict parse, truncation, flip and
   word-replacement corpora, and entries in the legacy format. *)

module Scenario = Simnet.Scenario
module Key = Store.Key
module Cache = Store.Cache
module Manifest = Store.Manifest
module Sweep = Store.Sweep

(* Number of object entries on disk, by a directory walk: the slow
   oracle the index's object count is checked against. *)
let disk_entries c =
  let objects = Filename.concat (Cache.root c) "objects" in
  if not (Sys.file_exists objects) then 0
  else
    Array.fold_left
      (fun acc sub ->
        let d = Filename.concat objects sub in
        if Sys.is_directory d then acc + Array.length (Sys.readdir d) else acc)
      0 (Sys.readdir objects)

let with_store f =
  let dir = Filename.temp_dir "dcecc-store-test" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f (Cache.open_ ~dir))

(* ---------------- SHA-256 ---------------- *)

let test_sha256_vectors () =
  let check msg expect =
    Alcotest.(check string) ("sha256 of " ^ String.escaped msg) expect
      (Key.sha256_hex msg)
  in
  check ""
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  (* the 896-bit two-block FIPS vector: its padding needs a second
     block, the tail case the single-block vectors never reach *)
  check
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
     ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1";
  (* exercises the multi-block path: 1,000,000 'a' is the classic
     third FIPS vector *)
  check (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

(* The textbook FIPS 180-4 loop, an oracle for the unrolled production
   compression function. It carries its own round constants and initial
   hash values, so it shares no table with the code under test. *)
module Sha256_oracle = struct
  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
      0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
      0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
      0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
      0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
      0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
      0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
      0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
      0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
      0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
      0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
      0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
      0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
    |]

  let h0 =
    [|
      0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
      0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
    |]

  let mask = 0xffffffff
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  (* Pad to a whole number of blocks: a 0x80 byte, zeros, and the
     message length in bits as a 64-bit big-endian integer. *)
  let pad msg =
    let len = String.length msg in
    let total = (len + 9 + 63) / 64 * 64 in
    let b = Bytes.make total '\000' in
    Bytes.blit_string msg 0 b 0 len;
    Bytes.set b len '\x80';
    Bytes.set_int64_be b (total - 8) (Int64.of_int (len * 8));
    b

  let digest msg =
    let b = pad msg in
    let h = Array.copy h0 in
    let w = Array.make 64 0 in
    for block = 0 to (Bytes.length b / 64) - 1 do
      for t = 0 to 15 do
        w.(t) <- Int32.to_int (Bytes.get_int32_be b ((64 * block) + (4 * t)))
                 land mask
      done;
      for t = 16 to 63 do
        let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
        let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
        w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
      done;
      let v = Array.copy h in
      for t = 0 to 63 do
        let e = v.(4) and a = v.(0) in
        let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
        let ch = (e land v.(5)) lxor (lnot e land v.(6)) in
        let t1 = (v.(7) + s1 + ch + k.(t) + w.(t)) land mask in
        let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
        let maj = (a land v.(1)) lxor (a land v.(2)) lxor (v.(1) land v.(2)) in
        let t2 = (s0 + maj) land mask in
        Array.blit v 0 v 1 7;
        v.(4) <- (v.(4) + t1) land mask;
        v.(0) <- (t1 + t2) land mask
      done;
      Array.iteri (fun i x -> h.(i) <- (h.(i) + x) land mask) v
    done;
    String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") h))
end

(* The unrolled production compression function against
   [Sha256_oracle], across lengths that cover every padding shape
   (empty, sub-block, one-block boundary, two-block tail, many
   blocks). *)
let test_sha256_differential () =
  let state = ref 7 in
  let byte () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    Char.chr (!state land 0xff)
  in
  List.iter
    (fun len ->
      let s = String.init len (fun _ -> byte ()) in
      Alcotest.(check string)
        (Printf.sprintf "len %d" len)
        (Sha256_oracle.digest s) (Key.sha256_hex s))
    [ 0; 1; 3; 31; 55; 56; 63; 64; 65; 111; 112; 119; 127; 128; 1000; 4093 ]

(* Streaming a message through [feed] in chunks — 1 MiB, irregular
   chunk sizes — must give the oneshot digest. *)
let test_sha256_streaming () =
  let n = 1 lsl 20 in
  let state = ref 99 in
  let byte () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    Char.chr (!state land 0xff)
  in
  let s = String.init n (fun _ -> byte ()) in
  let oneshot = Key.sha256_hex s in
  let ctx = Key.init () in
  let pos = ref 0 in
  let chunk = ref 1 in
  while !pos < n do
    let len = min !chunk (n - !pos) in
    Key.feed ctx (String.sub s !pos len);
    pos := !pos + len;
    (* chunk sizes sweep 1 .. ~8191, hitting sub-block, block-aligned
       and multi-block feeds in one pass *)
    chunk := 1 + ((!chunk * 2) mod 8191)
  done;
  Alcotest.(check string) "streamed = oneshot" oneshot (Key.final ctx);
  (* split-point invariance at the block boundary *)
  let ctx2 = Key.init () in
  Key.feed ctx2 (String.sub s 0 64);
  Key.feed ctx2 (String.sub s 64 (n - 64));
  Alcotest.(check string) "block-aligned split" oneshot (Key.final ctx2)

let test_key_material () =
  let k1 = Key.of_material "hello" in
  let k2 = Key.of_material "hello" in
  let k3 = Key.of_material "hellp" in
  Alcotest.(check string) "deterministic" (Key.to_hex k1) (Key.to_hex k2);
  Alcotest.(check bool) "sensitive" false (Key.to_hex k1 = Key.to_hex k3);
  Alcotest.(check bool) "of_hex round-trip" true
    (Key.of_hex (Key.to_hex k1) = Some k1);
  Alcotest.(check bool) "of_hex rejects junk" true
    (Key.of_hex "xyz" = None
    && Key.of_hex (String.make 64 'G') = None
    && Key.of_hex (String.make 63 'a') = None)

(* ---------------- Scenario encoding ---------------- *)

let params = Fluid.Params.default

let sample_scenarios () =
  let plan =
    Simnet.Fault_plan.(
      with_blackout ~reset:true
        (with_delay ~jitter:2e-6 ~reorder:true
           (with_capacity
              (with_pause_loss
                 (with_bcn_loss ~pos:(Bernoulli 0.1)
                    ~neg:(Burst { p_enter = 0.1; p_exit = 0.4; p_drop = 0.9 })
                    (with_seed none 11))
                 (Bernoulli 0.05))
              (Flap_schedule [ (1e-3, 0.5); (2e-3, 1.0) ]))
           ~fixed:1e-6)
        ~start:3e-3 ~duration:1e-3)
  in
  [
    Scenario.bcn params;
    Scenario.bcn ~t_end:4e-3 ~sampling:Scenario.Bernoulli ~mode:Simnet.Source.Literal
      ~broadcast_feedback:true ~pause_resume:0.8 params
    |> (fun s -> Scenario.with_seed s 42)
    |> (fun s -> Scenario.with_replicas s 3);
    Scenario.with_fault (Scenario.bcn ~t_end:4e-3 params) plan;
    Scenario.with_workload (Scenario.bcn params)
      [
        Scenario.Cbr { rate = 1e9 };
        Scenario.Poisson { mean_rate = 5e8; seed = 7 };
        Scenario.On_off
          { peak_rate = 2e9; mean_on = 1e-3; mean_off = 2e-3; seed = 3 };
        Scenario.Incast
          { senders = 4; burst_frames = 10; period = 1e-3; jitter = 1e-5; seed = 1 };
      ];
    Scenario.e2cm ~t_end:5e-3 params;
    Scenario.fera ~interval:2e-5 ~target_util:0.9 params;
    Scenario.multihop ~n_long:3 ~n_short:2 ~strict_tagging:false params;
    Scenario.bcn ~sampling:(Scenario.Timer 1e-5) ~enable_pause:false params;
  ]

let test_roundtrip () =
  List.iteri
    (fun i s ->
      let enc = Scenario.encode s in
      match Scenario.decode enc with
      | Error e -> Alcotest.failf "scenario %d failed to decode: %s" i e
      | Ok s' ->
          Alcotest.(check bool)
            (Printf.sprintf "scenario %d round-trips" i)
            true (Scenario.equal s s');
          Alcotest.(check string)
            (Printf.sprintf "scenario %d re-encodes identically" i)
            enc (Scenario.encode s'))
    (sample_scenarios ())

let test_describe () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "describe nonempty" true
        (String.length (Scenario.describe s) > 0))
    (sample_scenarios ())

(* Keys must not depend on JSON field order or on spelling out
   defaults: both re-keys go through decode, whose output re-encodes
   canonically. *)
let test_key_field_order_and_elision () =
  let s = List.nth (sample_scenarios ()) 1 in
  let canonical = Key.of_scenario s in
  let rekey src =
    match Scenario.decode src with
    | Ok s' -> Key.of_scenario s'
    | Error e -> Alcotest.failf "rekey decode failed: %s" e
  in
  (* hand-permuted field order, defaults elided *)
  let permuted =
    Printf.sprintf
      "{\"replicas\": 3, \"seed\": 42, \"model\": {\"pause_resume\": 0.8, \
       \"broadcast_feedback\": true, \"mode\": \"literal\", \"sampling\": \
       {\"kind\": \"bernoulli\"}, \"kind\": \"bcn\"}, \"t_end\": 0.004, \
       \"params\": %s, \"v\": 1}"
      (Scenario.encode_params params)
  in
  Alcotest.(check string) "permuted+elided encoding keys identically"
    (Key.to_hex canonical)
    (Key.to_hex (rekey permuted));
  (* fully explicit canonical form keys identically too *)
  Alcotest.(check string) "canonical encoding keys identically"
    (Key.to_hex canonical)
    (Key.to_hex (rekey (Scenario.encode s)))

let test_key_sensitivity () =
  let base = Scenario.bcn ~t_end:4e-3 params in
  let k = Key.to_hex (Key.of_scenario base) in
  let differs name s' =
    Alcotest.(check bool) (name ^ " changes the key") false
      (k = Key.to_hex (Key.of_scenario s'))
  in
  differs "t_end" (Scenario.bcn ~t_end:5e-3 params);
  differs "sample_dt" { base with Scenario.sample_dt = 2e-5 };
  differs "control_delay" { base with Scenario.control_delay = 2e-6 };
  differs "initial_rate" { base with Scenario.initial_rate = Some 1e9 };
  differs "params"
    (Scenario.bcn ~t_end:4e-3 (Fluid.Params.with_buffer params 15e6));
  differs "model knob"
    (Scenario.bcn ~t_end:4e-3 ~enable_pause:false params);
  differs "workload"
    (Scenario.with_workload base [ Scenario.Cbr { rate = 1e9 } ]);
  differs "fault"
    (Scenario.with_fault base
       Simnet.Fault_plan.(with_bcn_loss ~pos:(Bernoulli 0.1) none));
  differs "model family" (Scenario.e2cm ~t_end:4e-3 params);
  (* the no-op fault plan normalises away: key unchanged *)
  Alcotest.(check string) "empty plan does not perturb the key" k
    (Key.to_hex (Key.of_scenario (Scenario.with_fault base Simnet.Fault_plan.none)))

let test_decode_rejects () =
  let rejects name src =
    match Scenario.decode src with
    | Ok _ -> Alcotest.failf "%s unexpectedly decoded" name
    | Error _ -> ()
  in
  rejects "garbage" "not json";
  rejects "unknown top field"
    "{\"v\": 1, \"model\": {\"kind\": \"bcn\"}, \"params\": {\"n_flows\": 1, \
     \"capacity\": 1e9, \"q0\": 1e5, \"buffer\": 5e6, \"gi\": 1.0, \"gd\": \
     4.0, \"ru\": 1e6}, \"bogus\": 1}";
  rejects "unknown model kind"
    "{\"v\": 1, \"model\": {\"kind\": \"dctcp\"}, \"params\": {\"n_flows\": \
     1, \"capacity\": 1e9, \"q0\": 1e5, \"buffer\": 5e6, \"gi\": 1.0, \
     \"gd\": 4.0, \"ru\": 1e6}}";
  rejects "bad version"
    "{\"v\": 99, \"model\": {\"kind\": \"bcn\"}, \"params\": {\"n_flows\": \
     1, \"capacity\": 1e9, \"q0\": 1e5, \"buffer\": 5e6, \"gi\": 1.0, \
     \"gd\": 4.0, \"ru\": 1e6}}";
  rejects "missing params" "{\"v\": 1, \"model\": {\"kind\": \"bcn\"}}";
  rejects "invalid semantics (t_end < 0)"
    "{\"v\": 1, \"t_end\": -1.0, \"model\": {\"kind\": \"bcn\"}, \"params\": \
     {\"n_flows\": 1, \"capacity\": 1e9, \"q0\": 1e5, \"buffer\": 5e6, \
     \"gi\": 1.0, \"gd\": 4.0, \"ru\": 1e6}}";
  (* a non-finite parameter would encode as the non-JSON token inf *)
  rejects "w = 1e400"
    "{\"v\": 1, \"model\": {\"kind\": \"bcn\"}, \"params\": {\"n_flows\": \
     1, \"capacity\": 1e9, \"w\": 1e400, \"q0\": 1e5, \"buffer\": 5e6, \
     \"gi\": 1.0, \"gd\": 4.0, \"ru\": 1e6}}";
  rejects "mu = 1e400"
    "{\"v\": 1, \"model\": {\"kind\": \"bcn\"}, \"params\": {\"n_flows\": \
     1, \"capacity\": 1e9, \"q0\": 1e5, \"buffer\": 5e6, \"gi\": 1.0, \
     \"gd\": 4.0, \"ru\": 1e6, \"mu\": 1e400}}";
  (match Fluid.Params.make ~mu:infinity ~n_flows:1 ~capacity:1e9 ~q0:1e5
           ~buffer:5e6 ~gi:1. ~gd:4. ~ru:1e6 () with
  | _ -> Alcotest.fail "Params.make accepted mu = infinity"
  | exception Invalid_argument _ -> ());
  (* hop B must be the tighter one, or the run would fail mid-way *)
  rejects "multihop c_b > c_a"
    "{\"v\": 1, \"model\": {\"kind\": \"multihop\", \"c_a\": 1e9, \
     \"c_b\": 2e9}, \"params\": {\"n_flows\": 1, \"capacity\": 1e9, \
     \"q0\": 1e5, \"buffer\": 5e6, \"gi\": 1.0, \"gd\": 4.0, \"ru\": \
     1e6}}"

(* qcheck: random valid BCN scenarios round-trip through the encoding *)
let scenario_gen =
  QCheck.Gen.(
    let* t_end = float_range 1e-3 1e-2 in
    let* seed = int_range 0 1000 in
    let* bern = bool in
    let* replicas = if bern then int_range 1 4 else return 1 in
    let* enable_pause = bool in
    let* broadcast = bool in
    let* workload =
      oneof
        [
          return [];
          return [ Scenario.Cbr { rate = 1e8 } ];
          (let* wseed = int_range 0 99 in
           return [ Scenario.Poisson { mean_rate = 1e8; seed = wseed } ]);
        ]
    in
    let* fault =
      oneof
        [
          return None;
          (let* p = float_range 0.01 0.5 in
           return
             (Some Simnet.Fault_plan.(with_bcn_loss ~pos:(Bernoulli p) none)));
        ]
    in
    let s =
      Scenario.bcn ~t_end
        ~sampling:(if bern then Scenario.Bernoulli else Scenario.Deterministic)
        ~enable_pause ~broadcast_feedback:broadcast params
    in
    let s = Scenario.with_seed s seed in
    let s = Scenario.with_replicas s replicas in
    let s = Scenario.with_workload s workload in
    let s = match fault with Some p -> Scenario.with_fault s p | None -> s in
    return s)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"decode (encode s) = Ok s" ~count:200
    (QCheck.make scenario_gen ~print:Scenario.encode)
    (fun s ->
      match Scenario.decode (Scenario.encode s) with
      | Ok s' -> Scenario.equal s s' && Scenario.encode s' = Scenario.encode s
      | Error _ -> false)

(* ---------------- Cache ---------------- *)

let test_cache_basics () =
  with_store (fun c ->
      let k = Key.of_material "cache-basics" in
      Alcotest.(check bool) "miss on empty" true (Cache.find c k = None);
      Cache.put c k "payload bytes";
      Alcotest.(check bool) "mem after put" true (Cache.mem c k);
      Alcotest.(check (option string)) "hit returns payload"
        (Some "payload bytes") (Cache.find c k);
      let s = Cache.stats c in
      Alcotest.(check int) "one hit" 1 s.Cache.hits;
      Alcotest.(check int) "one miss" 1 s.Cache.misses;
      Alcotest.(check int) "one put" 1 s.Cache.puts;
      Alcotest.(check int) "one entry on disk" 1 (disk_entries c);
      (* reopening sees the same entry *)
      let c2 = Cache.open_ ~dir:(Cache.root c) in
      Alcotest.(check (option string)) "persistent across open"
        (Some "payload bytes") (Cache.find c2 k))

let test_cache_refuses_foreign_dir () =
  let dir = Filename.temp_dir "dcecc-notastore" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let oc = open_out (Filename.concat dir "precious.txt") in
      output_string oc "do not touch";
      close_out oc;
      Alcotest.check_raises "refuses non-store directory"
        (Failure
           (Printf.sprintf
              "Store.Cache.open_: %s exists, is not empty and has no store \
               format stamp"
              dir))
        (fun () -> ignore (Cache.open_ ~dir)))

let corrupt_entry root key =
  let hex = Key.to_hex key in
  let path =
    Filename.concat
      (Filename.concat (Filename.concat root "objects") (String.sub hex 0 2))
      hex
  in
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let mangled = Bytes.of_string raw in
  let last = Bytes.length mangled - 1 in
  Bytes.set mangled last
    (Char.chr (Char.code (Bytes.get mangled last) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc mangled;
  close_out oc;
  path

let test_cache_corruption_evicts () =
  with_store (fun c ->
      let k = Key.of_material "corruptible" in
      let computed = ref 0 in
      let f () =
        incr computed;
        "the result"
      in
      Alcotest.(check string) "cold memo computes" "the result"
        (Cache.memo c k f);
      Alcotest.(check string) "warm memo cached" "the result"
        (Cache.memo c k f);
      Alcotest.(check int) "computed once" 1 !computed;
      let path = corrupt_entry (Cache.root c) k in
      Alcotest.(check string) "corrupt entry recomputes" "the result"
        (Cache.memo c k f);
      Alcotest.(check int) "recomputed after corruption" 2 !computed;
      Alcotest.(check int) "eviction counted" 1 (Cache.stats c).Cache.evictions;
      Alcotest.(check bool) "entry rewritten" true (Sys.file_exists path);
      Alcotest.(check string) "healthy again" "the result" (Cache.memo c k f);
      Alcotest.(check int) "no recompute after heal" 2 !computed)

let test_manifest () =
  with_store (fun c ->
      let points =
        Array.init 5 (fun i -> Key.of_material (Printf.sprintf "point-%d" i))
      in
      let m = Manifest.create ~points in
      Manifest.save c m;
      (match Manifest.load c m.Manifest.sweep_key with
      | None -> Alcotest.fail "manifest did not load"
      | Some m' ->
          Alcotest.(check int) "point count survives" 5
            (Array.length m'.Manifest.points);
          Alcotest.(check string) "points survive in order"
            (String.concat "," (Array.to_list (Array.map Key.to_hex points)))
            (String.concat ","
               (Array.to_list (Array.map Key.to_hex m'.Manifest.points))));
      Alcotest.(check int) "no progress yet" 0 (Manifest.progress c m);
      Cache.put c points.(1) "x";
      Cache.put c points.(3) "y";
      Alcotest.(check int) "progress counts present points" 2
        (Manifest.progress c m);
      Alcotest.(check int) "listed" 1 (List.length (Manifest.list c)))

(* ---------------- Sweeps through the store ---------------- *)

let sweep_scenarios () =
  Array.of_list
    (List.map
       (fun t_end -> Scenario.bcn ~t_end params)
       [ 1e-3; 1.5e-3; 2e-3; 2.5e-3 ])

let marshal_outcomes (o : Sweep.outcome array) = Marshal.to_string o []

let test_sweep_cold_then_warm () =
  with_store (fun c ->
      let scenarios = sweep_scenarios () in
      let cold = Sweep.sweep ~cache:c ~jobs:1 scenarios in
      let s1 = Cache.stats c in
      Alcotest.(check int) "cold: all points computed"
        (Array.length scenarios) s1.Cache.misses;
      Cache.reset_stats c;
      let warm = Sweep.sweep ~cache:c ~jobs:1 scenarios in
      let s2 = Cache.stats c in
      Alcotest.(check int) "warm: zero simulations (no misses)" 0
        s2.Cache.misses;
      Alcotest.(check int) "warm: zero writes" 0 s2.Cache.puts;
      Alcotest.(check int) "warm: all points served from store"
        (Array.length scenarios) s2.Cache.hits;
      Alcotest.(check string) "warm byte-identical to cold"
        (marshal_outcomes cold) (marshal_outcomes warm))

let test_sweep_resume_after_crash () =
  with_store (fun c ->
      let scenarios = sweep_scenarios () in
      (* simulate a sweep killed after two points: run only a prefix *)
      let prefix = Array.sub scenarios 0 2 in
      ignore (Sweep.sweep ~cache:c ~jobs:1 prefix);
      (* the full sweep's manifest knows what is already done *)
      let m =
        Manifest.create ~points:(Array.map Key.of_scenario scenarios)
      in
      Alcotest.(check int) "manifest sees the partial progress" 2
        (Manifest.progress c m);
      Cache.reset_stats c;
      let resumed = Sweep.sweep ~cache:c ~jobs:1 scenarios in
      let s = Cache.stats c in
      Alcotest.(check int) "resume recomputes only the missing points" 2
        s.Cache.misses;
      Alcotest.(check int) "resume reuses the completed points" 2
        s.Cache.hits;
      Alcotest.(check int) "manifest complete after resume"
        (Array.length scenarios) (Manifest.progress c m);
      (* and the result equals a from-scratch cold sweep elsewhere *)
      with_store (fun c2 ->
          let cold = Sweep.sweep ~cache:c2 ~jobs:1 scenarios in
          Alcotest.(check string) "resumed = cold" (marshal_outcomes cold)
            (marshal_outcomes resumed)))

let test_sweep_jobs_independent () =
  with_store (fun c ->
      let scenarios = sweep_scenarios () in
      let r1 = Sweep.sweep ~cache:c ~jobs:1 scenarios in
      with_store (fun c4 ->
          let r4 = Sweep.sweep ~cache:c4 ~jobs:4 scenarios in
          Alcotest.(check string) "jobs=1 and jobs=4 byte-identical"
            (marshal_outcomes r1) (marshal_outcomes r4));
      (* warm read at a different jobs count is also identical *)
      let r4' = Sweep.sweep ~cache:c ~jobs:4 scenarios in
      Alcotest.(check string) "warm at jobs=4 = cold at jobs=1"
        (marshal_outcomes r1) (marshal_outcomes r4'))

let test_memo_run_models () =
  with_store (fun c ->
      List.iter
        (fun s ->
          let cold = Sweep.memo_run ~cache:c s in
          let warm = Sweep.memo_run ~cache:c s in
          Alcotest.(check string) "memo_run warm = cold"
            (Marshal.to_string cold [])
            (Marshal.to_string warm []))
        [
          Scenario.e2cm ~t_end:2e-3 params;
          Scenario.fera ~t_end:2e-3 params;
          Scenario.multihop ~t_end:2e-3 ~n_long:2 ~n_short:2 params;
          Scenario.rcp ~t_end:2e-3 params;
        ])

(* faulted, multi-replica scenario: exec wires injectors per replica.
   The run must actually congest (start at the equilibrium rate) or the
   switch never samples and every replica degenerates to the same
   trace. *)
let test_exec_faulted_replicas () =
  let congested = Fluid.Params.with_buffer params 15e6 in
  let s =
    Scenario.bcn ~t_end:2e-3 ~sampling:Scenario.Bernoulli
      ~initial_rate:(Fluid.Params.equilibrium_rate congested) congested
    |> (fun s -> Scenario.with_seed s 3)
    |> (fun s -> Scenario.with_replicas s 2)
    |> fun s ->
    Scenario.with_fault s
      Simnet.Fault_plan.(with_bcn_loss ~pos:(Bernoulli 0.3) (with_seed none 5))
  in
  match Sweep.exec s with
  | Sweep.Bcn_results rs ->
      Alcotest.(check int) "one result per replica" 2 (Array.length rs);
      Alcotest.(check bool) "replicas decorrelated" false
        (Marshal.to_string rs.(0) [] = Marshal.to_string rs.(1) []);
      (* deterministic: a second exec is byte-identical *)
      (match Sweep.exec s with
      | Sweep.Bcn_results rs' ->
          Alcotest.(check string) "exec deterministic"
            (Marshal.to_string rs [])
            (Marshal.to_string rs' [])
      | _ -> Alcotest.fail "model tag changed")
  | _ -> Alcotest.fail "expected Bcn_results"

(* ---------------- Resilience memo ---------------- *)

let test_resilience_memo () =
  with_store (fun c ->
      let sc =
        Faultnet.Resilience.scenario ~t_end:2e-3 ~label:"memo"
          (Fluid.Params.with_buffer Fluid.Params.default 15e6)
      in
      let memo = Sweep.resilience_memo c in
      let cold =
        Faultnet.Resilience.bisect ~iters:2 ~memo ~seed:5 sc
          Faultnet.Resilience.Bcn_loss
      in
      Cache.reset_stats c;
      let warm =
        Faultnet.Resilience.bisect ~iters:2 ~memo ~seed:5 sc
          Faultnet.Resilience.Bcn_loss
      in
      Alcotest.(check int) "warm bisect: zero simulations" 0
        (Cache.stats c).Cache.misses;
      Alcotest.(check bool) "warm bisect: probes served from store" true
        ((Cache.stats c).Cache.hits > 0);
      Alcotest.(check string) "warm margin byte-identical"
        (Marshal.to_string cold [])
        (Marshal.to_string warm []);
      (* unmemoized bisect agrees: the memo changes cost, not answers *)
      let plain =
        Faultnet.Resilience.bisect ~iters:2 ~seed:5 sc
          Faultnet.Resilience.Bcn_loss
      in
      Alcotest.(check string) "memoized = unmemoized"
        (Marshal.to_string plain [])
        (Marshal.to_string cold []))

(* ---------------- Object index ---------------- *)

module Index = Store.Index
module Store_gc = Store.Gc
module Fsck = Store.Fsck

let entry_path root key =
  let hex = Key.to_hex key in
  Filename.concat
    (Filename.concat (Filename.concat root "objects") (String.sub hex 0 2))
    hex

(* the bytes an entry adds to its payload: the size of an empty put *)
let entry_overhead () =
  with_store (fun c ->
      Cache.put c (Key.of_material "overhead") "";
      Cache.bytes c)

let test_index_lockstep () =
  let h = entry_overhead () in
  with_store (fun c ->
      let k1 = Key.of_material "idx-1" and k2 = Key.of_material "idx-2" in
      Cache.put c k1 "payload one";
      Cache.put c k2 "payload two!";
      Alcotest.(check int) "objects counted" 2 (Cache.objects c);
      (* entry size = header + payload *)
      Alcotest.(check int) "bytes counted"
        (h + 11 + (h + 12))
        (Cache.bytes c);
      Alcotest.(check bool) "membership by hex" true
        (Index.mem (Cache.index c) (Key.to_hex k1));
      Alcotest.(check (option int)) "per-entry size" (Some (h + 11))
        (Index.size_of (Cache.index c) (Key.to_hex k1));
      Cache.evict c k1;
      Alcotest.(check int) "evict drops the record" 1 (Cache.objects c);
      Alcotest.(check int) "and its bytes" (h + 12) (Cache.bytes c);
      Alcotest.(check int) "index = directory-walk oracle" (disk_entries c)
        (Cache.objects c))

let test_index_cross_process () =
  with_store (fun c ->
      (* a second handle on the same root stands in for a second
         process: queries refresh from the shared journal *)
      let c2 = Cache.open_ ~dir:(Cache.root c) in
      Alcotest.(check int) "empty at open" 0 (Cache.objects c2);
      Cache.put c (Key.of_material "cross") "x";
      Alcotest.(check int) "foreign append picked up" 1 (Cache.objects c2))

let test_index_torn_tail_and_rebuild () =
  let h = entry_overhead () in
  with_store (fun c ->
      Cache.put c (Key.of_material "t1") "a";
      Cache.put c (Key.of_material "t2") "bb";
      let journal = Filename.concat (Cache.root c) "index.jnl" in
      (* a crashed writer's partial record: no newline, no size field *)
      let oc = open_out_gen [ Open_append ] 0o644 journal in
      output_string oc "+ deadbeef";
      close_out oc;
      let c2 = Cache.open_ ~dir:(Cache.root c) in
      Alcotest.(check int) "torn tail not counted" 2 (Cache.objects c2);
      (* journal gone entirely: open rebuilds from the object tree *)
      Sys.remove journal;
      let c3 = Cache.open_ ~dir:(Cache.root c) in
      Alcotest.(check int) "rebuilt from the tree" 2 (Cache.objects c3);
      Alcotest.(check int) "rebuilt bytes" (h + 1 + (h + 2))
        (Cache.bytes c3))

let test_index_compact () =
  with_store (fun c ->
      let keys =
        Array.init 5 (fun i -> Key.of_material (Printf.sprintf "compact-%d" i))
      in
      Array.iter (fun k -> Cache.put c k "v") keys;
      Cache.evict c keys.(1);
      Cache.evict c keys.(3);
      Index.compact (Cache.index c);
      let journal = Filename.concat (Cache.root c) "index.jnl" in
      let lines = In_channel.with_open_text journal In_channel.input_lines in
      Alcotest.(check int) "magic line + one record per live object" 4
        (List.length lines);
      let recs = List.tl lines in
      Alcotest.(check bool) "all adds, sorted" true
        (List.for_all (fun l -> String.length l > 2 && l.[0] = '+') recs
        && List.sort compare recs = recs);
      let c2 = Cache.open_ ~dir:(Cache.root c) in
      Alcotest.(check int) "compacted journal replays" 3 (Cache.objects c2))

let test_progress_of_index () =
  with_store (fun c ->
      let scenarios = sweep_scenarios () in
      ignore (Sweep.sweep ~cache:c ~jobs:1 (Array.sub scenarios 0 2));
      let m = Manifest.create ~points:(Array.map Key.of_scenario scenarios) in
      Alcotest.(check int) "index progress = stat progress"
        (Manifest.progress c m)
        (Manifest.progress_of_index c m);
      Alcotest.(check int) "partial progress visible" 2
        (Manifest.progress_of_index c m);
      ignore (Sweep.sweep ~cache:c ~jobs:1 scenarios);
      Alcotest.(check int) "complete progress visible"
        (Array.length scenarios)
        (Manifest.progress_of_index c m))

(* ---------------- Garbage collection ---------------- *)

let age path seconds_ago =
  let t = Unix.gettimeofday () -. seconds_ago in
  Unix.utimes path t t

let test_gc_orphans_and_roots () =
  with_store (fun c ->
      let scenarios = sweep_scenarios () in
      (* a completed sweep: manifest + its rooted points *)
      ignore (Sweep.sweep ~cache:c ~jobs:1 scenarios);
      let n = Array.length scenarios in
      let orphan = Key.of_material "gc-orphan" in
      Cache.put c orphan "unreachable";
      (* fresh objects sit inside the generation guard *)
      let r0 = Store_gc.run ~min_age:3600. c in
      Alcotest.(check int) "guarded orphan survives" 0 r0.Store_gc.collected;
      (* aged past the guard: dry-run reports without deleting *)
      age (entry_path (Cache.root c) orphan) 7200.;
      let r1 = Store_gc.run ~dry_run:true c in
      Alcotest.(check int) "dry-run counts it" 1 r1.Store_gc.collected;
      Alcotest.(check bool) "dry-run deletes nothing" true (Cache.mem c orphan);
      let r2 = Store_gc.run c in
      Alcotest.(check int) "collected" 1 r2.Store_gc.collected;
      Alcotest.(check bool) "orphan gone" false (Cache.mem c orphan);
      Alcotest.(check int) "rooted points survive" n (disk_entries c);
      Alcotest.(check int) "collection accounted" 1 (Cache.gc_collected c);
      Alcotest.(check int) "index followed" n (Cache.objects c);
      (* age the rooted points too: liveness comes from the manifest,
         not the generation guard *)
      Array.iter
        (fun s -> age (entry_path (Cache.root c) (Key.of_scenario s)) 7200.)
        scenarios;
      let r3 = Store_gc.run c in
      Alcotest.(check int) "old but rooted: still live" 0
        r3.Store_gc.collected;
      Cache.reset_stats c;
      ignore (Sweep.sweep ~cache:c ~jobs:1 scenarios);
      Alcotest.(check int) "warm sweep intact after gc" 0
        (Cache.stats c).Cache.misses)

(* ---------------- Fsck ---------------- *)

let test_fsck_clean_and_corrupt () =
  with_store (fun c ->
      let keys =
        Array.init 4 (fun i -> Key.of_material (Printf.sprintf "fsck-%d" i))
      in
      Array.iteri (fun i k -> Cache.put c k (String.make (i + 2) 'x')) keys;
      let r = Fsck.run ~jobs:2 c in
      Alcotest.(check int) "clean: checked" 4 r.Fsck.checked;
      Alcotest.(check int) "clean: ok" 4 r.Fsck.ok;
      Alcotest.(check int) "clean: corrupt" 0 r.Fsck.corrupt;
      Alcotest.(check int) "clean: stale" 0 r.Fsck.stale_index;
      (* flip a payload bit: exactly that entry is found and evicted *)
      ignore (corrupt_entry (Cache.root c) keys.(2));
      let r2 = Fsck.run ~jobs:2 c in
      Alcotest.(check int) "corrupt found" 1 r2.Fsck.corrupt;
      Alcotest.(check int) "evicted" 1 r2.Fsck.evicted;
      Alcotest.(check bool) "entry gone" false (Cache.mem c keys.(2));
      Alcotest.(check int) "index followed" 3 (Cache.objects c);
      (* detect-only mode reports but keeps the entry *)
      ignore (corrupt_entry (Cache.root c) keys.(1));
      let r3 = Fsck.run ~evict:false c in
      Alcotest.(check int) "detected without evicting" 1 r3.Fsck.corrupt;
      Alcotest.(check int) "nothing evicted" 0 r3.Fsck.evicted;
      Alcotest.(check bool) "entry kept" true (Cache.mem c keys.(1)))

let test_fsck_index_repair () =
  with_store (fun c ->
      let a = Key.of_material "repair-a" and b = Key.of_material "repair-b" in
      Cache.put c a "aaaa";
      Cache.put c b "bbbb";
      (* stale record: object removed behind the index's back *)
      Sys.remove (entry_path (Cache.root c) a);
      (* missing record: the index wrongly believes [b] vanished *)
      Index.record_remove (Cache.index c) (Key.to_hex b);
      let r = Fsck.run c in
      Alcotest.(check int) "stale record dropped" 1 r.Fsck.stale_index;
      Alcotest.(check int) "missing record re-added" 1 r.Fsck.missing_index;
      Alcotest.(check int) "index = walk afterwards" (disk_entries c)
        (Cache.objects c);
      Alcotest.(check int) "exactly the surviving object" 1 (Cache.objects c))

(* ---------------- Hostile files: readers never raise ---------------- *)

let manifest_path root m =
  Filename.concat (Filename.concat root "manifests")
    (Key.to_hex m.Manifest.sweep_key)

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes)

(* every regular file under [dir], as paths relative to it *)
let rec files_under dir rel =
  Array.to_list (Sys.readdir (Filename.concat dir rel))
  |> List.concat_map (fun name ->
         let rel = if rel = "" then name else Filename.concat rel name in
         if Sys.is_directory (Filename.concat dir rel) then files_under dir rel
         else [ rel ])

(* A save that fails at publish leaves no staged file anywhere GC
   cannot reach: after an aged GC pass, nothing remains outside the
   object tree, the manifests, the leases and the fixed names. *)
let test_gc_staged_orphans () =
  with_store (fun c ->
      let root = Cache.root c in
      let scenarios = sweep_scenarios () in
      ignore (Sweep.sweep ~cache:c ~jobs:1 scenarios);
      let blocked =
        Manifest.create ~points:[| Key.of_material "gc-blocked" |]
      in
      Sys.mkdir (manifest_path root blocked) 0o755;
      (match Manifest.save c blocked with
      | () -> Alcotest.fail "save over a directory succeeded"
      | exception Sys_error _ -> ());
      Sys.rmdir (manifest_path root blocked);
      List.iter
        (fun rel -> age (Filename.concat root rel) 7200.)
        (files_under root "");
      ignore (Store_gc.run c);
      let allowed rel =
        match String.split_on_char '/' rel with
        | [ ("format" | "index.jnl") ] -> true
        | "objects" :: _ | "leases" :: _ -> true
        | [ "manifests"; name ] -> Option.is_some (Key.of_hex name)
        | _ -> false
      in
      Alcotest.(check (list string))
        "no stray file after gc" []
        (List.filter (fun rel -> not (allowed rel)) (files_under root ""));
      Alcotest.(check int) "rooted points survive" (Array.length scenarios)
        (disk_entries c))

let test_manifest_path_is_directory () =
  with_store (fun c ->
      let good = Manifest.create ~points:[| Key.of_material "dir-good" |] in
      let bad = Manifest.create ~points:[| Key.of_material "dir-bad" |] in
      Manifest.save c good;
      Sys.mkdir (manifest_path (Cache.root c) bad) 0o755;
      Alcotest.(check bool) "load of a directory is None" true
        (Option.is_none (Manifest.load c bad.Manifest.sweep_key));
      Alcotest.(check int) "list skips it" 1 (List.length (Manifest.list c)))

let test_journal_is_directory () =
  with_store (fun c ->
      Cache.put c (Key.of_material "jdir-1") "a";
      Cache.put c (Key.of_material "jdir-2") "bb";
      let journal = Filename.concat (Cache.root c) "index.jnl" in
      Sys.remove journal;
      Sys.mkdir journal 0o755;
      let c2 = Cache.open_ ~dir:(Cache.root c) in
      Alcotest.(check int) "open rebuilds from the tree" (disk_entries c2)
        (Cache.objects c2);
      Alcotest.(check int) "both objects" 2 (Cache.objects c2))

(* Every truncation and every single-bit flip of one valid journal
   (three puts). Opening and refreshing never raises. A flip anywhere
   but the final newline either breaks the grammar (rebuild from the
   tree) or renames a key, so the count matches the tree exactly. A
   truncation, or a flip of the final newline, leaves a shorter valid
   journal or a torn tail, which the advisory index cannot tell from a
   journal written before the later puts: it may only under-count. *)
let test_journal_corpus () =
  with_store (fun c ->
      Array.iter
        (fun i -> Cache.put c (Key.of_material (Printf.sprintf "jc-%d" i)) "v")
        [| 1; 2; 3 |];
      let root = Cache.root c in
      let journal = Filename.concat root "index.jnl" in
      let valid = In_channel.with_open_bin journal In_channel.input_all in
      let n = String.length valid in
      let entries = disk_entries c in
      let objects bytes =
        write_file journal bytes;
        match Cache.objects (Cache.open_ ~dir:root) with
        | k -> k
        | exception e ->
            Alcotest.failf "journal %S raised %s" bytes (Printexc.to_string e)
      in
      for len = 0 to n - 1 do
        let k = objects (String.sub valid 0 len) in
        if k > entries then
          Alcotest.failf "truncation at %d over-counts: %d > %d" len k entries
      done;
      for pos = 0 to n - 1 do
        for bit = 0 to 7 do
          let flipped =
            String.mapi
              (fun i ch ->
                if i = pos then Char.chr (Char.code ch lxor (1 lsl bit)) else ch)
              valid
          in
          let k = objects flipped in
          if (pos < n - 1 && k <> entries) || k > entries then
            Alcotest.failf "flip of bit %d at byte %d: %d objects, tree has %d"
              bit pos k entries
        done
      done)

(* ---------------- Entry format ---------------- *)

(* The entry check restated from its definition, as an oracle: each
   little-endian 64-bit word assembled byte by byte, then each tail
   byte, folded into a state seeded with the payload length. *)
let reference_check p =
  let step h w =
    let x = Int64.mul (Int64.logxor h w) 0x9E3779B97F4A7C15L in
    Int64.logxor x (Int64.shift_right_logical x 29)
  in
  let n = String.length p in
  let byte i = Int64.of_int (Char.code p.[i]) in
  let h = ref (Int64.of_int n) in
  for k = 0 to (n / 8) - 1 do
    let w = ref 0L in
    for b = 7 downto 0 do
      w := Int64.logor (Int64.shift_left !w 8) (byte ((8 * k) + b))
    done;
    h := step !h !w
  done;
  for i = n / 8 * 8 to n - 1 do
    h := step !h (byte i)
  done;
  !h

let reference_entry p =
  Printf.sprintf "dcecc2 %016x %016Lx\n" (String.length p) (reference_check p)
  ^ p

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_entry_format () =
  with_store (fun c ->
      let rng = Random.State.make [| 19 |] in
      List.iter
        (fun n ->
          let p =
            String.init n (fun _ -> Char.chr (Random.State.int rng 256))
          in
          let k = Key.of_material (Printf.sprintf "format-%d" n) in
          Cache.put c k p;
          let raw = read_file (entry_path (Cache.root c) k) in
          Alcotest.(check string)
            (Printf.sprintf "%d-byte payload: entry = reference" n)
            (reference_entry p) raw;
          Alcotest.(check int) "41-byte header" (41 + n) (String.length raw);
          Alcotest.(check (option string)) "reads back" (Some p)
            (Cache.find c k))
        [ 0; 1; 7; 8; 9; 15; 16; 17; 4096; 100_003 ];
      (* pinned, so a change of the check cannot pass by changing the
         oracle with it *)
      Alcotest.(check string) "golden entry"
        "dcecc2 000000000000000b 9384f9a5bcdc2581\nhello store"
        (reference_entry "hello store"))

(* [bytes] at [k]'s object path, in place of a put's entry *)
let plant c k bytes =
  Cache.put c k "";
  write_file (entry_path (Cache.root c) k) bytes

(* writes [bytes] at [k]'s object path, whose directory a put has
   made, and requires [Cache.find] (with [~typed], [Cache.find_value])
   to miss and evict them *)
let check_rejected ?(typed = false) c k what bytes =
  let path = entry_path (Cache.root c) k in
  write_file path bytes;
  let evictions = (Cache.stats c).Cache.evictions in
  let read =
    if typed then Option.is_some (Cache.find_value c k : string option)
    else Option.is_some (Cache.find c k)
  in
  if read then Alcotest.failf "%s: %S read as valid" what bytes;
  if Sys.file_exists path || (Cache.stats c).Cache.evictions <> evictions + 1
  then Alcotest.failf "%s: not evicted" what

let flip raw pos v = String.mapi (fun i ch -> if i = pos then v else ch) raw

(* the single-bit flips of byte [pos] *)
let bit_flips raw pos =
  List.init 8 (fun b ->
      flip raw pos (Char.chr (Char.code raw.[pos] lxor (1 lsl b))))

(* Every truncation of the header, every single-bit flip of a header
   byte, and every replacement of one by a character a lax hex parser
   might take: another digit, uppercase hex, [x], [_], a separator. *)
let test_entry_header_strict () =
  with_store (fun c ->
      let k = Key.of_material "strict" in
      Cache.put c k "strict header";
      let raw = read_file (entry_path (Cache.root c) k) in
      for len = 0 to 40 do
        check_rejected c k
          (Printf.sprintf "truncated to %d" len)
          (String.sub raw 0 len)
      done;
      for pos = 0 to 40 do
        List.iter
          (check_rejected c k (Printf.sprintf "bit flip at %d" pos))
          (bit_flips raw pos);
        String.iter
          (fun v ->
            if v <> raw.[pos] then
              check_rejected c k
                (Printf.sprintf "byte %d := %C" pos v)
                (flip raw pos v))
          "0123456789abcdefABCDEFxX_ \n"
      done)

(* Every truncation and every single-bit flip of a small entry whose
   length is not a multiple of 8: each misses and is evicted by
   [find_value], and fsck counts each one corrupt. *)
let test_entry_corpus () =
  let payload = Marshal.to_string "a short corpus" [] in
  let corpus =
    with_store (fun c ->
        let k = Key.of_material "corpus" in
        Cache.put c k payload;
        let raw = read_file (entry_path (Cache.root c) k) in
        let n = String.length raw in
        Alcotest.(check bool) "payload has a tail" true
          (String.length payload mod 8 <> 0);
        let corpus =
          List.init n (fun len -> String.sub raw 0 len)
          @ List.concat (List.init n (bit_flips raw))
        in
        List.iteri
          (fun i bytes ->
            check_rejected ~typed:true c k (Printf.sprintf "variant %d" i)
              bytes)
          corpus;
        corpus)
  in
  with_store (fun c ->
      List.iteri
        (fun i bytes ->
          plant c (Key.of_material (Printf.sprintf "corpus-%d" i)) bytes)
        corpus;
      let n = List.length corpus in
      let r = Fsck.run ~jobs:1 c in
      Alcotest.(check int) "fsck: every variant checked" n r.Fsck.checked;
      Alcotest.(check int) "fsck: every variant corrupt" n r.Fsck.corrupt;
      Alcotest.(check int) "fsck: every variant evicted" n r.Fsck.evicted;
      Alcotest.(check int) "fsck: none sound" 0 r.Fsck.ok)

(* Replacing any one 8-byte word of a 1 MB payload is detected. Half
   the cases flip only the word's top bit, which a hash that drops it
   (through [Int64.to_int]) would miss. *)
let test_entry_word_replacement () =
  with_store (fun c ->
      let words = 1 lsl 17 in
      let rng = Random.State.make [| 1 |] in
      let k = Key.of_material "words" in
      Cache.put c k
        (String.init (8 * words) (fun _ ->
             Char.chr (Random.State.int rng 256)));
      let raw = read_file (entry_path (Cache.root c) k) in
      let off = String.index raw '\n' + 1 in
      let top_bit = Int64.min_int in
      QCheck.Test.check_exn ~rand:rng
        (QCheck.Test.make ~name:"any one replaced payload word is detected"
           ~count:200
           QCheck.(
             pair (int_bound (words - 1))
               (oneof
                  [
                    always top_bit;
                    map (fun m -> if m = 0L then top_bit else m) int64;
                  ]))
           (fun (w, mask) ->
             let b = Bytes.of_string raw in
             let at = off + (8 * w) in
             Bytes.set_int64_le b at
               (Int64.logxor (Bytes.get_int64_le b at) mask);
             check_rejected c k
               (Printf.sprintf "word %d xor %Lx" w mask)
               (Bytes.unsafe_to_string b);
             true)))

(* A store written before the [dcecc2] header: a hand-built [dcecc1]
   entry reads warm, passes fsck, and a flipped copy is evicted. *)
let test_entry_legacy () =
  with_store (fun c ->
      let k = Key.of_material "legacy" in
      let v = [ 1.5; -2.25; Float.pi ] in
      let p = Marshal.to_string v [] in
      let legacy = "dcecc1 " ^ Key.sha256_hex p ^ "\n" ^ p in
      let path = entry_path (Cache.root c) k in
      plant c k legacy;
      Alcotest.(check (option (list (float 0.)))) "reads warm" (Some v)
        (Cache.find_value c k);
      Alcotest.(check int) "a hit" 1 (Cache.stats c).Cache.hits;
      Alcotest.(check int) "no miss" 0 (Cache.stats c).Cache.misses;
      Alcotest.(check (option string)) "find returns the payload" (Some p)
        (Cache.find c k);
      let r = Fsck.run ~jobs:1 c in
      Alcotest.(check int) "fsck: sound" 1 r.Fsck.ok;
      Alcotest.(check int) "fsck: not corrupt" 0 r.Fsck.corrupt;
      Alcotest.(check string) "fsck leaves it as written" legacy
        (read_file path);
      let n = String.length legacy in
      check_rejected ~typed:true c k "flipped legacy entry"
        (flip legacy (n - 1) (Char.chr (Char.code legacy.[n - 1] lxor 1))))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "store"
    [
      ("sha256", [
        Alcotest.test_case "fips vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "differential vs reference" `Quick
          test_sha256_differential;
        Alcotest.test_case "streaming = oneshot" `Quick test_sha256_streaming;
        Alcotest.test_case "key material" `Quick test_key_material;
      ]);
      ("scenario-encoding", [
        Alcotest.test_case "round-trip" `Quick test_roundtrip;
        Alcotest.test_case "describe" `Quick test_describe;
        Alcotest.test_case "key: field order + elision" `Quick
          test_key_field_order_and_elision;
        Alcotest.test_case "key: single-field sensitivity" `Quick
          test_key_sensitivity;
        Alcotest.test_case "decode rejects" `Quick test_decode_rejects;
      ]);
      qsuite "scenario-qcheck" [ qcheck_roundtrip ];
      ("cache", [
        Alcotest.test_case "basics" `Quick test_cache_basics;
        Alcotest.test_case "refuses foreign dir" `Quick
          test_cache_refuses_foreign_dir;
        Alcotest.test_case "corruption evicts + recomputes" `Quick
          test_cache_corruption_evicts;
        Alcotest.test_case "manifest" `Quick test_manifest;
        Alcotest.test_case "manifest path is a directory" `Quick
          test_manifest_path_is_directory;
      ]);
      ("sweep", [
        Alcotest.test_case "cold then warm" `Quick test_sweep_cold_then_warm;
        Alcotest.test_case "resume after crash" `Quick
          test_sweep_resume_after_crash;
        Alcotest.test_case "jobs-independent" `Quick
          test_sweep_jobs_independent;
        Alcotest.test_case "memo_run all models" `Quick test_memo_run_models;
        Alcotest.test_case "faulted replicas" `Quick
          test_exec_faulted_replicas;
      ]);
      ("resilience-memo", [
        Alcotest.test_case "warm bisect is free" `Quick test_resilience_memo;
      ]);
      ("index", [
        Alcotest.test_case "put/evict keep it in lockstep" `Quick
          test_index_lockstep;
        Alcotest.test_case "cross-process refresh" `Quick
          test_index_cross_process;
        Alcotest.test_case "torn tail tolerated, rebuild from tree" `Quick
          test_index_torn_tail_and_rebuild;
        Alcotest.test_case "compact rewrites the journal" `Quick
          test_index_compact;
        Alcotest.test_case "progress_of_index = progress" `Quick
          test_progress_of_index;
        Alcotest.test_case "journal path is a directory: open rebuilds"
          `Quick test_journal_is_directory;
        Alcotest.test_case "journal truncations and bit flips" `Quick
          test_journal_corpus;
      ]);
      ("gc", [
        Alcotest.test_case "orphans collected, roots and guard kept" `Quick
          test_gc_orphans_and_roots;
        Alcotest.test_case "failed publish leaves no stray file" `Quick
          test_gc_staged_orphans;
      ]);
      ("fsck", [
        Alcotest.test_case "clean pass, corruption evicted" `Quick
          test_fsck_clean_and_corrupt;
        Alcotest.test_case "index repair both directions" `Quick
          test_fsck_index_repair;
      ]);
      ("entry", [
        Alcotest.test_case "dcecc2 header and check" `Quick test_entry_format;
        Alcotest.test_case "header parse is strict" `Quick
          test_entry_header_strict;
        Alcotest.test_case "truncations and byte flips" `Quick
          test_entry_corpus;
        Alcotest.test_case "dcecc1 entries still read" `Quick
          test_entry_legacy;
        Alcotest.test_case "any one payload word replaced" `Quick
          test_entry_word_replacement;
      ]);
    ]
