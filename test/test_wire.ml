(* The wire formats, pinned byte for byte.

   [wire_golden.jsonl] holds one canonical line per value in [golden]
   below, in the same order: every scenario model arm, workload kind and
   fault component, every serve request and response constructor, and
   both fabric spec kinds. Each line must re-encode byte for byte from
   its value and decode back to that value, and every golden scenario
   must keep its store key, since that key is the content address of a
   stored result. *)

module S = Simnet.Scenario
module F = Simnet.Fault_plan
module P = Serve.Protocol
module T = Serve.Tasks

type value =
  | Scenario of S.t
  | Request of P.request
  | Response of P.response
  | Spec of Fabric.Spec.t

let params = Fluid.Params.default

let custom_params =
  Fluid.Params.make ~w:4. ~pm:0.02 ~qsc:4e6 ~mu:1e8 ~n_flows:8
    ~capacity:1e9 ~q0:1e6 ~buffer:5e6 ~gi:0.5 ~gd:(1. /. 64.) ~ru:1e6 ()

let loss_plan =
  {
    F.none with
    F.seed = 11;
    bcn_pos_loss = Some (F.Bernoulli 0.25);
    bcn_neg_loss = Some (F.Burst { p_enter = 0.1; p_exit = 0.3; p_drop = 0.9 });
    pause_loss = Some (F.Bernoulli 0.05);
  }

let delay_plan =
  {
    F.none with
    F.seed = 3;
    delay = Some { F.fixed = 2e-6; jitter = 1e-6; reorder = true };
  }

let schedule_plan =
  {
    F.none with
    F.capacity = Some (F.Flap_schedule [ (5e-4, 0.5); (1e-3, 1.) ]);
    blackout = Some { F.start = 2e-4; duration = 3e-4; reset = true };
  }

let markov_plan =
  {
    F.none with
    F.seed = 9;
    capacity = Some (F.Flap_markov { mean_up = 4e-4; mean_down = 1e-4; factor = 0.25 });
    blackout = Some { F.start = 1e-4; duration = 1e-4; reset = false };
    delay = Some { F.fixed = 1e-6; jitter = 0.; reorder = false };
  }

let workloads =
  [
    S.Cbr { rate = 1e9 };
    S.Poisson { mean_rate = 5e8; seed = 4 };
    S.On_off { peak_rate = 2e9; mean_on = 1e-4; mean_off = 3e-4; seed = 5 };
    S.Incast
      { senders = 4; burst_frames = 8; period = 5e-4; jitter = 1e-5; seed = 6 };
  ]

let scenarios =
  [
    S.bcn ~t_end:2e-3 params;
    S.with_replicas
      (S.with_seed
         (S.bcn ~t_end:3e-3 ~mode:Simnet.Source.Literal ~sampling:S.Bernoulli
            ~positive_to_untagged:false ~broadcast_feedback:true
            ~enable_bcn:false ~pause_resume:0.8 custom_params)
         7)
      3;
    S.bcn ~t_end:2e-3 ~sample_dt:2e-5 ~initial_rate:1e8 ~control_delay:2e-6
      ~sampling:(S.Timer 1e-4) ~enable_pause:false params;
    S.e2cm ~t_end:3e-3 params;
    S.e2cm ~t_end:3e-3 ~interval:5e-4 custom_params;
    S.fera ~t_end:3e-3 params;
    S.fera ~t_end:3e-3 ~interval:2e-4 ~target_util:0.9 custom_params;
    S.multihop ~t_end:2e-3 ~n_long:2 ~n_short:3 params;
    S.multihop ~t_end:2e-3 ~c_a:8e8 ~c_b:6e8 ~strict_tagging:false
      custom_params;
    S.rcp ~t_end:2e-3 params;
    S.rcp ~t_end:2e-3 ~alpha:0.3 ~beta:0. ~interval:1e-4
      ~variant:Fluid.Rcp.By_load custom_params;
    S.with_workload (S.bcn ~t_end:2e-3 params) workloads;
    S.with_fault (S.bcn ~t_end:2e-3 params) loss_plan;
    S.with_fault (S.bcn ~t_end:2e-3 params) schedule_plan;
    S.with_fault
      (S.with_workload (S.bcn ~t_end:2e-3 ~sampling:S.Bernoulli params)
         [ S.Cbr { rate = 2e8 } ])
      markov_plan;
    S.with_fault (S.e2cm ~t_end:2e-3 params) delay_plan;
    S.with_fault (S.fera ~t_end:2e-3 params) loss_plan;
    S.with_fault (S.rcp ~t_end:2e-3 params)
      { delay_plan with F.capacity = schedule_plan.F.capacity };
  ]

let seeds_spec =
  Fabric.Spec.Seeds
    { base = S.bcn ~t_end:2e-3 ~sampling:S.Bernoulli params; first_seed = 100; count = 5 }

let explicit_spec =
  Fabric.Spec.Explicit
    [| S.bcn ~t_end:2e-3 params; S.rcp ~t_end:2e-3 params; S.fera ~t_end:2e-3 params |]

let tasks =
  [
    T.Run (S.bcn ~t_end:2e-3 params);
    T.Run (S.with_fault (S.rcp ~t_end:2e-3 params) delay_plan);
    T.Sweep { param = "gi"; lo = 0.5; hi = 8.; steps = 12; log_scale = false; buffer = 15e6 };
    T.Sweep { param = "ru"; lo = 1e6; hi = 1.6e7; steps = 5; log_scale = true; buffer = 5e6 };
    T.Margin
      {
        axes = [ "bcn-loss" ];
        flap_period = 2e-3;
        flap_duty = 0.5;
        t_end = 0.02;
        transient = None;
        iters = None;
        seed = 0;
      };
    T.Margin
      {
        axes = [ "bcn-loss"; "flap-depth" ];
        flap_period = 1e-3;
        flap_duty = 0.25;
        t_end = 0.01;
        transient = Some 0.004;
        iters = Some 6;
        seed = 3;
      };
    T.Margin
      {
        axes = [ "delay" ];
        flap_period = 2e-3;
        flap_duty = 0.5;
        t_end = 0.02;
        transient = None;
        iters = Some 4;
        seed = 1;
      };
    T.Region
      {
        param = "gi";
        lo = 0.5;
        hi = 8.;
        param2 = "gd";
        lo2 = 1e-3;
        hi2 = 0.1;
        buffer = 15e6;
        coarse = 8;
        levels = 3;
      };
    T.Batch { spec = seeds_spec; chunk = 16; as_json = false };
    T.Batch { spec = explicit_spec; chunk = 4; as_json = true };
  ]

let requests =
  List.mapi (fun i t -> { P.id = i + 1; command = P.Compute t }) tasks
  @ [
      { P.id = 20; command = P.Stats };
      { P.id = 21; command = P.Subscribe };
      { P.id = 22; command = P.Cancel 3 };
      { P.id = 23; command = P.Shutdown };
    ]

let responses =
  [
    P.Queued { id = 1; key = String.make 64 'a' };
    P.Result { id = 2; warm = true; dedup = false; payload = "t,q\n0,1.5\n" };
    P.Result { id = 3; warm = false; dedup = true; payload = "" };
    P.Error { id = 4; message = "parse error: \"quoted\"\ttab\\" };
    P.Cancelled { id = 5 };
    P.Stats_reply
      { id = 6; metrics = [ ("store.hits", 3.); ("serve.p50_ms", 0.1) ] };
    P.Stats_reply { id = 7; metrics = [] };
    P.Subscribed { id = 8 };
    P.Bye { id = 9 };
    P.Progress { key = String.make 64 'b'; state = "start"; queue_depth = 2 };
    P.Telemetry { metrics = [ ("serve.executed", 12.) ] };
  ]

let golden =
  List.map (fun s -> Scenario s) scenarios
  @ List.map (fun r -> Request r) requests
  @ List.map (fun r -> Response r) responses
  @ [ Spec seeds_spec; Spec explicit_spec ]

let chomp s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

let encode = function
  | Scenario s -> S.encode s
  | Request r -> chomp (P.encode_request ~id:r.P.id r.P.command)
  | Response r -> chomp (P.encode_response r)
  | Spec s -> Fabric.Spec.encode s

let decode value line =
  let as_value wrap = Result.map wrap in
  match value with
  | Scenario _ -> as_value (fun s -> Scenario s) (S.decode line)
  | Request _ -> as_value (fun r -> Request r) (P.parse_request line)
  | Response _ -> as_value (fun r -> Response r) (P.parse_response line)
  | Spec _ -> as_value (fun s -> Spec s) (Fabric.Spec.decode line)

let golden_lines () =
  let path =
    if Sys.file_exists "wire_golden.jsonl" then "wire_golden.jsonl"
    else Filename.concat "test" "wire_golden.jsonl"
  in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let cases () =
  let lines = golden_lines () in
  Alcotest.(check int) "one golden line per value" (List.length golden)
    (List.length lines);
  List.combine golden lines

let test_reencode () =
  List.iteri
    (fun i (v, line) ->
      Alcotest.(check string)
        (Printf.sprintf "line %d re-encodes byte for byte" (i + 1))
        line (encode v))
    (cases ())

let test_decode () =
  List.iteri
    (fun i (v, line) ->
      match decode v line with
      | Error e -> Alcotest.failf "line %d does not decode: %s" (i + 1) e
      | Ok v' ->
          if v' <> v then
            Alcotest.failf "line %d decodes to a different value" (i + 1))
    (cases ())

(* Store.Key.of_scenario of each golden scenario, in order. *)
let pinned_keys =
  [
    "a8bd42b87f0426d7299b94c403aaf75e98692016d3b239280a580b969a94e5db";
    "9038aa09bbd06b6eebb415fcb3f698cf29311cb1d5637b145a75f0f4be19e36e";
    "4dbbc63570dcb8a3e60f81439eaa6281ca7453469f405914cd4951733ec2ef5d";
    "9027ad79c1cc4fa2074f15368e05011e28a52c43122f8c940bede887761d63fe";
    "a282ae2d4bc41b9202f60847ed36cb9e41c643e93492843d598f949852da76e8";
    "2594f977f97e37d2124b529c0a82dec40222793392e586ea0c9724160d000c1e";
    "9f73eb6a552ca1c5091359133de6578718f7f153397d2547b6bd49134ad9bfa1";
    "a23ac1a2f8f98fa03e9fb110e81b331e80586aeb57698813a854e6ced5cb3acb";
    "7d385292fea27b3be8fc676e05b201b72b6e2c234c8c7eeea005bfbb1b32b4d3";
    "d4e4daab3a420bda821849ccd0df2b37207eaf3ae2b53e5649af8ba1841b0c44";
    "f83a47813edb0f682ae7686e7080a1d081b9721ba5b5486ae4b55971feb0bcd1";
    "dfee39b92d1e455fccfb39d537baabf379afa8bf7af59c6c40e97535fae12f27";
    "3f34c07f4af5b44749622270499c45cc05bff69253eaa3a65219e64fe7c337cf";
    "8cf6070bb46766d8ec064d9562364ac849c3a760a07497ff66b104d642aa0dbe";
    "ae442b2b27bfdd4ae31e824ed73b74512ea0337c80e09ef880c02aea0bdde7c9";
    "cb77c4ee2f46f0d6f14a1111e7b8793472d82b5f2d1f34eb906d2b9cc42ac376";
    "6e7b61663b6dade41dc2415e2024286f2637aa4416414d94cc91b5345a09725e";
    "c81954afaddf8f5229e09b5efcbf883d4e77f8d453c0f587d00bef43e06c8e7f";
  ]

let test_store_keys () =
  Alcotest.(check (list string))
    "store keys of the golden scenarios" pinned_keys
    (List.map (fun s -> Store.Key.to_hex (Store.Key.of_scenario s)) scenarios)

(* ---------------- the reader's limits ---------------- *)

module R = Simnet.Json_read

(* Parse [src] within [ceiling] seconds, far below the quadratic or
   unbounded cost the input was built to provoke; a rejection counts. *)
let parse_within ceiling what src =
  let t0 = Unix.gettimeofday () in
  let r = match R.parse src with j -> Ok j | exception R.Bad m -> Error m in
  let dt = Unix.gettimeofday () -. t0 in
  if dt > ceiling then
    Alcotest.failf "%s took %.2f s (ceiling %.2f s)" what dt ceiling;
  r

let wide_object ?(prefix = "k") n =
  let b = Buffer.create (n * (String.length prefix + 11)) in
  Buffer.add_char b '{';
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_string b ", ";
    Printf.bprintf b "\"%s%d\": %d" prefix i i
  done;
  Buffer.add_char b '}';
  Buffer.contents b

(* 40k keys parse in about 0.05 s; the pairwise duplicate check took
   16 s. Keys sharing a 64-byte prefix make every comparison of the
   ordered key set as long as it can be. *)
let test_wide_objects () =
  List.iter
    (fun (prefix, n) ->
      let what =
        Printf.sprintf "%d-key object (%d-byte prefix)" n
          (String.length prefix)
      in
      match parse_within 1.5 what (wide_object ~prefix n) with
      | Ok (R.Jobj fields) ->
          Alcotest.(check int) "every key kept" n (List.length fields)
      | _ -> Alcotest.fail "not an object")
    [ ("k", 10_000); ("k", 40_000); (String.make 64 'k', 10_000) ];
  (* the duplicate is found however late it comes *)
  let src = wide_object 40_000 in
  let dup = String.sub src 0 (String.length src - 1) ^ ", \"k17\": 0}" in
  match parse_within 1.5 "late duplicate" dup with
  | Ok _ -> Alcotest.fail "late duplicate key accepted"
  | Error _ -> ()

(* Rejected at the cap, in microseconds; unbounded, 10 MB took 89 s. *)
let test_deep_nesting () =
  let nested d = String.make d '[' ^ String.make d ']' in
  ignore (R.parse (nested 64));
  (match R.parse (nested 65) with
  | _ -> Alcotest.fail "65 levels accepted"
  | exception R.Bad _ -> ());
  List.iter
    (fun mb ->
      let src = String.make (mb * 1_000_000) '[' in
      match parse_within 0.5 (Printf.sprintf "%d MB of [" mb) src with
      | Ok _ -> Alcotest.fail "unterminated nesting accepted"
      | Error _ -> ())
    [ 1; 10 ]

let test_number_overflow () =
  List.iter
    (fun src ->
      match R.parse src with
      | _ -> Alcotest.failf "%s accepted" src
      | exception R.Bad _ -> ())
    [ "1e400"; "-1e400"; "[1, 1e999]"; "{\"w\": 1e400}" ];
  match R.parse "1e300" with
  | R.Num f -> Alcotest.(check (float 0.)) "large finite number" 1e300 f
  | _ -> Alcotest.fail "1e300 rejected"

(* ---------------- adversarial inputs ---------------- *)

(* The four public decoders: whatever the bytes, an [Ok] or an [Error],
   never an exception. [raising line] names the first that raises. *)
let decoders =
  [
    ("Scenario.decode", fun l -> ignore (S.decode l));
    ("Protocol.parse_request", fun l -> ignore (P.parse_request l));
    ("Protocol.parse_response", fun l -> ignore (P.parse_response l));
    ("Fabric.Spec.decode", fun l -> ignore (Fabric.Spec.decode l));
  ]

let raising line =
  List.find_map
    (fun (name, decode) ->
      match decode line with () -> None | exception _ -> Some name)
    decoders

let check_never_raises what line =
  Option.iter (fun name -> Alcotest.failf "%s raised on %s" name what)
    (raising line)

let rec render = function
  | R.Null -> "null"
  | R.Jbool b -> Telemetry.Json.bool b
  | R.Num f -> Telemetry.Json.float_full f
  | R.Jstr s -> Telemetry.Json.str s
  | R.Jarr xs -> Telemetry.Json.arr (List.map render xs)
  | R.Jobj fs ->
      Telemetry.Json.obj (List.map (fun (k, v) -> (k, render v)) fs)

let replace_nth xs i x = List.mapi (fun i' y -> if i' = i then x else y) xs

(* Every document obtained by replacing one value, at any depth, with
   one of a fixed set of values of every JSON type. *)
let rec type_swaps j =
  let swaps =
    R.[ Null; Jbool true; Num 1.5; Num (-1.); Num 1e15; Jstr "x"; Jarr [];
        Jarr [ Null ]; Jobj [] ]
  in
  let at i v = swaps @ type_swaps v |> List.map (fun v' -> (i, v')) in
  match j with
  | R.Jobj fs ->
      List.concat (List.mapi (fun i (_, v) -> at i v) fs)
      |> List.map (fun (i, v') ->
             R.Jobj (replace_nth fs i (fst (List.nth fs i), v')))
  | R.Jarr xs ->
      List.concat (List.mapi at xs)
      |> List.map (fun (i, x') -> R.Jarr (replace_nth xs i x'))
  | _ -> []

let golden_swaps =
  lazy
    (golden_lines ()
    |> List.concat_map (fun l -> List.map render (type_swaps (R.parse l)))
    |> Array.of_list)

let test_parse_response_non_object () =
  List.iter
    (fun line ->
      match P.parse_response line with
      | Ok _ -> Alcotest.failf "%S decoded as a response" line
      | Error _ -> ())
    [ "[]"; "42"; "\"event\""; "null"; "{}" ]

let test_truncations () =
  List.iteri
    (fun i line ->
      for n = 0 to String.length line - 1 do
        check_never_raises
          (Printf.sprintf "line %d cut at byte %d" (i + 1) n)
          (String.sub line 0 n)
      done)
    (golden_lines ())

let test_type_swaps () =
  let docs = Lazy.force golden_swaps in
  Alcotest.(check bool) "swaps generated" true (Array.length docs > 1000);
  Array.iter (fun doc -> check_never_raises doc doc) docs

let mutation_gen =
  let lines = Array.of_list (golden_lines ()) in
  QCheck.Gen.(
    let* line = oneofa lines in
    let n = String.length line in
    oneof
      [
        map (fun k -> String.sub line 0 k) (int_bound (n - 1));
        (let* k = int_bound (n - 1) in
         let* c = char in
         return (String.mapi (fun i x -> if i = k then c else x) line));
        (let swaps = Lazy.force golden_swaps in
         map (Array.get swaps) (int_bound (Array.length swaps - 1)));
      ])

let qcheck_never_raises =
  QCheck.Test.make ~name:"truncated, flipped, type-swapped: no decoder raises"
    ~count:3000
    (QCheck.make mutation_gen ~print:Fun.id)
    (fun line -> raising line = None)

let () =
  Alcotest.run "wire"
    [
      ( "wire",
        [
          Alcotest.test_case "golden lines re-encode byte for byte" `Quick
            test_reencode;
          Alcotest.test_case "golden lines decode to their values" `Quick
            test_decode;
          Alcotest.test_case "golden scenarios keep their store keys" `Quick
            test_store_keys;
        ] );
      ( "reader",
        [
          Alcotest.test_case "wide objects parse within the ceiling" `Quick
            test_wide_objects;
          Alcotest.test_case "nesting is capped" `Quick test_deep_nesting;
          Alcotest.test_case "overflowing numbers are rejected" `Quick
            test_number_overflow;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "parse_response rejects non-objects" `Quick
            test_parse_response_non_object;
          Alcotest.test_case "every truncation of every golden line" `Quick
            test_truncations;
          Alcotest.test_case "every single-field type swap" `Quick
            test_type_swaps;
          QCheck_alcotest.to_alcotest qcheck_never_raises;
        ] );
    ]
