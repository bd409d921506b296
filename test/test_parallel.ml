(* The domain pool: order preservation, exception propagation, the
   sequential fallback, determinism of the chunked array map, and the
   end-to-end guarantee that parallel figure regeneration produces text
   and CSV bytes identical to a serial run. Run under both DCECC_JOBS=1
   and DCECC_JOBS=N by the @runtest-fast alias so the fallback path
   stays covered. *)

let pool_sizes = [ 1; 2; 4 ]

let with_each_size f =
  List.iter (fun s -> Parallel.Pool.with_pool ~size:s f) pool_sizes

(* ---------------- unit tests ---------------- *)

let test_map_order () =
  with_each_size (fun pool ->
      let xs = List.init 100 Fun.id in
      let expected = List.map (fun x -> (x * x) + 1) xs in
      Alcotest.(check (list int))
        (Printf.sprintf "size=%d" (Parallel.Pool.size pool))
        expected
        (Parallel.Pool.map pool (fun x -> (x * x) + 1) xs))

let test_map_empty_and_singleton () =
  with_each_size (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Parallel.Pool.map pool succ []);
      Alcotest.(check (list int)) "singleton" [ 8 ]
        (Parallel.Pool.map pool succ [ 7 ]))

exception Boom of int

let test_exception_propagation () =
  with_each_size (fun pool ->
      let raised =
        try
          ignore
            (Parallel.Pool.map pool
               (fun x -> if x mod 3 = 0 then raise (Boom x) else x)
               (List.init 20 (fun i -> i + 1)));
          None
        with Boom x -> Some x
      in
      (* the earliest failing input (by position) wins: 3 *)
      Alcotest.(check (option int))
        (Printf.sprintf "size=%d" (Parallel.Pool.size pool))
        (Some 3) raised)

let test_pool_survives_exception () =
  Parallel.Pool.with_pool ~size:2 (fun pool ->
      (try ignore (Parallel.Pool.map pool (fun _ -> failwith "x") [ 1 ])
       with Failure _ -> ());
      Alcotest.(check (list int)) "usable after failure" [ 2; 3 ]
        (Parallel.Pool.map pool succ [ 1; 2 ]))

let test_map_reduce () =
  with_each_size (fun pool ->
      let xs = List.init 50 (fun i -> i + 1) in
      (* non-commutative combine: string concat in input order *)
      let got =
        Parallel.Pool.map_reduce pool
          ~map:(fun x -> string_of_int x)
          ~combine:(fun acc s -> acc ^ "," ^ s)
          ~init:"" xs
      in
      let expected =
        List.fold_left (fun acc x -> acc ^ "," ^ string_of_int x) "" xs
      in
      Alcotest.(check string)
        (Printf.sprintf "size=%d" (Parallel.Pool.size pool))
        expected got)

let test_parmap_array () =
  with_each_size (fun pool ->
      List.iter
        (fun n ->
          let arr = Array.init n (fun i -> i) in
          let expected = Array.map (fun x -> (2 * x) - 7) arr in
          let got = Parallel.Pool.parmap_array pool (fun x -> (2 * x) - 7) arr in
          Alcotest.(check (array int))
            (Printf.sprintf "size=%d n=%d" (Parallel.Pool.size pool) n)
            expected got;
          (* explicit chunk sizes, including ones that don't divide n *)
          List.iter
            (fun chunk ->
              Alcotest.(check (array int))
                (Printf.sprintf "size=%d n=%d chunk=%d"
                   (Parallel.Pool.size pool) n chunk)
                expected
                (Parallel.Pool.parmap_array ~chunk pool
                   (fun x -> (2 * x) - 7)
                   arr))
            [ 1; 3; 64 ])
        [ 0; 1; 17; 100 ])

let test_default_size_env () =
  (* DCECC_JOBS governs the default; the @runtest-fast alias runs this
     binary under 1 and 4 *)
  match Sys.getenv_opt "DCECC_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 ->
          Alcotest.(check int) "default_size = DCECC_JOBS" n
            (Parallel.Pool.default_size ())
      | Some _ | None -> ())
  | None ->
      Alcotest.(check bool) "default_size >= 1" true
        (Parallel.Pool.default_size () >= 1)

let test_create_validation () =
  Alcotest.(check bool) "size 0 rejected" true
    (try
       ignore (Parallel.Pool.create ~size:0 ());
       false
     with Invalid_argument _ -> true)

(* ---------------- qcheck properties ---------------- *)

let prop_map_is_list_map =
  QCheck.Test.make ~count:30 ~name:"Pool.map f = List.map f (any size)"
    QCheck.(pair (small_list small_int) (int_range 1 4))
    (fun (xs, size) ->
      Parallel.Pool.with_pool ~size (fun pool ->
          Parallel.Pool.map pool (fun x -> (3 * x) - 1) xs
          = List.map (fun x -> (3 * x) - 1) xs))

let prop_parmap_is_array_map =
  QCheck.Test.make ~count:30 ~name:"Pool.parmap_array = Array.map (any size)"
    QCheck.(pair (array_of_size Gen.(0 -- 60) small_int) (int_range 1 4))
    (fun (arr, size) ->
      Parallel.Pool.with_pool ~size (fun pool ->
          Parallel.Pool.parmap_array pool (fun x -> x * x) arr
          = Array.map (fun x -> x * x) arr))

(* ---------------- figures: parallel = serial ---------------- *)

let with_temp_dir f =
  let dir = Filename.temp_dir "dcecc-parallel-test" "" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_figures_parallel_equals_serial () =
  (* the end-to-end determinism guarantee: figure text and CSV bytes do
     not depend on jobs. jobs:2 keeps the cost bounded on small machines
     while still exercising cross-domain fan-out *)
  with_temp_dir @@ fun dir_s ->
  with_temp_dir @@ fun dir_p ->
  let serial = Dcecc_core.Figures.all ~jobs:1 ~out:dir_s () in
  let parallel = Dcecc_core.Figures.all ~jobs:2 ~out:dir_p () in
  Alcotest.(check int) "experiment count" (List.length serial)
    (List.length parallel);
  List.iter2
    (fun (id_s, text_s) (id_p, text_p) ->
      Alcotest.(check string) "id order" id_s id_p;
      Alcotest.(check string) (id_s ^ " text") text_s text_p)
    serial parallel;
  let files dir = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let names = files dir_s in
  Alcotest.(check bool) "CSVs written" true (names <> []);
  Alcotest.(check (list string)) "CSV names" names (files dir_p);
  List.iter
    (fun name ->
      Alcotest.(check string) (name ^ " bytes")
        (read_file (Filename.concat dir_s name))
        (read_file (Filename.concat dir_p name)))
    names

(* ---------------- fan_out ---------------- *)

let test_fan_out_empty () =
  Alcotest.(check (array int)) "empty input" [||]
    (Parallel.Pool.fan_out ~what:"t" succ [||]);
  (* no lanes are resolved for an empty input, so even jobs = 0 is fine *)
  Alcotest.(check (array int)) "empty input, jobs = 0" [||]
    (Parallel.Pool.fan_out ~jobs:0 ~what:"t" succ [||])

let test_fan_out_jobs_check () =
  Alcotest.check_raises "jobs < 1"
    (Invalid_argument "Model.run_many: jobs < 1") (fun () ->
      ignore (Parallel.Pool.fan_out ~jobs:0 ~what:"Model.run_many" succ [| 1 |]))

(* jobs 1 and 4 agree and keep input order; the default-jobs call
   follows DCECC_JOBS, which @runtest-fast sets to 1 and to 4 *)
let test_fan_out_order () =
  let xs = Array.init 37 Fun.id in
  let f x = Printf.sprintf "%d:%d" x (x * x) in
  let expected = Array.map f xs in
  List.iter
    (fun (label, got) -> Alcotest.(check (array string)) label expected got)
    [
      ("jobs 1", Parallel.Pool.fan_out ~jobs:1 ~what:"t" f xs);
      ("jobs 4", Parallel.Pool.fan_out ~jobs:4 ~what:"t" f xs);
      ("default jobs", Parallel.Pool.fan_out ~what:"t" f xs);
    ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "map edge cases" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "pool survives exception" `Quick
            test_pool_survives_exception;
          Alcotest.test_case "map_reduce in order" `Quick test_map_reduce;
          Alcotest.test_case "parmap_array chunking" `Quick test_parmap_array;
          Alcotest.test_case "DCECC_JOBS sizing" `Quick test_default_size_env;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          QCheck_alcotest.to_alcotest prop_map_is_list_map;
          QCheck_alcotest.to_alcotest prop_parmap_is_array_map;
        ] );
      ( "fan_out",
        [
          Alcotest.test_case "empty input" `Quick test_fan_out_empty;
          Alcotest.test_case "jobs < 1 message" `Quick test_fan_out_jobs_check;
          Alcotest.test_case "jobs 1 = jobs 4, order kept" `Quick
            test_fan_out_order;
        ] );
      ( "figures",
        [
          Alcotest.test_case "parallel output = serial output" `Slow
            test_figures_parallel_equals_serial;
        ] );
    ]
