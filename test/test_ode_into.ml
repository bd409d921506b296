(* The production ODE tier against the reference tier:
   - [Ode.step_auto_into] matches [Ode.step] bit for bit on
     Euler/Heun/Rk4 across random states and dimensions;
   - [Ode.solve] reproduces [Ode.solve_fixed] / [Ode.solve_adaptive]
     exactly — samples, occurrences, terminal events, step counts and
     right-hand-side call counts — through both sinks;
   - [Ode.step_auto_into] and a streaming [Ode.solve] perform zero
     minor-heap allocation per step (native code). *)

open Numerics

let methods = [ ("euler", Ode.Euler); ("heun", Ode.Heun); ("rk4", Ode.Rk4) ]

(* A deliberately messy autonomous nonlinear field: couples components,
   mixes transcendentals, exercises every bit of the mantissa. *)
let auto_field n : Ode.field_auto =
 fun y dst ->
  for i = 0 to n - 1 do
    let a = y.(i) in
    let b = y.((i + 1) mod n) in
    dst.(i) <- (sin a *. b) -. (0.3 *. a *. a) +. cos (a -. b)
  done

(* The same dynamics as an allocating [Ode.field]. *)
let alloc_field n : Ode.field =
 fun _t y ->
  let dst = Array.make n 0. in
  auto_field n y dst;
  dst

let check_bits name expected got =
  Array.iteri
    (fun i e ->
      Alcotest.(check int64)
        (Printf.sprintf "%s[%d]" name i)
        (Int64.bits_of_float e)
        (Int64.bits_of_float got.(i)))
    expected

let random_state rng n =
  Array.init n (fun _ -> (Random.State.float rng 4.) -. 2.)

let test_step_auto_into_equiv () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun (mname, m) ->
      for n = 1 to 5 do
        let ws = Ode.workspace n in
        for trial = 1 to 20 do
          let y = random_state rng n in
          let h = 1e-4 +. Random.State.float rng 0.1 in
          let expected = Ode.step m (alloc_field n) 0. y h in
          let dst = Array.make n 0. in
          Ode.step_auto_into ws m (auto_field n) y h dst;
          check_bits
            (Printf.sprintf "auto %s n=%d trial=%d" mname n trial)
            expected dst
        done
      done)
    methods

let test_step_into_inplace_alias () =
  (* dst == y is the documented in-place form *)
  let n = 3 in
  let ws = Ode.workspace n in
  let rng = Random.State.make [| 11 |] in
  let y = random_state rng n in
  let expected = Ode.step Ode.Rk4 (alloc_field n) 0. y 0.01 in
  let state = Array.copy y in
  Ode.step_auto_into ws Ode.Rk4 (auto_field n) state 0.01 state;
  check_bits "aliased dst" expected state

(* ---------------- production driver = reference solvers ---------------- *)

let oscillator : Ode.field_auto =
 fun y dst ->
  dst.(0) <- y.(1);
  dst.(1) <- -.y.(0) -. (0.4 *. y.(1))

let axis =
  { Ode.ev_name = "axis"; guard = (fun _t y -> y.(1)); dir = Ode.Both; terminal = false }

let ball =
  {
    Ode.ev_name = "ball";
    guard = (fun _t y -> sqrt ((y.(0) *. y.(0)) +. (y.(1) *. y.(1))) -. 0.2);
    dir = Ode.Down;
    terminal = true;
  }

(* reads the time argument too, so the packed-sample time is checked *)
let falling =
  {
    Ode.ev_name = "falling";
    guard = (fun t y -> y.(0) -. (0.01 *. t));
    dir = Ode.Down;
    terminal = false;
  }

(* (label, dim, field, y0, t_end, events, must terminate) *)
let scenarios =
  [
    ("oscillator, terminal", 2, oscillator, [| 1.; 0. |], 10., [ axis; ball ], true);
    ("oscillator, horizon", 2, oscillator, [| 1.; 0. |], 10., [ axis ], false);
    ("messy 3-d", 3, auto_field 3, [| 0.3; -0.7; 1.1 |], 1., [ falling ], false);
  ]

let solvers =
  [
    ("euler", Ode.Fixed (Ode.Euler, 0.01));
    ("heun", Ode.Fixed (Ode.Heun, 0.01));
    ("rk4", Ode.Fixed (Ode.Rk4, 0.01));
    ("adaptive", Ode.Adaptive (1e-8, 1e-10));
  ]

let counted count (f : Ode.field_auto) : Ode.field_auto =
 fun y dst ->
  incr count;
  f y dst

(* the reference solver for [solver], over the allocating form of [f] *)
let reference solver ~events ~dim f ~t_end ~y0 count =
  let fr _t y =
    incr count;
    let d = Array.make dim 0. in
    f y d;
    d
  in
  match solver with
  | Ode.Fixed (m, h) ->
      Ode.solve_fixed ~method_:m ~events ~h ~t_end fr ~t0:0. ~y0
  | Ode.Adaptive (rtol, atol) ->
      Ode.solve_adaptive ~rtol ~atol ~events ~t_end fr ~t0:0. ~y0

let check_float name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

(* a packed sample [|t; y...|] against a (t, y) pair *)
let check_packed name t y (pt : float array) =
  check_float (name ^ " t") t pt.(0);
  check_bits (name ^ " y") y (Array.sub pt 1 (Array.length y))

let check_occ name (a : Ode.occurrence) (b : Ode.occurrence) =
  Alcotest.(check string) (name ^ " name") a.Ode.oc_name b.Ode.oc_name;
  check_float (name ^ " t") a.Ode.oc_t b.Ode.oc_t;
  check_bits (name ^ " y") a.Ode.oc_y b.Ode.oc_y

let each_case f =
  List.iter
    (fun (slabel, dim, field, y0, t_end, events, terminal) ->
      List.iter
        (fun (mlabel, solver) ->
          let label = slabel ^ " / " ^ mlabel in
          let ref_calls = ref 0 in
          let a = reference solver ~events ~dim field ~t_end ~y0 ref_calls in
          Alcotest.(check bool)
            (label ^ " terminates as designed")
            terminal (a.Ode.terminated <> None);
          Alcotest.(check bool) (label ^ " fires events") true (a.Ode.occs <> []);
          f ~label ~solver ~dim ~field ~y0 ~t_end ~events a !ref_calls)
        solvers)
    scenarios

let test_solve_record () =
  each_case (fun ~label ~solver ~dim ~field ~y0 ~t_end ~events a ref_calls ->
      let calls = ref 0 in
      let b =
        Ode.solve solver
          (Ode.guards_of_events ~dim events)
          Ode.Record (counted calls field) ~t0:0. ~t_end ~y0
      in
      Alcotest.(check int) (label ^ " n_steps") a.Ode.n_steps b.Ode.n_steps;
      Alcotest.(check int) (label ^ " n_rejected") a.Ode.n_rejected b.Ode.n_rejected;
      Alcotest.(check int)
        (label ^ " points")
        (Array.length a.Ode.ts) (Array.length b.Ode.ts);
      Array.iteri
        (fun i t ->
          check_float (Printf.sprintf "%s ts[%d]" label i) t b.Ode.ts.(i);
          check_bits (Printf.sprintf "%s ys[%d]" label i) a.Ode.ys.(i) b.Ode.ys.(i))
        a.Ode.ts;
      Alcotest.(check int)
        (label ^ " occurrences")
        (List.length a.Ode.occs) (List.length b.Ode.occs);
      List.iteri
        (fun i oa -> check_occ (Printf.sprintf "%s occ %d" label i) oa (List.nth b.Ode.occs i))
        a.Ode.occs;
      (match (a.Ode.terminated, b.Ode.terminated) with
      | None, None -> ()
      | Some oa, Some ob -> check_occ (label ^ " terminal") oa ob
      | _ -> Alcotest.fail (label ^ ": terminal event differs"));
      (* the a3 solver ablation prints this count *)
      Alcotest.(check int) (label ^ " RHS calls") ref_calls !calls)

let test_solve_stream () =
  each_case (fun ~label ~solver ~dim ~field ~y0 ~t_end ~events a ref_calls ->
      let calls = ref 0 in
      let points = ref [] and occs = ref [] in
      let gs = Ode.guards_of_events ~dim events in
      Ode.solve solver gs
        (Ode.Stream
           {
             on_point = (fun pt -> points := Array.copy pt :: !points);
             on_event = (fun e pt -> occs := (e, Array.copy pt) :: !occs);
           })
        (counted calls field) ~t0:0. ~t_end ~y0;
      let points = List.rev !points and occs = List.rev !occs in
      Alcotest.(check int)
        (label ^ " points")
        (Array.length a.Ode.ts) (List.length points);
      List.iteri
        (fun i pt ->
          check_packed (Printf.sprintf "%s point %d" label i) a.Ode.ts.(i)
            a.Ode.ys.(i) pt)
        points;
      Alcotest.(check int)
        (label ^ " occurrences")
        (List.length a.Ode.occs) (List.length occs);
      List.iter2
        (fun (oa : Ode.occurrence) (e, pt) ->
          Alcotest.(check string) (label ^ " occ name") oa.Ode.oc_name
            gs.Ode.gs_names.(e);
          check_packed (label ^ " occ " ^ oa.Ode.oc_name) oa.Ode.oc_t oa.Ode.oc_y pt)
        a.Ode.occs occs;
      (* the stream keeps the adaptive trial state instead of evaluating
         the accepted step a second time: 7 Dormand–Prince stages fewer
         per accepted step, nothing else *)
      let saved =
        match solver with
        | Ode.Fixed _ -> 0
        | Ode.Adaptive _ -> 7 * a.Ode.n_steps
      in
      Alcotest.(check int) (label ^ " RHS calls") (ref_calls - saved) !calls)

(* [guards_of_events] evaluates each event's own guard at the packed
   sample [|t; y...|]. *)
let test_adapters () =
  let events = [ axis; ball; falling ] in
  let gs = Ode.guards_of_events ~dim:3 events in
  Alcotest.(check (array string))
    "names" [| "axis"; "ball"; "falling" |] gs.Ode.gs_names;
  Alcotest.(check (array bool)) "terminal" [| false; true; false |]
    gs.Ode.gs_terminal;
  Alcotest.(check bool) "directions" true
    (gs.Ode.gs_dirs = [| Ode.Both; Ode.Down; Ode.Down |]);
  let rng = Random.State.make [| 5 |] in
  let dst = Array.make 3 0. in
  for trial = 1 to 20 do
    let pt = random_state rng 4 in
    List.iteri
      (fun e (ev : Ode.event) ->
        gs.Ode.gs_eval e pt dst;
        check_float
          (Printf.sprintf "%s trial %d" ev.Ode.ev_name trial)
          (ev.Ode.guard pt.(0) (Array.sub pt 1 3))
          dst.(e))
      events
  done

let test_zero_allocation () =
  (* The autonomous in-place step must not touch the minor heap: no float
     crosses the closure boundary, the stage buffers are preallocated and
     the loops unbox. Only meaningful in native code — bytecode boxes
     every float temporary. *)
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
      let ws = Ode.workspace 2 in
      let field (y : float array) (dst : float array) =
        dst.(0) <- y.(1);
        dst.(1) <- -.y.(0)
      in
      let y = [| 1.; 0. |] in
      List.iter
        (fun (mname, m) ->
          (* warm up: fault in closures and any one-time allocation *)
          for _ = 1 to 100 do
            Ode.step_auto_into ws m field y 0.01 y
          done;
          let w0 = Gc.minor_words () in
          for _ = 1 to 10_000 do
            Ode.step_auto_into ws m field y 0.01 y
          done;
          let dw = Gc.minor_words () -. w0 in
          Alcotest.(check (float 0.))
            (mname ^ " minor words per 10k steps")
            0. dw)
        methods

(* A streaming run with a closure-free guard set allocates only its
   fixed per-run buffers: a run 20x longer, with many more steps and
   event localizations, allocates exactly as many words. *)
let test_stream_zero_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
      let guards =
        {
          Ode.gs_names = [| "axis" |];
          gs_dirs = [| Ode.Both |];
          gs_terminal = [| false |];
          gs_eval = (fun _ pt dst -> dst.(0) <- pt.(2));
        }
      in
      let points = ref 0 and events = ref 0 in
      let sink =
        Ode.Stream
          {
            on_point = (fun _ -> incr points);
            on_event = (fun _ _ -> incr events);
          }
      in
      List.iter
        (fun (mname, solver) ->
          let run t_end =
            points := 0;
            events := 0;
            let w0 = Gc.minor_words () in
            Ode.solve solver guards sink oscillator ~t0:0. ~t_end
              ~y0:[| 1.; 0. |];
            Gc.minor_words () -. w0
          in
          ignore (run 1.);
          let w_short = run 1. in
          let p_short = !points in
          let w_long = run 20. in
          Alcotest.(check bool)
            (mname ^ " long run steps more and fires events")
            true
            (!points > p_short + 10 && !events > 3);
          Alcotest.(check (float 0.))
            (mname ^ " minor words independent of run length")
            w_short w_long)
        solvers

let test_workspace_validation () =
  let ws = Ode.workspace 2 in
  Alcotest.(check bool) "undersized workspace rejected" true
    (try
       Ode.step_auto_into ws Ode.Rk4
         (fun _y _dst -> ())
         [| 0.; 0.; 0. |] 0.1 [| 0.; 0.; 0. |];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "workspace dim >= 1" true
    (try
       ignore (Ode.workspace 0);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "ode_into"
    [
      ( "equivalence",
        [
          Alcotest.test_case "step_auto_into = step (bits)" `Quick
            test_step_auto_into_equiv;
          Alcotest.test_case "in-place aliasing" `Quick
            test_step_into_inplace_alias;
          Alcotest.test_case "solve Record = reference (bits)" `Quick
            test_solve_record;
          Alcotest.test_case "solve Stream = reference (bits)" `Quick
            test_solve_stream;
          Alcotest.test_case "adapters" `Quick test_adapters;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "step_auto_into allocates zero" `Quick
            test_zero_allocation;
          Alcotest.test_case "solve Stream allocates zero" `Quick
            test_stream_zero_allocation;
          Alcotest.test_case "workspace validation" `Quick
            test_workspace_validation;
        ] );
    ]
