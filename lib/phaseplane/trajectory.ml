open Numerics

type solver = Ode.solver =
  | Fixed of Ode.method_ * float
  | Adaptive of float * float

type stop_reason = Time_limit | Converged | Left_box

type crossing = { ct : float; cp : Vec2.t }

type t = {
  sol : Ode.solution;
  switch_crossings : crossing list;
  axis_crossings : crossing list;
  stop : stop_reason;
}

let switch_event sigma =
  {
    Ode.ev_name = "switch";
    guard = (fun _t y -> sigma (Vec2.make y.(0) y.(1)));
    dir = Ode.Both;
    terminal = false;
  }

let axis_event =
  {
    Ode.ev_name = "axis";
    guard = (fun _t y -> y.(1));
    dir = Ode.Both;
    terminal = false;
  }

let converge_event r =
  {
    Ode.ev_name = "converged";
    guard = (fun _t y -> sqrt ((y.(0) *. y.(0)) +. (y.(1) *. y.(1))) -. r);
    dir = Ode.Down;
    terminal = true;
  }

let box_event (lo, hi) =
  {
    Ode.ev_name = "left_box";
    guard =
      (fun _t y ->
        (* positive inside the box, negative outside: min distance to walls *)
        let dx = Float.min (y.(0) -. lo.Vec2.x) (hi.Vec2.x -. y.(0)) in
        let dy = Float.min (y.(1) -. lo.Vec2.y) (hi.Vec2.y -. y.(1)) in
        Float.min dx dy);
    dir = Ode.Down;
    terminal = true;
  }

(* The event list in integration order; shared with the batched front
   driver (Front) so both build byte-identical event sets. *)
let events_for ?converge_radius ?box sys =
  let events = [ axis_event ] in
  let events =
    match System.sigma_opt sys with
    | None -> events
    | Some sigma -> switch_event sigma :: events
  in
  let events =
    match converge_radius with
    | Some r -> converge_event r :: events
    | None -> events
  in
  match box with Some b -> box_event b :: events | None -> events

let of_solution (sol : Ode.solution) =
  let pick name =
    List.filter_map
      (fun (oc : Ode.occurrence) ->
        if String.equal oc.oc_name name then
          Some { ct = oc.oc_t; cp = Vec2.of_array oc.oc_y }
        else None)
      sol.Ode.occs
  in
  let stop =
    match sol.Ode.terminated with
    | Some oc when String.equal oc.Ode.oc_name "converged" -> Converged
    | Some oc when String.equal oc.Ode.oc_name "left_box" -> Left_box
    | Some _ | None -> Time_limit
  in
  {
    sol;
    switch_crossings = pick "switch";
    axis_crossings = pick "axis";
    stop;
  }

let integrate ?(solver = Adaptive (1e-9, 1e-12)) ?(t_max = 100.)
    ?converge_radius ?box sys p0 =
  let guards =
    Ode.guards_of_events ~dim:2 (events_for ?converge_radius ?box sys)
  in
  of_solution
    (Ode.solve solver guards Ode.Record (System.to_auto sys) ~t0:0.
       ~t_end:t_max ~y0:(Vec2.to_array p0))

let points tr =
  Array.init (Array.length tr.sol.Ode.ts) (fun i ->
      (tr.sol.Ode.ts.(i), Vec2.of_array tr.sol.Ode.ys.(i)))

let final tr =
  let n = Array.length tr.sol.Ode.ts in
  (tr.sol.Ode.ts.(n - 1), Vec2.of_array tr.sol.Ode.ys.(n - 1))

let x_series tr =
  Series.make tr.sol.Ode.ts (Array.map (fun y -> y.(0)) tr.sol.Ode.ys)

let y_series tr =
  Series.make tr.sol.Ode.ts (Array.map (fun y -> y.(1)) tr.sol.Ode.ys)

let x_max tr =
  Array.fold_left (fun acc y -> Float.max acc y.(0)) neg_infinity tr.sol.Ode.ys

let x_min tr =
  Array.fold_left (fun acc y -> Float.min acc y.(0)) infinity tr.sol.Ode.ys
