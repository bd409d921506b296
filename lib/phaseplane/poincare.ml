open Numerics

type section = {
  point_of : float -> Vec2.t;
  coord_of : Vec2.t -> float;
  guard : Vec2.t -> float;
  sec_dir : Ode.direction;
}

let line_section ?(dir = Ode.Both) ~normal () =
  let n = Vec2.norm normal in
  if n = 0. then invalid_arg "Poincare.line_section: zero normal";
  let nu = Vec2.scale (1. /. n) normal in
  let tangent = Vec2.make (-.nu.Vec2.y) nu.Vec2.x in
  {
    point_of = (fun s -> Vec2.scale s tangent);
    coord_of = (fun p -> Vec2.dot p tangent);
    guard = (fun p -> Vec2.dot p nu);
    sec_dir = dir;
  }

type return_ = { s_next : float; time : float; point : Vec2.t }

let solve_with_event solver event ~t_max sys ~y0 =
  Ode.solve solver
    (Ode.guards_of_events ~dim:2 [ event ])
    Ode.Record (System.to_auto sys) ~t0:0. ~t_end:t_max ~y0

let return_map ?(solver = Trajectory.Adaptive (1e-10, 1e-13)) ?(t_max = 1000.)
    sys sec s =
  let p0 = sec.point_of s in
  (* Launching exactly on the section leaves the initial guard at a
     roundoff-sized value of arbitrary sign, which can fire the section
     event spuriously at t ~ 0. Integrate a departure phase first, until
     the guard has visibly left the section, then arm the real event. *)
  let delta = 1e-9 *. (1. +. Float.abs s) in
  let depart =
    {
      Ode.ev_name = "departed";
      guard =
        (fun _t y -> Float.abs (sec.guard (Vec2.make y.(0) y.(1))) -. delta);
      dir = Ode.Up;
      terminal = true;
    }
  in
  let sol0 = solve_with_event solver depart ~t_max sys ~y0:(Vec2.to_array p0) in
  match sol0.Ode.terminated with
  | None -> None
  | Some dep ->
      let event =
        {
          Ode.ev_name = "section";
          guard = (fun _t y -> sec.guard (Vec2.make y.(0) y.(1)));
          dir = sec.sec_dir;
          terminal = true;
        }
      in
      let sol =
        solve_with_event solver event ~t_max:(t_max -. dep.Ode.oc_t) sys
          ~y0:dep.Ode.oc_y
      in
      (match sol.Ode.terminated with
      | Some oc ->
          let p = Vec2.of_array oc.Ode.oc_y in
          Some
            {
              s_next = sec.coord_of p;
              time = dep.Ode.oc_t +. oc.Ode.oc_t;
              point = p;
            }
      | None -> None)

let iterate ?solver ?t_max sys sec ~n s0 =
  let rec go acc s i =
    if i >= n then List.rev acc
    else
      match return_map ?solver ?t_max sys sec s with
      | Some r -> go (r.s_next :: acc) r.s_next (i + 1)
      | None -> List.rev acc
  in
  go [] s0 0

let fixed_points ?solver ?t_max ?(exclude_origin = 1e-9) sys sec ~s_min ~s_max
    ~n =
  if n < 1 then invalid_arg "Poincare.fixed_points: n < 1";
  let displacement s =
    match return_map ?solver ?t_max sys sec s with
    | Some r -> Some (r.s_next -. s)
    | None -> None
  in
  let h = (s_max -. s_min) /. float_of_int n in
  let acc = ref [] in
  let prev = ref None in
  for i = 0 to n do
    let s = s_min +. (h *. float_of_int i) in
    if Float.abs s >= exclude_origin then begin
      let d = displacement s in
      (match (!prev, d) with
      | Some (s0, d0), Some d1 when d0 *. d1 < 0. ->
          (* refine with Brent on the displacement *)
          let g x =
            match displacement x with
            | Some v -> v
            | None -> nan
          in
          (try
             let root = Roots.brent ~tol:1e-10 g s0 s in
             if Float.abs root >= exclude_origin then acc := root :: !acc
           with Roots.No_bracket _ | Failure _ -> ())
      | _ -> ());
      match d with Some d1 -> prev := Some (s, d1) | None -> prev := None
    end
    else prev := None
  done;
  List.rev !acc

let derivative ?solver ?t_max ?(ds = 1e-6) sys sec s =
  let at x =
    Option.map (fun r -> r.s_next) (return_map ?solver ?t_max sys sec x)
  in
  let step = ds *. (1. +. Float.abs s) in
  match (at (s +. step), at (s -. step)) with
  | Some a, Some b -> Some ((a -. b) /. (2. *. step))
  | _ -> None
