open Numerics

type verdict = {
  case : Cases.case;
  analytic_max : float option;
  analytic_min : float option;
  numeric_max : float;
  numeric_min : float;
  overflow_margin : float;
  underflow_margin : float;
  strongly_stable : bool;
  analytic_strongly_stable : bool option;
}

(* A characteristic time scale per region: the rotation period for spiral
   regions, a few slow time constants for node regions. *)
let region_time_scale p region =
  match Cases.shape_of p region with
  | Cases.Spiral_shape ->
      let c = Spiral.of_region p region in
      Spiral.period c
  | Cases.Node_shape ->
      let c = Node.of_region p region in
      4. /. Float.abs (Node.slow_slope c)
  | Cases.Critical_shape -> (
      match Linearized.eigenvalues p region with
      | Mat2.Real_pair (l1, _) -> 4. /. Float.abs l1
      | Mat2.Complex_pair { re; _ } -> 4. /. Float.abs re)

let default_horizon p =
  12.
  *. Float.max
       (region_time_scale p Linearized.Increase)
       (region_time_scale p Linearized.Decrease)

(* A streaming fold over the samples [Trajectory.integrate] would record
   (the [Stream] sink hands over the same bits), with nothing localized:
   - [x max] / [x min] are the [Trajectory.x_max] / [x_min] folds;
   - a switching fires between consecutive samples by [Ode.fires Both]
     on sigma = -(x + k·y), the bits of [Model]'s [sw] guard;
   - the tail min from switching n starts at the sample ending the step
     k that fired it, seeded by that sample then kept on strict [<]
     ([Series.argmin]). A recorded trajectory's bisected crossing time
     [t_{k-1} +. s·h] lies in (t_{k-1}, t_k], so [Series.tail_from] at
     it gives the same tail, unless it rounds to [t_{k-1}]. The
     bisection keeps s above about 2.5e-14 (s = 1e-15 only when the
     guard is exactly 0 there), so that takes a switching root within
     about 1e-13 of a step, as a fraction of it, from the step's
     start. *)
let first_excursion ?t_max ?(solver = Ode.Adaptive (1e-9, 1e-12)) p =
  let t_max = match t_max with Some t -> t | None -> default_horizon p in
  let k = Params.k p in
  (* fold state: 0 = x max, 1 = x min, 2 = sigma at the previous sample
     (nan before the first), 3 = switchings so far, 4 = min x from
     switching 1, 5 = min x from switching 2 *)
  let acc = [| neg_infinity; infinity; nan; 0.; nan; nan |] in
  let on_point pt =
    let x = pt.(1) in
    acc.(0) <- Float.max acc.(0) x;
    acc.(1) <- Float.min acc.(1) x;
    let n = acc.(3) in
    if n >= 1. && x < acc.(4) then acc.(4) <- x;
    if n >= 2. && x < acc.(5) then acc.(5) <- x;
    let gp = acc.(2) in
    let gn = -.(x +. (k *. pt.(2))) in
    if gp <> 0. && gp *. gn <= 0. && gn <> gp then begin
      acc.(3) <- n +. 1.;
      if n = 0. then acc.(4) <- x else if n = 1. then acc.(5) <- x
    end;
    acc.(2) <- gn
  in
  Ode.solve solver
    (Ode.guards_of_events ~dim:2 [])
    (Ode.Stream { on_point; on_event = (fun _ _ -> ()) })
    (Phaseplane.System.to_auto (Model.normalized_system p))
    ~t0:0. ~t_end:t_max
    ~y0:(Vec2.to_array (Model.start_point p));
  let min_x =
    if acc.(3) >= 2. then acc.(5) else if acc.(3) = 1. then acc.(4) else acc.(1)
  in
  (acc.(0), min_x)

let proposition2 p =
  match Cases.classify p with
  | Cases.Case1 -> (
      match Flowmap.excursions p with
      | Some mx, Some mn ->
          Some (mx < p.Params.buffer -. p.Params.q0 && mn > -.p.Params.q0)
      | Some mx, None -> Some (mx < p.Params.buffer -. p.Params.q0)
      | None, _ -> Some true)
  | Cases.Case2 | Cases.Case3 | Cases.Case4 | Cases.Case5 -> None

let proposition3 p =
  match Cases.classify p with
  | Cases.Case2 -> (
      match Flowmap.first_overshoot p with
      | Some mx -> Some (mx < p.Params.buffer -. p.Params.q0)
      | None -> Some true)
  | Cases.Case1 | Cases.Case3 | Cases.Case4 | Cases.Case5 -> None

let proposition4 p =
  match Cases.classify p with
  | Cases.Case3 | Cases.Case4 | Cases.Case5 -> Some true
  | Cases.Case1 | Cases.Case2 -> None

let analyze ?t_max ?solver p =
  let case = Cases.classify p in
  let analytic_max, analytic_min = Flowmap.excursions p in
  let numeric_max, numeric_min = first_excursion ?t_max ?solver p in
  let overflow_margin = p.Params.buffer -. p.Params.q0 -. numeric_max in
  let underflow_margin = numeric_min +. p.Params.q0 in
  let analytic_strongly_stable =
    match case with
    | Cases.Case1 -> proposition2 p
    | Cases.Case2 -> proposition3 p
    | Cases.Case3 | Cases.Case4 | Cases.Case5 -> proposition4 p
  in
  {
    case;
    analytic_max;
    analytic_min;
    numeric_max;
    numeric_min;
    overflow_margin;
    underflow_margin;
    strongly_stable = overflow_margin > 0. && underflow_margin > 0.;
    analytic_strongly_stable;
  }

let pp_verdict ppf v =
  let pp_opt ppf = function
    | Some x -> Format.fprintf ppf "%g" x
    | None -> Format.pp_print_string ppf "n/a"
  in
  Format.fprintf ppf
    "@[<v>%a@,\
     analytic first overshoot max1(x) = %a, undershoot min1(x) = %a@,\
     numeric  first excursion  max(x) = %g, min(x) = %g@,\
     overflow margin = %g bit, underflow margin = %g bit@,\
     strongly stable (numeric): %b; (Propositions 2-4): %a@]"
    Cases.pp_case v.case pp_opt v.analytic_max pp_opt v.analytic_min
    v.numeric_max v.numeric_min v.overflow_margin v.underflow_margin
    v.strongly_stable
    (fun ppf -> function
      | Some b -> Format.fprintf ppf "%b" b
      | None -> Format.pp_print_string ppf "n/a")
    v.analytic_strongly_stable
