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

(* Tolerances of the verdict's Dormand–Prince run. *)
let rtol = 1e-9
let atol = 1e-12

(* [Float.max acc x] and [Float.min acc x] as the comparisons they stand
   for. The stdlib versions call [caml_signbit] twice, and under the
   Closure middle end each call spills every live float register; the
   tie and NaN cases, where the sign of a zero or which NaN survives is
   decided, keep the stdlib call, which the running extrema reach only
   at an exact tie or a NaN. *)
let[@inline] fmax acc x =
  if x > acc then x else if acc > x then acc else Float.max acc x

let[@inline] fmin acc x =
  if x < acc then x else if acc < x then acc else Float.min acc x

(* [Float.max a b] for operands that are never [-0.] and whose NaN only
   has to stay a NaN (the controller maps a non-finite ratio to
   [infinity] whatever its bits) *)
let[@inline] max_nn a b = if a > b then a else if b >= a then b else a +. b

(* The verdict kernel: [Ode.solve (Adaptive (rtol, atol))] with no
   events and a streaming sink, written out for the 2-D system (8) with
   the fold below inline, the state in local floats and no call but the
   controller's two [**] (and [fmax]/[fmin]'s tie branch). Every stage, the error and scale reductions,
   the controller ([h_min], [max_steps], grow and shrink) and the
   end-of-horizon test are [Ode.dopri5_core]'s and [Ode.solve]'s
   expressions in their order, so each accepted sample carries the
   solver's bits. The one evaluation saved per step is FSAL: the
   accepted step's last stage is [accel] at its end state, which is the
   next step's first stage.

   The fold, over every accepted sample from [(−q0, 0)]:
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
let first_excursion ?t_max p =
  let t_end = match t_max with Some t -> t | None -> default_horizon p in
  if not (Float.is_finite t_end) then
    invalid_arg "Stability.first_excursion: t_max must be finite";
  if t_end <= 0. then invalid_arg "Stability.first_excursion: t_max <= 0";
  let f = Model.field p in
  let k = f.Model.k in
  let h_min = Ode.h_min in
  let t_stop = 1e-15 *. (1. +. Float.abs t_end) in
  (* state, its slope (the next step's first stage), time and
     controller *)
  let x = ref (-.p.Params.q0) and y = ref 0. in
  let dx = ref !y and dy = ref (Model.accel f !x !y) in
  let t = ref 0. in
  let h_cur = ref t_end and h_suggest = ref (t_end /. 100.) in
  let budget = ref Ode.max_steps in
  (* fold: x max, x min, sigma at the previous sample (nan before the
     first), switchings so far, min x from switching 1 and from 2 *)
  let mx = ref neg_infinity and mn = ref infinity in
  let g_prev = ref nan and n_sw = ref 0 in
  let tail1 = ref nan and tail2 = ref nan in
  let running = ref true in
  while !running do
    (let xv = !x in
     mx := fmax !mx xv;
     mn := fmin !mn xv;
     let n = !n_sw in
     if n >= 1 && xv < !tail1 then tail1 := xv;
     if n >= 2 && xv < !tail2 then tail2 := xv;
     let gp = !g_prev in
     let gn = -.(xv +. (k *. !y)) in
     if gp <> 0. && gp *. gn <= 0. && gn <> gp then begin
       n_sw := n + 1;
       if n = 0 then tail1 := xv else if n = 1 then tail2 := xv
     end;
     g_prev := gn);
    (* step until one is accepted or the horizon is reached *)
    let accepted = ref false in
    while !running && not !accepted do
      let remaining = t_end -. !t in
      if remaining <= t_stop then running := false
      else begin
        let h_try0 = if remaining > !h_cur then !h_cur else remaining in
        decr budget;
        if !budget <= 0 then
          failwith "Stability.first_excursion: max_steps exhausted";
        let h_try =
          if !h_suggest > h_try0 then h_try0 else !h_suggest
        in
        let h = if h_min > h_try then h_min else h_try in
        let x0 = !x and y0 = !y and k1x = !dx and k1y = !dy in
        let sx = x0 +. (h *. (1. /. 5.) *. k1x)
        and sy = y0 +. (h *. (1. /. 5.) *. k1y) in
        let k2x = sy and k2y = Model.accel f sx sy in
        let sx = x0 +. (h *. (3. /. 40.) *. k1x) +. (h *. (9. /. 40.) *. k2x)
        and sy =
          y0 +. (h *. (3. /. 40.) *. k1y) +. (h *. (9. /. 40.) *. k2y)
        in
        let k3x = sy and k3y = Model.accel f sx sy in
        let sx =
          x0
          +. (h *. (44. /. 45.) *. k1x)
          +. (h *. (-56. /. 15.) *. k2x)
          +. (h *. (32. /. 9.) *. k3x)
        and sy =
          y0
          +. (h *. (44. /. 45.) *. k1y)
          +. (h *. (-56. /. 15.) *. k2y)
          +. (h *. (32. /. 9.) *. k3y)
        in
        let k4x = sy and k4y = Model.accel f sx sy in
        let sx =
          x0
          +. (h *. (19372. /. 6561.) *. k1x)
          +. (h *. (-25360. /. 2187.) *. k2x)
          +. (h *. (64448. /. 6561.) *. k3x)
          +. (h *. (-212. /. 729.) *. k4x)
        and sy =
          y0
          +. (h *. (19372. /. 6561.) *. k1y)
          +. (h *. (-25360. /. 2187.) *. k2y)
          +. (h *. (64448. /. 6561.) *. k3y)
          +. (h *. (-212. /. 729.) *. k4y)
        in
        let k5x = sy and k5y = Model.accel f sx sy in
        let sx =
          x0
          +. (h *. (9017. /. 3168.) *. k1x)
          +. (h *. (-355. /. 33.) *. k2x)
          +. (h *. (46732. /. 5247.) *. k3x)
          +. (h *. (49. /. 176.) *. k4x)
          +. (h *. (-5103. /. 18656.) *. k5x)
        and sy =
          y0
          +. (h *. (9017. /. 3168.) *. k1y)
          +. (h *. (-355. /. 33.) *. k2y)
          +. (h *. (46732. /. 5247.) *. k3y)
          +. (h *. (49. /. 176.) *. k4y)
          +. (h *. (-5103. /. 18656.) *. k5y)
        in
        let k6x = sy and k6y = Model.accel f sx sy in
        let x5 =
          x0
          +. (h
              *. ((35. /. 384. *. k1x)
                  +. (500. /. 1113. *. k3x)
                  +. (125. /. 192. *. k4x)
                  +. (-2187. /. 6784. *. k5x)
                  +. (11. /. 84. *. k6x)))
        and y5 =
          y0
          +. (h
              *. ((35. /. 384. *. k1y)
                  +. (500. /. 1113. *. k3y)
                  +. (125. /. 192. *. k4y)
                  +. (-2187. /. 6784. *. k5y)
                  +. (11. /. 84. *. k6y)))
        in
        let k7x = y5 and k7y = Model.accel f x5 y5 in
        let x4 =
          x0
          +. (h
              *. ((5179. /. 57600. *. k1x)
                  +. (7571. /. 16695. *. k3x)
                  +. (393. /. 640. *. k4x)
                  +. (-92097. /. 339200. *. k5x)
                  +. (187. /. 2100. *. k6x)
                  +. (1. /. 40. *. k7x)))
        and y4 =
          y0
          +. (h
              *. ((5179. /. 57600. *. k1y)
                  +. (7571. /. 16695. *. k3y)
                  +. (393. /. 640. *. k4y)
                  +. (-92097. /. 339200. *. k5y)
                  +. (187. /. 2100. *. k6y)
                  +. (1. /. 40. *. k7y)))
        in
        (* [Float.max] from [0.] over both components, then the scale *)
        let err =
          max_nn (Float.abs (x5 -. x4)) (Float.abs (y5 -. y4))
        in
        let scale =
          max_nn
            (max_nn atol
               (rtol *. max_nn (Float.abs x0) (Float.abs x5)))
            (rtol *. max_nn (Float.abs y0) (Float.abs y5))
        in
        let ratio = err /. scale in
        let ratio = if Float.is_finite ratio then ratio else infinity in
        if ratio <= 1. || h <= h_min *. 1.0001 then begin
          let grow =
            if ratio <= 0. then 5.
            else
              let g = 0.9 *. (ratio ** -0.2) in
              if g > 5. then 5. else g
          in
          let h_next = h *. if grow > 1. then grow else 1. in
          h_suggest := if h_next > t_end then t_end else h_next;
          h_cur := !h_suggest;
          t := !t +. h;
          x := x5;
          y := y5;
          dx := k7x;
          dy := k7y;
          accepted := true
        end
        else begin
          let shrink =
            let s = 0.9 *. (ratio ** -0.25) in
            if s > 0.1 then s else 0.1
          in
          let h_new = h *. shrink in
          let h_new = if h_new > h_min then h_new else h_min in
          if h_new <= h_min && h <= h_min *. 1.0001 then
            failwith "Stability.first_excursion: step size underflow";
          h_suggest := h_new;
          h_cur := h_new
        end
      end
    done
  done;
  let min_x =
    if !n_sw >= 2 then !tail2 else if !n_sw = 1 then !tail1 else !mn
  in
  (!mx, min_x)

(* Propositions 2 and 3 over the semi-analytic extrema *)
let prop2 p = function
  | Some mx, Some mn ->
      mx < p.Params.buffer -. p.Params.q0 && mn > -.p.Params.q0
  | Some mx, None -> mx < p.Params.buffer -. p.Params.q0
  | None, _ -> true

let prop3 p = function
  | Some mx -> mx < p.Params.buffer -. p.Params.q0
  | None -> true

let proposition2 p =
  match Cases.classify p with
  | Cases.Case1 -> Some (prop2 p (Flowmap.excursions p))
  | Cases.Case2 | Cases.Case3 | Cases.Case4 | Cases.Case5 -> None

let proposition3 p =
  match Cases.classify p with
  | Cases.Case2 -> Some (prop3 p (Flowmap.first_overshoot p))
  | Cases.Case1 | Cases.Case3 | Cases.Case4 | Cases.Case5 -> None

let proposition4 p =
  match Cases.classify p with
  | Cases.Case3 | Cases.Case4 | Cases.Case5 -> Some true
  | Cases.Case1 | Cases.Case2 -> None

(* One classification and one flow-map trace: [Flowmap.excursions]'
   overshoot is [Flowmap.first_overshoot]. *)
let analyze ?t_max p =
  let case = Cases.classify p in
  let ((analytic_max, analytic_min) as extrema) = Flowmap.excursions p in
  let numeric_max, numeric_min = first_excursion ?t_max p in
  let overflow_margin = p.Params.buffer -. p.Params.q0 -. numeric_max in
  let underflow_margin = numeric_min +. p.Params.q0 in
  let analytic_strongly_stable =
    match case with
    | Cases.Case1 -> Some (prop2 p extrema)
    | Cases.Case2 -> Some (prop3 p analytic_max)
    | Cases.Case3 | Cases.Case4 | Cases.Case5 -> Some true
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
