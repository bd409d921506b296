type field = float -> float array -> float array
type method_ = Euler | Heun | Rk4
type direction = Up | Down | Both

type event = {
  ev_name : string;
  guard : float -> float array -> float;
  dir : direction;
  terminal : bool;
}

type occurrence = { oc_name : string; oc_t : float; oc_y : float array }

(* Step monitor: a telemetry hook invoked on every accepted / rejected
   step. Kept as a plain callback record (rather than depending on
   lib/telemetry, which sits above numerics) so the solvers stay at the
   bottom of the dependency stack; Telemetry.Probe.ode_monitor adapts a
   probe into this shape. The default (no monitor) costs one pattern
   match per step and allocates nothing. *)
type monitor = {
  on_step : float -> float -> unit;  (* t_end_of_step, h_accepted *)
  on_reject : float -> float -> unit;  (* t, h_rejected *)
}

type solution = {
  ts : float array;
  ys : float array array;
  occs : occurrence list;
  terminated : occurrence option;
  n_steps : int;
  n_rejected : int;
}

type solver = Fixed of method_ * float | Adaptive of float * float

(* Input validation shared by every driver. A NaN step never satisfies
   the end-of-horizon test ([Float.min] propagates it), so the loop
   would append NaN points until memory runs out; a NaN horizon silently
   yields a one-point solution. Both are rejected up front. A fixed-step
   run with [t_end <= t0] returns the initial point; an adaptive one
   raises. *)
let validate name solver ~t0 ~t_end =
  if not (Float.is_finite t0 && Float.is_finite t_end) then
    invalid_arg (name ^ ": t0 and t_end must be finite");
  match solver with
  | Fixed (_, h) ->
      if not (h > 0. && Float.is_finite h) then
        invalid_arg (name ^ ": h must be finite and > 0")
  | Adaptive _ -> if t_end <= t0 then invalid_arg (name ^ ": t_end <= t0")

(* Step-size controller constants of both adaptive drivers. *)
let h_min = 1e-14
let max_steps = 2_000_000

let axpy out a x y =
  (* out.(i) = y.(i) + a * x.(i) *)
  for i = 0 to Array.length y - 1 do
    out.(i) <- y.(i) +. (a *. x.(i))
  done

(* === reference tier =======================================================

   Plain allocating solvers: every step returns fresh arrays and the
   driver is generic over closures. They are the oracle the production
   tier below is tested against bit for bit, and the solvers behind
   [convergence_order] and the telemetry hooks. *)

let step m f t y h =
  let n = Array.length y in
  match m with
  | Euler ->
      let k1 = f t y in
      let out = Array.make n 0. in
      axpy out h k1 y;
      out
  | Heun ->
      let k1 = f t y in
      let tmp = Array.make n 0. in
      axpy tmp h k1 y;
      let k2 = f (t +. h) tmp in
      Array.init n (fun i -> y.(i) +. (h /. 2. *. (k1.(i) +. k2.(i))))
  | Rk4 ->
      let tmp = Array.make n 0. in
      let k1 = f t y in
      axpy tmp (h /. 2.) k1 y;
      let k2 = f (t +. (h /. 2.)) tmp in
      axpy tmp (h /. 2.) k2 y;
      let k3 = f (t +. (h /. 2.)) tmp in
      axpy tmp h k3 y;
      let k4 = f (t +. h) tmp in
      Array.init n (fun i ->
          y.(i) +. (h /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i))))

(* --- event helpers ------------------------------------------------------ *)

let fires dir g_prev g_next =
  if g_prev = 0. then false
  else
    match dir with
    | Up -> g_prev < 0. && g_next >= 0.
    | Down -> g_prev > 0. && g_next <= 0.
    | Both -> g_prev *. g_next <= 0. && g_next <> g_prev

(* Localize the event inside the step [t, t+h] starting at state [y], using
   the provided single-step function to evaluate intermediate states.
   Returns (t_event, y_event). *)
let localize step_fn ev t y h =
  let state_at_frac s = step_fn t y (s *. h) in
  let phi s =
    let ys = state_at_frac s in
    ev.guard (t +. (s *. h)) ys
  in
  let s_root =
    try Roots.bisect ~tol:1e-13 ~max_iter:100 phi 1e-15 1.
    with Roots.No_bracket _ -> 1.
  in
  let y_ev = state_at_frac s_root in
  (t +. (s_root *. h), y_ev)

(* Allocation-free localization: same bisection, but intermediate states
   are written into a caller-provided scratch buffer instead of being
   allocated per evaluation — the localizer of lock-step front drivers
   that live outside this module. Bit-identical to [localize] when the
   in-place step function writes the same bits the allocating one
   returns. Only the event state itself is allocated (the caller keeps
   it). *)
let localize_into (single_into : float -> float array -> float -> float array -> unit)
    ev t y h scratch =
  let phi s =
    single_into t y (s *. h) scratch;
    ev.guard (t +. (s *. h)) scratch
  in
  let s_root =
    try Roots.bisect ~tol:1e-13 ~max_iter:100 phi 1e-15 1.
    with Roots.No_bracket _ -> 1.
  in
  single_into t y (s_root *. h) scratch;
  (t +. (s_root *. h), Array.copy scratch)

(* --- generic driver ------------------------------------------------------ *)

type driver_step = float -> float array -> float -> float array
(* [driver_step t y h] = state after one step of size h from (t, y).
   Must return a freshly allocated array (never a reused buffer): the
   driver stores the result in the solution without copying. *)

let run_driver ~(single : driver_step)
    ~(next_h : float -> float array -> float -> float * float * bool)
    ?(events = []) ?monitor ~t_end ~t0 ~y0 () =
  (* [next_h t y h_try] returns (h_accepted, h_next_suggestion, accepted?).
     For fixed-step drivers it always accepts. *)
  (* The trajectory accumulates in growable arrays rather than lists:
     the time column stays unboxed (a [float :: _] cons boxes the head)
     and the state column costs one pointer store per step. Guards live
     in parallel arrays, with [g_next] recycled into [g_prev] after an
     accepted step — the original re-evaluated every guard a second
     time for the update; guards are pure, so reusing the first
     evaluation changes nothing. *)
  let cap0 = 64 in
  let ts_buf = ref (Array.make cap0 0.) in
  let ys_buf = ref (Array.make cap0 [||]) in
  let len = ref 0 in
  let push t y =
    if !len = Array.length !ts_buf then begin
      let c = 2 * Array.length !ts_buf in
      let ts' = Array.make c 0. and ys' = Array.make c [||] in
      Array.blit !ts_buf 0 ts' 0 !len;
      Array.blit !ys_buf 0 ys' 0 !len;
      ts_buf := ts';
      ys_buf := ys'
    end;
    !ts_buf.(!len) <- t;
    !ys_buf.(!len) <- y;
    incr len
  in
  push t0 (Array.copy y0);
  let occs = ref [] in
  let terminated = ref None in
  let n_steps = ref 0 in
  let n_rejected = ref 0 in
  let evs = Array.of_list events in
  let n_ev = Array.length evs in
  let g_prev = Array.make n_ev 0. in
  let g_next = Array.make n_ev 0. in
  for e = 0 to n_ev - 1 do
    g_prev.(e) <- evs.(e).guard t0 y0
  done;
  let t = ref t0 and y = ref (Array.copy y0) in
  let h_cur = ref nan in
  (* h_cur is set by the caller through next_h's suggestion channel: we seed
     it with (t_end - t0) and let next_h clamp. *)
  h_cur := t_end -. t0;
  let continue_ = ref (t_end > t0) in
  while !continue_ do
    let remaining = t_end -. !t in
    if remaining <= 1e-15 *. (1. +. Float.abs t_end) then continue_ := false
    else begin
      let h_try = Float.min !h_cur remaining in
      let h_acc, h_next, accepted = next_h !t !y h_try in
      if not accepted then begin
        incr n_rejected;
        (match monitor with
        | Some m -> m.on_reject !t h_try
        | None -> ());
        h_cur := h_next
      end
      else begin
        incr n_steps;
        let y_next = single !t !y h_acc in
        let t_next = !t +. h_acc in
        (match monitor with
        | Some m -> m.on_step t_next h_acc
        | None -> ());
        (* event detection over this accepted step *)
        for e = 0 to n_ev - 1 do
          g_next.(e) <- evs.(e).guard t_next y_next
        done;
        let stop_here = ref None in
        for e = 0 to n_ev - 1 do
          let ev = evs.(e) in
          if fires ev.dir g_prev.(e) g_next.(e) then begin
            let t_ev, y_ev = localize single ev !t !y h_acc in
            let oc = { oc_name = ev.ev_name; oc_t = t_ev; oc_y = y_ev } in
            occs := oc :: !occs;
            if ev.terminal then
              match !stop_here with
              | Some (prev_oc : occurrence) when prev_oc.oc_t <= t_ev -> ()
              | Some _ | None -> stop_here := Some oc
          end
        done;
        (match !stop_here with
        | Some oc ->
            terminated := Some oc;
            push oc.oc_t (Array.copy oc.oc_y);
            continue_ := false
        | None ->
            t := t_next;
            y := y_next;
            push t_next y_next;
            Array.blit g_next 0 g_prev 0 n_ev;
            h_cur := h_next)
      end
    end
  done;
  {
    ts = Array.sub !ts_buf 0 !len;
    ys = Array.sub !ys_buf 0 !len;
    occs = List.rev !occs;
    terminated = !terminated;
    n_steps = !n_steps;
    n_rejected = !n_rejected;
  }

let solve_fixed ?(method_ = Rk4) ?(events = []) ?monitor ~h ~t_end f ~t0 ~y0 =
  validate "Ode.solve_fixed" (Fixed (method_, h)) ~t0 ~t_end;
  let single t y h = step method_ f t y h in
  let next_h _t _y h_try = (Float.min h_try h, h, true) in
  run_driver ~single ~next_h ~events ?monitor ~t_end ~t0 ~y0 ()

(* --- Dormand–Prince 5(4) ------------------------------------------------- *)

let dopri5_step f t y h =
  let n = Array.length y in
  let stage coeffs =
    let tmp = Array.copy y in
    List.iter
      (fun (c, (k : float array)) ->
        for i = 0 to n - 1 do
          tmp.(i) <- tmp.(i) +. (h *. c *. k.(i))
        done)
      coeffs;
    tmp
  in
  let k1 = f t y in
  let k2 = f (t +. (h /. 5.)) (stage [ (1. /. 5., k1) ]) in
  let k3 =
    f (t +. (3. *. h /. 10.)) (stage [ (3. /. 40., k1); (9. /. 40., k2) ])
  in
  let k4 =
    f
      (t +. (4. *. h /. 5.))
      (stage [ (44. /. 45., k1); (-56. /. 15., k2); (32. /. 9., k3) ])
  in
  let k5 =
    f
      (t +. (8. *. h /. 9.))
      (stage
         [
           (19372. /. 6561., k1);
           (-25360. /. 2187., k2);
           (64448. /. 6561., k3);
           (-212. /. 729., k4);
         ])
  in
  let k6 =
    f (t +. h)
      (stage
         [
           (9017. /. 3168., k1);
           (-355. /. 33., k2);
           (46732. /. 5247., k3);
           (49. /. 176., k4);
           (-5103. /. 18656., k5);
         ])
  in
  let y5 =
    Array.init n (fun i ->
        y.(i)
        +. (h
            *. ((35. /. 384. *. k1.(i))
                +. (500. /. 1113. *. k3.(i))
                +. (125. /. 192. *. k4.(i))
                +. (-2187. /. 6784. *. k5.(i))
                +. (11. /. 84. *. k6.(i)))))
  in
  let k7 = f (t +. h) y5 in
  let err = ref 0. in
  for i = 0 to n - 1 do
    let y4i =
      y.(i)
      +. (h
          *. ((5179. /. 57600. *. k1.(i))
              +. (7571. /. 16695. *. k3.(i))
              +. (393. /. 640. *. k4.(i))
              +. (-92097. /. 339200. *. k5.(i))
              +. (187. /. 2100. *. k6.(i))
              +. (1. /. 40. *. k7.(i))))
    in
    err := Float.max !err (Float.abs (y5.(i) -. y4i))
  done;
  (y5, !err)

let solve_adaptive ?(rtol = 1e-8) ?(atol = 1e-10) ?(events = []) ?monitor
    ~t_end f ~t0 ~y0 =
  validate "Ode.solve_adaptive" (Adaptive (rtol, atol)) ~t0 ~t_end;
  let span = t_end -. t0 in
  let h_max = span in
  let budget = ref max_steps in
  let single t y h =
    let y', _ = dopri5_step f t y h in
    y'
  in
  let h_suggest = ref (span /. 100.) in
  let next_h t y h_try =
    decr budget;
    if !budget <= 0 then failwith "Ode.solve_adaptive: max_steps exhausted";
    let h_try = Float.min h_try !h_suggest in
    let h_try = Float.max h_try h_min in
    let y', err = dopri5_step f t y h_try in
    let scale = ref atol in
    Array.iteri
      (fun i yi ->
        scale :=
          Float.max !scale (rtol *. Float.max (Float.abs yi) (Float.abs y'.(i))))
      y;
    let ratio = err /. !scale in
    (* a wildly oversized trial step can overflow the stage values and
       produce a NaN error estimate; treat it as an infinitely bad step so
       the controller shrinks instead of propagating the NaN *)
    let ratio = if Float.is_finite ratio then ratio else infinity in
    if ratio <= 1. || h_try <= h_min *. 1.0001 then begin
      let grow =
        if ratio <= 0. then 5. else Float.min 5. (0.9 *. (ratio ** -0.2))
      in
      h_suggest := Float.min h_max (h_try *. Float.max 1. grow);
      (h_try, !h_suggest, true)
    end
    else begin
      let shrink = Float.max 0.1 (0.9 *. (ratio ** -0.25)) in
      let h_new = Float.max h_min (h_try *. shrink) in
      if h_new <= h_min && h_try <= h_min *. 1.0001 then
        failwith "Ode.solve_adaptive: step size underflow";
      h_suggest := h_new;
      (h_try, h_new, false)
    end
  in
  run_driver ~single ~next_h ~events ?monitor ~t_end ~t0 ~y0 ()

(* === production tier ======================================================

   One workspace, one in-place RK stepper, one private in-place
   Dormand–Prince stepper and one driver. Every field here is
   autonomous ([field_auto] takes no time argument): on non-flambda
   [ocamlopt] a float crossing a closure boundary is boxed, so no float
   crosses any call boundary on the per-step path — step sizes travel
   through the workspace mailbox [hp], the stage times are never
   materialized, and the stage combinations are written out inline
   rather than through [axpy]. Every expression mirrors the reference
   tier above, so the results are bit-for-bit identical (locked down by
   the test suite). *)

type field_auto = float array -> float array -> unit

type workspace = {
  k1 : float array;
  k2 : float array;
  k3 : float array;
  k4 : float array;
  k5 : float array;
  k6 : float array;
  k7 : float array;
  tmp : float array;  (* stage-state scratch *)
  hp : float array;
      (* 1-slot step-size mailbox: a [float] argument crossing a
         non-inlined call boundary is boxed, a float-array store is not *)
}

let workspace dim =
  if dim < 1 then invalid_arg "Ode.workspace: dim < 1";
  let z () = Array.make dim 0. in
  {
    k1 = z ();
    k2 = z ();
    k3 = z ();
    k4 = z ();
    k5 = z ();
    k6 = z ();
    k7 = z ();
    tmp = z ();
    hp = [| 0. |];
  }

(* One explicit RK step of size [ws.hp.(0)] from [y] into [dst]
   ([dst == y] is allowed: each slot of [y] is read for the last time
   in the statement that writes the same slot of [dst]). *)
let rk_core ws m (f : field_auto) y dst =
  let n = Array.length y in
  let h = ws.hp.(0) in
  match m with
  | Euler ->
      let k1 = ws.k1 in
      f y k1;
      for i = 0 to n - 1 do
        dst.(i) <- y.(i) +. (h *. k1.(i))
      done
  | Heun ->
      let k1 = ws.k1 and k2 = ws.k2 and tmp = ws.tmp in
      f y k1;
      for i = 0 to n - 1 do
        tmp.(i) <- y.(i) +. (h *. k1.(i))
      done;
      f tmp k2;
      for i = 0 to n - 1 do
        dst.(i) <- y.(i) +. (h /. 2. *. (k1.(i) +. k2.(i)))
      done
  | Rk4 ->
      let k1 = ws.k1 and k2 = ws.k2 and k3 = ws.k3 and k4 = ws.k4 in
      let tmp = ws.tmp in
      f y k1;
      for i = 0 to n - 1 do
        tmp.(i) <- y.(i) +. (h /. 2. *. k1.(i))
      done;
      f tmp k2;
      for i = 0 to n - 1 do
        tmp.(i) <- y.(i) +. (h /. 2. *. k2.(i))
      done;
      f tmp k3;
      for i = 0 to n - 1 do
        tmp.(i) <- y.(i) +. (h *. k3.(i))
      done;
      f tmp k4;
      for i = 0 to n - 1 do
        dst.(i) <-
          y.(i)
          +. (h /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i)))
      done

let step_auto_into ws m f y h dst =
  if Array.length y > Array.length ws.k1 then
    invalid_arg "Ode.step_auto_into: state larger than workspace";
  ws.hp.(0) <- h;
  rk_core ws m f y dst

(* One Dormand–Prince 5(4) step of size [ws.hp.(0)] from [y]: the
   5th-order solution goes to [dst] (which must not alias [y]; it is
   passed back to [f] for the FSAL stage) and the embedded error
   estimate to [err.(0)] (a [ref float] would box on every store). *)
let dopri5_core ws (f : field_auto) y dst err =
  let n = Array.length y in
  let h = ws.hp.(0) in
  let k1 = ws.k1 and k2 = ws.k2 and k3 = ws.k3 and k4 = ws.k4 in
  let k5 = ws.k5 and k6 = ws.k6 and k7 = ws.k7 and tmp = ws.tmp in
  f y k1;
  for i = 0 to n - 1 do
    tmp.(i) <- y.(i) +. (h *. (1. /. 5.) *. k1.(i))
  done;
  f tmp k2;
  for i = 0 to n - 1 do
    tmp.(i) <-
      y.(i) +. (h *. (3. /. 40.) *. k1.(i)) +. (h *. (9. /. 40.) *. k2.(i))
  done;
  f tmp k3;
  for i = 0 to n - 1 do
    tmp.(i) <-
      y.(i)
      +. (h *. (44. /. 45.) *. k1.(i))
      +. (h *. (-56. /. 15.) *. k2.(i))
      +. (h *. (32. /. 9.) *. k3.(i))
  done;
  f tmp k4;
  for i = 0 to n - 1 do
    tmp.(i) <-
      y.(i)
      +. (h *. (19372. /. 6561.) *. k1.(i))
      +. (h *. (-25360. /. 2187.) *. k2.(i))
      +. (h *. (64448. /. 6561.) *. k3.(i))
      +. (h *. (-212. /. 729.) *. k4.(i))
  done;
  f tmp k5;
  for i = 0 to n - 1 do
    tmp.(i) <-
      y.(i)
      +. (h *. (9017. /. 3168.) *. k1.(i))
      +. (h *. (-355. /. 33.) *. k2.(i))
      +. (h *. (46732. /. 5247.) *. k3.(i))
      +. (h *. (49. /. 176.) *. k4.(i))
      +. (h *. (-5103. /. 18656.) *. k5.(i))
  done;
  f tmp k6;
  for i = 0 to n - 1 do
    dst.(i) <-
      y.(i)
      +. (h
          *. ((35. /. 384. *. k1.(i))
              +. (500. /. 1113. *. k3.(i))
              +. (125. /. 192. *. k4.(i))
              +. (-2187. /. 6784. *. k5.(i))
              +. (11. /. 84. *. k6.(i))))
  done;
  f dst k7;
  err.(0) <- 0.;
  for i = 0 to n - 1 do
    let y4i =
      y.(i)
      +. (h
          *. ((5179. /. 57600. *. k1.(i))
              +. (7571. /. 16695. *. k3.(i))
              +. (393. /. 640. *. k4.(i))
              +. (-92097. /. 339200. *. k5.(i))
              +. (187. /. 2100. *. k6.(i))
              +. (1. /. 40. *. k7.(i))))
    in
    err.(0) <- Float.max err.(0) (Float.abs (dst.(i) -. y4i))
  done

(* [dst.(d + i) <- src.(s + i)] for [i < n], unchecked: only for the
   driver's own buffers, whose sizes it fixes from [y0]. The driver moves
   small states several times per step; [Array.blit] is a C call whose
   entry cost dwarfs a 2-element copy, a loop is not. *)
let[@inline] copy (src : float array) s (dst : float array) d n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst (d + i) (Array.unsafe_get src (s + i))
  done

type guard_spec = {
  gs_names : string array;
  gs_dirs : direction array;
  gs_terminal : bool array;
  gs_eval : int -> float array -> float array -> unit;
}

let guards_of_events ~dim events =
  let evs = Array.of_list events in
  let y_view = Array.make dim 0. in
  {
    gs_names = Array.map (fun e -> e.ev_name) evs;
    gs_dirs = Array.map (fun e -> e.dir) evs;
    gs_terminal = Array.map (fun e -> e.terminal) evs;
    gs_eval =
      (fun e pt dst ->
        for i = 0 to dim - 1 do
          y_view.(i) <- pt.(i + 1)
        done;
        dst.(e) <- evs.(e).guard pt.(0) y_view);
  }

type _ sink =
  | Record : solution sink
  | Stream : {
      on_point : float array -> unit;
      on_event : int -> float array -> unit;
    }
      -> unit sink

(* The production driver. The step sequence, the controller
   expressions, the event detection and the bisection are those of the
   reference solvers, so every sample, occurrence and counter carries
   the same bits. What differs is allocation: the state ping-pongs
   between two buffers, each sample is packed into one reused
   [[|t; y...|]] buffer [pt] that the guards and the sink read, and the
   bisection arguments travel through slot arrays — so with a
   closure-free [guard_spec] and the streaming sink a run allocates
   nothing per step. *)
let solve (type r) solver (gs : guard_spec) (sink : r sink) (f : field_auto)
    ~t0 ~t_end ~y0 : r =
  validate "Ode.solve" solver ~t0 ~t_end;
  let span = t_end -. t0 in
  let dim = Array.length y0 in
  let ws = workspace dim in
  let err_acc = [| 0. |] in
  let trial = Array.make dim 0. in
  let h_suggest = [| span /. 100. |] in
  let scale_acc = [| 0. |] in
  let budget = ref max_steps in
  let n_ev = Array.length gs.gs_names in
  let g_prev = Array.make n_ev 0. in
  let g_next = Array.make n_ev 0. in
  let g_loc = Array.make n_ev 0. in
  let pt = Array.make (dim + 1) 0. in
  let ya = ref (Array.copy y0) in
  let yb = ref (Array.make dim 0.) in
  let scratch = Array.make dim 0. in
  let tcur = [| t0 |] in
  let hcur = [| span |] in
  (* one step of size [ws.hp.(0)] from the current state into [dst] *)
  let advance dst =
    match solver with
    | Fixed (m, _) -> rk_core ws m f !ya dst
    | Adaptive _ -> dopri5_core ws f !ya dst err_acc
  in
  (* bisection mailboxes: 0=lo 1=hi 2=flo 3=s-argument 4=phi-result
     5=h of the step under localization *)
  let bst = Array.make 6 0. in
  let bei = [| 0 |] in
  (* phi(s) of [localize]: step to fraction s of the current step, then
     evaluate the firing guard there. Argument and result travel through
     [bst] so no float is boxed per bisection iteration. *)
  let eval_phi () =
    let s = bst.(3) in
    let h = bst.(5) in
    ws.hp.(0) <- s *. h;
    advance scratch;
    pt.(0) <- tcur.(0) +. (s *. h);
    copy scratch 0 pt 1 dim;
    let e = bei.(0) in
    gs.gs_eval e pt g_loc;
    bst.(4) <- g_loc.(e)
  in
  (* the recorded trajectory, in growable arrays (Record sink only) *)
  let ts_buf = ref (Array.make 64 0.) in
  let ys_buf = ref (Array.make 64 [||]) in
  let len = ref 0 in
  (* hand the packed sample [pt] to the sink *)
  let emit () =
    match sink with
    | Stream { on_point; _ } -> on_point pt
    | Record ->
        if !len = Array.length !ts_buf then begin
          let c = 2 * !len in
          let ts' = Array.make c 0. and ys' = Array.make c [||] in
          Array.blit !ts_buf 0 ts' 0 !len;
          Array.blit !ys_buf 0 ys' 0 !len;
          ts_buf := ts';
          ys_buf := ys'
        end;
        !ts_buf.(!len) <- pt.(0);
        !ys_buf.(!len) <- Array.sub pt 1 dim;
        incr len
  in
  let recording = match sink with Record -> true | Stream _ -> false in
  let occs = ref [] in
  let terminated = ref None in
  let n_steps = ref 0 in
  let n_rejected = ref 0 in
  (* [fires] by index: same predicate as [fires], but the guard values
     are read from the arrays here rather than passed as float
     arguments — a non-inlined float-argument call would box both
     floats on every step of every guard *)
  let fires_at e =
    let gp = g_prev.(e) and gn = g_next.(e) in
    if gp = 0. then false
    else
      match gs.gs_dirs.(e) with
      | Up -> gp < 0. && gn >= 0.
      | Down -> gp > 0. && gn <= 0.
      | Both -> gp *. gn <= 0. && gn <> gp
  in
  pt.(0) <- t0;
  copy y0 0 pt 1 dim;
  for e = 0 to n_ev - 1 do
    gs.gs_eval e pt g_prev
  done;
  emit ();
  let continue_ = ref (t_end > t0) in
  while !continue_ do
    let remaining = t_end -. tcur.(0) in
    if remaining <= 1e-15 *. (1. +. Float.abs t_end) then continue_ := false
    else begin
      let h_try0 = Float.min hcur.(0) remaining in
      (* decide the step; an accepted one leaves its size in [ws.hp]
         and its end state in [!yb] *)
      let accepted =
        match solver with
        | Fixed (_, h) ->
            ws.hp.(0) <- Float.min h_try0 h;
            advance !yb;
            hcur.(0) <- h;
            true
        | Adaptive (rtol, atol) ->
            decr budget;
            if !budget <= 0 then failwith "Ode.solve: max_steps exhausted";
            let h_try = Float.min h_try0 h_suggest.(0) in
            let h_try = Float.max h_try h_min in
            ws.hp.(0) <- h_try;
            advance trial;
            let err = err_acc.(0) in
            scale_acc.(0) <- atol;
            for i = 0 to dim - 1 do
              scale_acc.(0) <-
                Float.max scale_acc.(0)
                  (rtol *. Float.max (Float.abs !ya.(i)) (Float.abs trial.(i)))
            done;
            let ratio = err /. scale_acc.(0) in
            let ratio = if Float.is_finite ratio then ratio else infinity in
            if ratio <= 1. || h_try <= h_min *. 1.0001 then begin
              let grow =
                if ratio <= 0. then 5. else Float.min 5. (0.9 *. (ratio ** -0.2))
              in
              h_suggest.(0) <- Float.min span (h_try *. Float.max 1. grow);
              (* The recording sink evaluates the accepted step a second
                 time, exactly as the reference driver does: the RHS
                 evaluation count is part of published output (the a3
                 solver ablation). The streaming sink keeps the trial
                 state. The stepper is deterministic in (y, h), so both
                 carry the same bits. *)
              (if recording then advance !yb
               else copy trial 0 !yb 0 dim);
              hcur.(0) <- h_suggest.(0);
              true
            end
            else begin
              let shrink = Float.max 0.1 (0.9 *. (ratio ** -0.25)) in
              let h_new = Float.max h_min (h_try *. shrink) in
              if h_new <= h_min && h_try <= h_min *. 1.0001 then
                failwith "Ode.solve: step size underflow";
              h_suggest.(0) <- h_new;
              incr n_rejected;
              hcur.(0) <- h_new;
              false
            end
      in
      if accepted then begin
        incr n_steps;
        let h_acc = ws.hp.(0) in
        let t_next = tcur.(0) +. h_acc in
        if n_ev > 0 then begin
          pt.(0) <- t_next;
          copy !yb 0 pt 1 dim;
          for e = 0 to n_ev - 1 do
            gs.gs_eval e pt g_next
          done
        end;
        let stop_here = ref None in
        for e = 0 to n_ev - 1 do
          if fires_at e then begin
            (* inline [localize]'s
               [Roots.bisect ~tol:1e-13 ~max_iter:100 phi 1e-15 1.]
               (No_bracket falls back to the end of the step) *)
            bst.(5) <- h_acc;
            bei.(0) <- e;
            bst.(3) <- 1e-15;
            eval_phi ();
            let fa = bst.(4) in
            bst.(3) <- 1.;
            eval_phi ();
            let fb = bst.(4) in
            let s_root =
              if fa = 0. then 1e-15
              else if fb = 0. then 1.
              else if fa *. fb > 0. then 1.
              else begin
                bst.(0) <- 1e-15;
                bst.(1) <- 1.;
                bst.(2) <- fa;
                let i = ref 0 in
                while bst.(1) -. bst.(0) > 1e-13 && !i < 100 do
                  incr i;
                  let mid = 0.5 *. (bst.(0) +. bst.(1)) in
                  bst.(3) <- mid;
                  eval_phi ();
                  let fm = bst.(4) in
                  if fm = 0. then begin
                    bst.(0) <- mid;
                    bst.(1) <- mid
                  end
                  else if bst.(2) *. fm < 0. then bst.(1) <- mid
                  else begin
                    bst.(0) <- mid;
                    bst.(2) <- fm
                  end
                done;
                0.5 *. (bst.(0) +. bst.(1))
              end
            in
            ws.hp.(0) <- s_root *. h_acc;
            advance scratch;
            let t_ev = tcur.(0) +. (s_root *. h_acc) in
            (match sink with
            | Stream { on_event; _ } ->
                (* borrowed packed buffer, same protocol as [on_point];
                   [pt] is dead here until the next localization or
                   accepted step rewrites it *)
                pt.(0) <- t_ev;
                copy scratch 0 pt 1 dim;
                on_event e pt
            | Record -> ());
            if recording || gs.gs_terminal.(e) then begin
              let oc =
                {
                  oc_name = gs.gs_names.(e);
                  oc_t = t_ev;
                  oc_y = Array.copy scratch;
                }
              in
              if recording then occs := oc :: !occs;
              if gs.gs_terminal.(e) then
                match !stop_here with
                | Some (prev_oc : occurrence) when prev_oc.oc_t <= t_ev -> ()
                | Some _ | None -> stop_here := Some oc
            end
          end
        done;
        match !stop_here with
        | Some oc ->
            terminated := Some oc;
            pt.(0) <- oc.oc_t;
            copy oc.oc_y 0 pt 1 dim;
            emit ();
            continue_ := false
        | None ->
            tcur.(0) <- t_next;
            let tmp = !ya in
            ya := !yb;
            yb := tmp;
            pt.(0) <- t_next;
            copy !ya 0 pt 1 dim;
            emit ();
            copy g_next 0 g_prev 0 n_ev
      end
    end
  done;
  match sink with
  | Stream _ -> ()
  | Record ->
      {
        ts = Array.sub !ts_buf 0 !len;
        ys = Array.sub !ys_buf 0 !len;
        occs = List.rev !occs;
        terminated = !terminated;
        n_steps = !n_steps;
        n_rejected = !n_rejected;
      }

(* --- batched SoA stepping ------------------------------------------------ *)

(* A front of [n] independent planar states advanced in lock-step.
   Structure-of-arrays layout: one contiguous [float array] per
   coordinate lane (state, the four RK stages, the stage scratch and
   three sweep-scratch lanes), so a whole stage is one pass over
   contiguous unboxed memory and the right-hand side is evaluated as a
   single sweep over all lanes instead of n closure calls.

   The per-lane arithmetic mirrors {!rk_core} expression for
   expression, so advancing lane [i] is bit-for-bit identical to
   advancing the state [[|xs.(i); ys.(i)|]] with the scalar stepper —
   batching changes the memory layout, never the results (locked down by
   the test suite).

   [active] is a per-lane byte mask: the moment a caller decides a
   lane's fate (a verdict, a terminal event), it clears the flag and the
   stepper stops writing that lane — its state is frozen at the decision
   point while the rest of the front keeps going. RHS sweeps are allowed
   to compute garbage for inactive lanes (their stage lanes go stale);
   lanes are independent, so the garbage never contaminates an active
   lane.

   The step size lives in the batch ([set_h]) rather than being passed
   per call: a [float] argument to a non-inlined call is boxed by the
   compiler, and hoisting it into the (one-time) field store keeps the
   per-step allocation at exactly zero. *)
module Batch = struct
  type t = {
    n : int;
    xs : float array;
    ys : float array;
    k1x : float array;
    k1y : float array;
    k2x : float array;
    k2y : float array;
    k3x : float array;
    k3y : float array;
    k4x : float array;
    k4y : float array;
    tmpx : float array;
    tmpy : float array;
    sg : float array;
    sa : float array;
    sb : float array;
    active : Bytes.t;
    mutable h : float;
  }

  type rhs = t -> float array -> float array -> float array -> float array -> unit

  let create n =
    if n < 1 then invalid_arg "Ode.Batch.create: n < 1";
    let z () = Array.make n 0. in
    {
      n;
      xs = z ();
      ys = z ();
      k1x = z ();
      k1y = z ();
      k2x = z ();
      k2y = z ();
      k3x = z ();
      k3y = z ();
      k4x = z ();
      k4y = z ();
      tmpx = z ();
      tmpy = z ();
      sg = z ();
      sa = z ();
      sb = z ();
      active = Bytes.make n '\001';
      h = 0.;
    }

  let set_h b h = b.h <- h
  let is_active b i = Bytes.unsafe_get b.active i <> '\000'

  let set_active b i v =
    Bytes.unsafe_set b.active i (if v then '\001' else '\000')

  (* Branch-free-style per-lane select on the sign of [mask]: the σ-switch
     of the paper's variable-structure systems, applied as its own sweep
     after both branch sweeps have run. An arithmetic blend
     [m·pos + (1−m)·neg] would NOT be bit-identical to the scalar
     [if sigma >= 0.] dispatch (e.g. [-0.0 +. 0.0] flips the sign bit),
     so the select keeps the comparison and lets the compiler turn it
     into a conditional move. *)
  (* annotations matter: without them the sweep types as ['a array] and
     compiles to generic (boxing, tag-checking) array accesses *)
  let select b ~(mask : float array) ~(pos : float array)
      ~(neg : float array) ~(dst : float array) =
    for i = 0 to b.n - 1 do
      (* the store lives inside each branch: an [if] JOINING two float
         loads boxes the joined value on its way into [unsafe_set]
         (no flambda), costing two minor words per lane *)
      if Array.unsafe_get mask i >= 0. then
        Array.unsafe_set dst i (Array.unsafe_get pos i)
      else Array.unsafe_set dst i (Array.unsafe_get neg i)
    done

  let step_rk4 b (f : rhs) =
    let n = b.n and act = b.active and h = b.h in
    let xs = b.xs and ys = b.ys in
    let tmpx = b.tmpx and tmpy = b.tmpy in
    f b xs ys b.k1x b.k1y;
    for i = 0 to n - 1 do
      if Bytes.unsafe_get act i <> '\000' then begin
        Array.unsafe_set tmpx i
          (Array.unsafe_get xs i +. (h /. 2. *. Array.unsafe_get b.k1x i));
        Array.unsafe_set tmpy i
          (Array.unsafe_get ys i +. (h /. 2. *. Array.unsafe_get b.k1y i))
      end
    done;
    f b tmpx tmpy b.k2x b.k2y;
    for i = 0 to n - 1 do
      if Bytes.unsafe_get act i <> '\000' then begin
        Array.unsafe_set tmpx i
          (Array.unsafe_get xs i +. (h /. 2. *. Array.unsafe_get b.k2x i));
        Array.unsafe_set tmpy i
          (Array.unsafe_get ys i +. (h /. 2. *. Array.unsafe_get b.k2y i))
      end
    done;
    f b tmpx tmpy b.k3x b.k3y;
    for i = 0 to n - 1 do
      if Bytes.unsafe_get act i <> '\000' then begin
        Array.unsafe_set tmpx i
          (Array.unsafe_get xs i +. (h *. Array.unsafe_get b.k3x i));
        Array.unsafe_set tmpy i
          (Array.unsafe_get ys i +. (h *. Array.unsafe_get b.k3y i))
      end
    done;
    f b tmpx tmpy b.k4x b.k4y;
    for i = 0 to n - 1 do
      if Bytes.unsafe_get act i <> '\000' then begin
        let nx =
          Array.unsafe_get xs i
          +. (h /. 6.
              *. (Array.unsafe_get b.k1x i
                  +. (2. *. Array.unsafe_get b.k2x i)
                  +. (2. *. Array.unsafe_get b.k3x i)
                  +. Array.unsafe_get b.k4x i))
        in
        let ny =
          Array.unsafe_get ys i
          +. (h /. 6.
              *. (Array.unsafe_get b.k1y i
                  +. (2. *. Array.unsafe_get b.k2y i)
                  +. (2. *. Array.unsafe_get b.k3y i)
                  +. Array.unsafe_get b.k4y i))
        in
        Array.unsafe_set xs i nx;
        Array.unsafe_set ys i ny
      end
    done

  let step_euler b (f : rhs) =
    let n = b.n and act = b.active and h = b.h in
    f b b.xs b.ys b.k1x b.k1y;
    for i = 0 to n - 1 do
      if Bytes.unsafe_get act i <> '\000' then begin
        Array.unsafe_set b.xs i
          (Array.unsafe_get b.xs i +. (h *. Array.unsafe_get b.k1x i));
        Array.unsafe_set b.ys i
          (Array.unsafe_get b.ys i +. (h *. Array.unsafe_get b.k1y i))
      end
    done

  let step_heun b (f : rhs) =
    let n = b.n and act = b.active and h = b.h in
    f b b.xs b.ys b.k1x b.k1y;
    for i = 0 to n - 1 do
      if Bytes.unsafe_get act i <> '\000' then begin
        Array.unsafe_set b.tmpx i
          (Array.unsafe_get b.xs i +. (h *. Array.unsafe_get b.k1x i));
        Array.unsafe_set b.tmpy i
          (Array.unsafe_get b.ys i +. (h *. Array.unsafe_get b.k1y i))
      end
    done;
    f b b.tmpx b.tmpy b.k2x b.k2y;
    for i = 0 to n - 1 do
      if Bytes.unsafe_get act i <> '\000' then begin
        Array.unsafe_set b.xs i
          (Array.unsafe_get b.xs i
          +. (h /. 2.
              *. (Array.unsafe_get b.k1x i +. Array.unsafe_get b.k2x i)));
        Array.unsafe_set b.ys i
          (Array.unsafe_get b.ys i
          +. (h /. 2.
              *. (Array.unsafe_get b.k1y i +. Array.unsafe_get b.k2y i)))
      end
    done

  let step b m f =
    match m with
    | Euler -> step_euler b f
    | Heun -> step_heun b f
    | Rk4 -> step_rk4 b f
end

let state_at sol t =
  let n = Array.length sol.ts in
  assert (n > 0);
  if t <= sol.ts.(0) then Array.copy sol.ys.(0)
  else if t >= sol.ts.(n - 1) then Array.copy sol.ys.(n - 1)
  else begin
    (* binary search for the bracketing segment *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if sol.ts.(mid) <= t then lo := mid else hi := mid
    done;
    let t0 = sol.ts.(!lo) and t1 = sol.ts.(!hi) in
    let s = if t1 = t0 then 0. else (t -. t0) /. (t1 -. t0) in
    let y0 = sol.ys.(!lo) and y1 = sol.ys.(!hi) in
    Array.init (Array.length y0) (fun i -> y0.(i) +. (s *. (y1.(i) -. y0.(i))))
  end

let convergence_order m f ~t0 ~y0 ~t_end ~exact =
  let err h =
    let sol = solve_fixed ~method_:m ~h ~t_end f ~t0 ~y0 in
    let yn = sol.ys.(Array.length sol.ys - 1) in
    let ye = exact t_end in
    let e = ref 0. in
    Array.iteri (fun i v -> e := Float.max !e (Float.abs (v -. ye.(i)))) yn;
    !e
  in
  let h1 = (t_end -. t0) /. 64. in
  let e1 = err h1 and e2 = err (h1 /. 2.) in
  log (e1 /. e2) /. log 2.
