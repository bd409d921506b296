open Numerics

(* Batched fixed-step front integration.

   Advances every initial point in lock-step on the shared time grid of
   the fixed-step driver (all lanes see the same (t, h) sequence, since
   the grid depends only on t0/t_end/h), with the per-lane event
   bookkeeping of the fixed-step drivers reproduced exactly:

   - guards are sampled at step boundaries and fed to [Ode.fires];
   - a firing guard is localized by [Ode.localize_into] from the lane's
     pre-step state with the scalar [step_auto_into] — the batched stepper
     mirrors the scalar one expression for expression, so the base
     state the bisection starts from is bit-identical;
   - a terminal event freezes the lane (clears its [active] flag); the
     remaining lanes keep marching until the horizon or until the whole
     front is frozen.

   The result of each lane is therefore bit-for-bit the result of
   [Trajectory.integrate ~solver:(Fixed (method_, h))] on that lane's
   initial point — the test suite asserts this for arbitrary fronts —
   while the inner loop does one RHS sweep per RK stage over contiguous
   unboxed lanes instead of n closure dispatches per stage. *)

let integrate_batch ~method_ ~h ~t_max ?converge_radius ?box sys
    (pts : Vec2.t array) : Trajectory.t array =
  let n = Array.length pts in
  if n = 0 then [||]
  else begin
    let events =
      Array.of_list (Trajectory.events_for ?converge_radius ?box sys)
    in
    let n_ev = Array.length events in
    let b = Ode.Batch.create n in
    for i = 0 to n - 1 do
      b.Ode.Batch.xs.(i) <- pts.(i).Vec2.x;
      b.Ode.Batch.ys.(i) <- pts.(i).Vec2.y
    done;
    let rhs = System.batch_rhs sys in
    (* scalar stepper for event localization: same workspace stepper the
       per-point driver localizes with, hence the same bits *)
    let ws = Ode.workspace 2 in
    let f = System.to_auto sys in
    let single_into _t y hh dst = Ode.step_auto_into ws method_ f y hh dst in
    (* pre-step states, for localization bases *)
    let px = Array.make n 0. and py = Array.make n 0. in
    let y2 = [| 0.; 0. |] in
    let gy = [| 0.; 0. |] in
    let loc_scratch = [| 0.; 0. |] in
    (* per-lane accumulators, mirroring the driver's *)
    let ts = Array.init n (fun _ -> [ 0. ]) in
    let yss =
      Array.init n (fun i -> [ [| pts.(i).Vec2.x; pts.(i).Vec2.y |] ])
    in
    let occs = Array.make n ([] : Ode.occurrence list) in
    let terminated = Array.make n (None : Ode.occurrence option) in
    let n_steps = Array.make n 0 in
    let g_prev = Array.make_matrix n_ev n 0. in
    for e = 0 to n_ev - 1 do
      let ev = events.(e) in
      for i = 0 to n - 1 do
        gy.(0) <- b.Ode.Batch.xs.(i);
        gy.(1) <- b.Ode.Batch.ys.(i);
        g_prev.(e).(i) <- ev.Ode.guard 0. gy
      done
    done;
    let t = ref 0. in
    (* the driver seeds its step suggestion with (t_end - t0) and lets
       the fixed-step controller clamp it to h *)
    let h_cur = ref t_max in
    let n_active = ref n in
    let continue_ = ref (t_max > 0.) in
    while !continue_ && !n_active > 0 do
      let remaining = t_max -. !t in
      if remaining <= 1e-15 *. (1. +. Float.abs t_max) then continue_ := false
      else begin
        let h_try = Float.min !h_cur remaining in
        let h_acc = Float.min h_try h in
        Array.blit b.Ode.Batch.xs 0 px 0 n;
        Array.blit b.Ode.Batch.ys 0 py 0 n;
        Ode.Batch.set_h b h_acc;
        Ode.Batch.step b method_ rhs;
        let t_next = !t +. h_acc in
        for i = 0 to n - 1 do
          if Ode.Batch.is_active b i then begin
            n_steps.(i) <- n_steps.(i) + 1;
            gy.(0) <- b.Ode.Batch.xs.(i);
            gy.(1) <- b.Ode.Batch.ys.(i);
            let stop_here = ref None in
            for e = 0 to n_ev - 1 do
              let ev = events.(e) in
              let g_next = ev.Ode.guard t_next gy in
              if Ode.fires ev.Ode.dir g_prev.(e).(i) g_next then begin
                y2.(0) <- px.(i);
                y2.(1) <- py.(i);
                let t_ev, y_ev =
                  Ode.localize_into single_into ev !t y2 h_acc loc_scratch
                in
                let oc =
                  { Ode.oc_name = ev.Ode.ev_name; oc_t = t_ev; oc_y = y_ev }
                in
                occs.(i) <- oc :: occs.(i);
                if ev.Ode.terminal then
                  match !stop_here with
                  | Some (prev_oc : Ode.occurrence)
                    when prev_oc.Ode.oc_t <= t_ev ->
                      ()
                  | Some _ | None -> stop_here := Some oc
              end;
              g_prev.(e).(i) <- g_next
            done;
            match !stop_here with
            | Some oc ->
                terminated.(i) <- Some oc;
                ts.(i) <- oc.Ode.oc_t :: ts.(i);
                yss.(i) <- Array.copy oc.Ode.oc_y :: yss.(i);
                Ode.Batch.set_active b i false;
                decr n_active
            | None ->
                ts.(i) <- t_next :: ts.(i);
                yss.(i) <- [| b.Ode.Batch.xs.(i); b.Ode.Batch.ys.(i) |] :: yss.(i)
          end
        done;
        t := t_next;
        h_cur := h
      end
    done;
    Array.init n (fun i ->
        Trajectory.of_solution
          {
            Ode.ts = Array.of_list (List.rev ts.(i));
            ys = Array.of_list (List.rev yss.(i));
            occs = List.rev occs.(i);
            terminated = terminated.(i);
            n_steps = n_steps.(i);
            n_rejected = 0;
          })
  end

(* Contiguous near-equal chunk bounds: chunk k covers
   [k*n/jobs, (k+1)*n/jobs). Depends only on (n, jobs) — and since the
   lanes are mutually independent bit-wise, the per-lane results do not
   depend on how the front is split, so any [jobs] gives byte-identical
   output (asserted by the test suite). *)
let chunk_bounds n jobs =
  let jobs = Stdlib.min jobs n in
  List.init jobs (fun k -> (k * n / jobs, ((k + 1) * n / jobs) - 1))

let integrate ?(method_ = Ode.Rk4) ~h ?(t_max = 100.) ?converge_radius ?box
    ?(jobs = 1) sys pts =
  (* same rejections as the per-point drivers: a NaN step or horizon
     would otherwise march forever or end silently *)
  if not (h > 0. && Float.is_finite h) then
    invalid_arg "Front.integrate: h must be finite and > 0";
  if not (Float.is_finite t_max) then
    invalid_arg "Front.integrate: t_max must be finite";
  let n = Array.length pts in
  if jobs <= 1 || n <= 1 then
    integrate_batch ~method_ ~h ~t_max ?converge_radius ?box sys pts
  else
    let chunks =
      Parallel.Pool.with_pool ~size:jobs (fun pool ->
          Parallel.Pool.map pool
            (fun (lo, hi) ->
              integrate_batch ~method_ ~h ~t_max ?converge_radius ?box sys
                (Array.sub pts lo (hi - lo + 1)))
            (chunk_bounds n jobs))
    in
    Array.concat chunks
