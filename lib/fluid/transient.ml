open Numerics

type metrics = {
  overshoot : float;
  undershoot : float;
  oscillations : int;
  settling_time : float option;
  decay_per_cycle : float option;
}

let slower_period p =
  Float.max
    (2. *. Float.pi /. sqrt (Linearized.stiffness p Linearized.Increase))
    (2. *. Float.pi /. sqrt (Linearized.stiffness p Linearized.Decrease))

(* Per-cycle decay from the chronological |x| magnitudes at axis
   crossings (zeros excluded): drop the first magnitude (start-up
   transient), then exp(mean log-ratio) over the rest. The sum runs
   newest pair to oldest — the accumulation order of the list-based
   fold this replaces — so results stay bit-identical. *)
let decay_of_mags mags n =
  if n < 3 then None
  else begin
    let s = ref 0. in
    for i = n - 1 downto 2 do
      s := !s +. log (mags.(i) /. mags.(i - 1))
    done;
    Some (exp (!s /. float_of_int (n - 2)))
  end

let measure ?horizon ?(band = 0.05) p =
  let horizon =
    match horizon with Some v -> v | None -> 20. *. slower_period p
  in
  let sys = Model.normalized_system p in
  let threshold = band *. p.Params.q0 in
  (* Streaming fold over the trajectory: the streaming sink hands every
     sample the recording integrator would have stored (bit for bit)
     through one reused buffer, so nothing is retained per step. The
     guard set replicates [Trajectory.events_for] for the normalized
     system — [switch] is sigma = -(x + k·y), [axis] is y — evaluated
     straight off the packed buffer so no [Vec2] is built per step. *)
  let k = Params.k p in
  let guards =
    {
      Ode.gs_names = [| "switch"; "axis" |];
      gs_dirs = [| Ode.Both; Ode.Both |];
      gs_terminal = [| false; false |];
      gs_eval =
        (fun e pt dst ->
          if e = 0 then dst.(0) <- -.(pt.(1) +. (k *. pt.(2)))
          else dst.(1) <- pt.(2));
    }
  in
  (* fold state: 0 = x_max, 1 = x_min, 2 = min x over the tail from the
     first switch, 3 = first switch time (nan = none yet), 4 = last
     time |x| > threshold (nan = never), 5 = last sample time,
     6 = tail-nonempty flag *)
  let acc = [| neg_infinity; infinity; infinity; nan; nan; nan; 0. |] in
  let on_point pt =
    let t = pt.(0) in
    let x = pt.(1) in
    if x > acc.(0) then acc.(0) <- x;
    if x < acc.(1) then acc.(1) <- x;
    if (not (Float.is_nan acc.(3))) && t >= acc.(3) then begin
      acc.(6) <- 1.;
      if x < acc.(2) then acc.(2) <- x
    end;
    if Float.abs x > threshold then acc.(4) <- t;
    acc.(5) <- t
  in
  (* axis-crossing magnitudes fold into a growable scratch array (the
     run's only data-dependent allocation); guard 0 is "switch",
     guard 1 is "axis", matching [gs_names] above *)
  let n_axis = ref 0 in
  let mags = ref (Array.make 32 0.) in
  let n_mags = ref 0 in
  let on_event e pt =
    if e = 0 then begin
      if Float.is_nan acc.(3) then acc.(3) <- pt.(0)
    end
    else begin
      incr n_axis;
      let m = Float.abs pt.(1) in
      if m > 0. then begin
        if !n_mags = Array.length !mags then begin
          let bigger = Array.make (2 * !n_mags) 0. in
          Array.blit !mags 0 bigger 0 !n_mags;
          mags := bigger
        end;
        !mags.(!n_mags) <- m;
        incr n_mags
      end
    end
  in
  (* drive the streaming sink directly (a recorded trajectory would
     rebuild its crossing lists from the occurrence records we are here
     to avoid); same tolerances, so the samples are bit-identical *)
  Ode.solve (Ode.Adaptive (1e-9, 1e-12)) guards
    (Ode.Stream { on_point; on_event })
    (Phaseplane.System.to_auto sys) ~t0:0. ~t_end:horizon
    ~y0:(Vec2.to_array (Model.start_point p));
  let overshoot = acc.(0) in
  let undershoot =
    (* x_min after the first switching — [Series.tail_from] keeps
       samples with [t >= ct], which is exactly the tail fold above *)
    if Float.is_nan acc.(3) || acc.(6) = 0. then acc.(1) else acc.(2)
  in
  let settling_time =
    if Float.is_nan acc.(4) then Some 0.
    else if acc.(4) < acc.(5) -. (0.01 *. horizon) then Some acc.(4)
    else None
  in
  {
    overshoot;
    undershoot;
    oscillations = !n_axis;
    settling_time;
    decay_per_cycle = decay_of_mags !mags !n_mags;
  }

let sweep ?horizon ?band ?(jobs = 1) param_of values =
  let run v = (v, measure ?horizon ?band (param_of v)) in
  if jobs <= 1 then List.map run values
  else
    Parallel.Pool.with_pool ~size:jobs (fun pool ->
        Parallel.Pool.map pool run values)

let pp_metrics ppf m =
  Format.fprintf ppf
    "overshoot %g, undershoot %g, %d oscillations, settling %s, decay %s"
    m.overshoot m.undershoot m.oscillations
    (match m.settling_time with
    | Some t -> Printf.sprintf "%g s" t
    | None -> "none within horizon")
    (match m.decay_per_cycle with
    | Some d -> Printf.sprintf "%.5f/cycle" d
    | None -> "n/a")
