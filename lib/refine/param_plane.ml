type store = (string -> bool option) * (string -> bool -> unit)

let gains p ~x ~y =
  let ru = p.Fluid.Params.ru in
  let n = float_of_int p.Fluid.Params.n_flows in
  Fluid.Params.with_gains ~gi:(x /. (ru *. n)) ~gd:y p

let verdicts ?t_max ?(jobs = 1) apply pts =
  (* [Stability.analyze]'s [strongly_stable], without the case
     classification and flow map it would compute beside it *)
  let task (x, y) =
    let p = apply ~x ~y in
    let mx, mn = Fluid.Stability.first_excursion ?t_max p in
    p.Fluid.Params.buffer -. p.Fluid.Params.q0 -. mx > 0.
    && mn +. p.Fluid.Params.q0 > 0.
  in
  if jobs <= 1 || Array.length pts <= 1 then Array.map task pts
  else
    Parallel.Pool.with_pool ~size:jobs (fun pool ->
        Parallel.Pool.map_array pool task pts)

let material ?t_max apply ~x ~y =
  Printf.sprintf "refine-param@v1\n%s\nt_max=%s"
    (Simnet.Scenario.encode_params (apply ~x ~y))
    (match t_max with
    | None -> "default"
    | Some t -> Printf.sprintf "%.17g" t)

let trace ?t_max ?jobs ?store ?coarse ?levels ?edge_iters apply dom =
  let memo =
    Option.map
      (fun (lookup, save) ->
        { Engine.key = (fun ~x ~y -> material ?t_max apply ~x ~y); lookup; save })
      store
  in
  Engine.refine ?memo ?coarse ?levels ?edge_iters dom
    (verdicts ?t_max ?jobs apply)
