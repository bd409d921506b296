open Numerics

type field = Vec2.t -> Vec2.t

type t =
  | Smooth of field
  | Switched of {
      sigma : Vec2.t -> float;
      pos : field;
      neg : field;
    }
  | Switched_fast of {
      sigma : Vec2.t -> float;
      pos : field;
      neg : field;
      rhs : Ode.field_auto;
      batch : Ode.Batch.rhs;
    }
  | Smooth_fast of {
      f : field;
      rhs : Ode.field_auto;
      batch : Ode.Batch.rhs;
    }

let eval sys p =
  match sys with
  | Smooth f | Smooth_fast { f; _ } -> f p
  | Switched { sigma; pos; neg } | Switched_fast { sigma; pos; neg; _ } ->
      if sigma p >= 0. then pos p else neg p

let sigma_opt = function
  | Smooth _ | Smooth_fast _ -> None
  | Switched { sigma; _ } | Switched_fast { sigma; _ } -> Some sigma

let region sys p =
  match sys with
  | Smooth _ | Smooth_fast _ -> `Pos
  | Switched { sigma; _ } | Switched_fast { sigma; _ } ->
      let s = sigma p in
      let scale = 1. +. Vec2.norm p in
      if Float.abs s <= 1e-12 *. scale then `Boundary
      else if s > 0. then `Pos
      else `Neg

(* The generic adapter funnels through the closure fields (allocating
   two Vec2 per evaluation); a [Switched_fast] system instead carries a
   hand-written [rhs] whose expressions mirror its closures bit for bit,
   so the in-place solvers evaluate it with zero allocation. *)
let to_auto sys : Ode.field_auto =
  match sys with
  | Switched_fast { rhs; _ } | Smooth_fast { rhs; _ } -> rhs
  | Smooth _ | Switched _ ->
      fun y dst ->
        let v = eval sys (Vec2.make y.(0) y.(1)) in
        dst.(0) <- v.Vec2.x;
        dst.(1) <- v.Vec2.y

(* Batched sweep for any system: the fallback evaluates the closures
   lane by lane (same expressions as [to_auto], so batching stays
   bit-identical to per-point stepping even for closure-based systems);
   [Switched_fast] carries a dedicated SoA sweep. *)
let batch_rhs sys : Ode.Batch.rhs =
  match sys with
  | Switched_fast { batch; _ } | Smooth_fast { batch; _ } -> batch
  | Smooth _ | Switched _ ->
      fun b xs ys dxs dys ->
        for i = 0 to b.Ode.Batch.n - 1 do
          let v = eval sys (Vec2.make xs.(i) ys.(i)) in
          dxs.(i) <- v.Vec2.x;
          dys.(i) <- v.Vec2.y
        done

let linear m = Smooth (fun p -> Mat2.apply m p)

let switched_linear ~sigma ~pos ~neg =
  Switched
    { sigma; pos = (fun p -> Mat2.apply pos p); neg = (fun p -> Mat2.apply neg p) }
