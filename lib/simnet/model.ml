open Numerics

type control_channel =
  Engine.t ->
  Packet.t ->
  deliver:(Engine.t -> Packet.t -> unit) ->
  drop:(Engine.t -> Packet.t -> unit) ->
  unit

let check what ~t_end ~sample_dt ?interval () =
  let pos name x =
    if not (Float.is_finite x) || x <= 0. then
      invalid_arg
        (Printf.sprintf "%s: %s = %g must be finite and > 0" what name x)
  in
  pos "t_end" t_end;
  pos "sample_dt" sample_dt;
  Option.iter (pos "interval") interval

(* ---------------- trace sampler ---------------- *)

type trace = { ts : float array; cols : float array array; mutable m : int }

let trace ?stop e ~t_end ~sample_dt ~cols fill =
  let n_samples = int_of_float (Float.ceil (t_end /. sample_dt)) + 1 in
  let tr =
    {
      ts = Array.make n_samples 0.;
      cols = Array.init cols (fun _ -> Array.make n_samples 0.);
      m = 0;
    }
  in
  let row = Array.make cols 0. in
  let rec sampler e =
    if tr.m < n_samples then begin
      tr.ts.(tr.m) <- Engine.now e;
      fill e row;
      for j = 0 to cols - 1 do
        tr.cols.(j).(tr.m) <- row.(j)
      done;
      tr.m <- tr.m + 1
    end;
    match stop with
    | Some stop when stop () -> Engine.stop e
    | Some _ | None ->
        if Engine.now e +. sample_dt <= t_end then
          Engine.schedule e ~delay:sample_dt sampler
  in
  Engine.schedule e ~delay:0. sampler;
  Engine.run ~until:t_end e;
  tr

let samples tr = tr.m

let series tr j =
  Series.make (Array.sub tr.ts 0 tr.m) (Array.sub tr.cols.(j) 0 tr.m)

(* ---------------- FIFO link ---------------- *)

type link = {
  fifo : Fifo.t;
  rate : float;
  mutable busy : bool;
  mutable delivered : float;
}

let link ~buffer ~rate =
  { fifo = Fifo.create ~capacity_bits:buffer; rate; busy = false; delivered = 0. }

let fifo l = l.fifo
let delivered_bits l = l.delivered

let rec serve l e =
  if not l.busy then
    match Fifo.dequeue l.fifo with
    | None -> ()
    | Some pkt ->
        l.busy <- true;
        Engine.schedule e
          ~delay:(float_of_int pkt.Packet.bits /. l.rate)
          (fun e ->
            l.busy <- false;
            l.delivered <- l.delivered +. float_of_int pkt.Packet.bits;
            serve l e)

(* ---------------- paced sources ---------------- *)

let pace e ~t_end rates emit =
  let frame = float_of_int Packet.data_frame_bits in
  let rec send i e =
    if Engine.now e <= t_end then begin
      emit e i;
      Engine.schedule e ~delay:(frame /. rates.(i)) (send i)
    end
  in
  for i = 0 to Array.length rates - 1 do
    let jitter = frame /. rates.(i) *. (float_of_int (i mod 97) /. 97.) in
    Engine.schedule e ~delay:jitter (send i)
  done

(* ---------------- feedback leg ---------------- *)

let feedback channel ~delay =
  let seq = ref 0 in
  fun e ~flow ~fb react ->
    match channel with
    | None -> Engine.schedule e ~delay react
    | Some chan ->
        let pkt =
          Packet.make_bcn ~seq:!seq ~now:(Engine.now e) ~flow ~fb ~cpid:1
        in
        incr seq;
        chan e pkt
          ~deliver:(fun e _pkt -> Engine.schedule e ~delay react)
          ~drop:(fun _e _pkt -> ())
