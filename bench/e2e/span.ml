(* Bench-side tracing: spans placed around calls into each library's
   public functions, kept in memory and summarised (or written as JSONL)
   when the run ends. Timed with bechamel's monotonic clock — wall time
   from [Unix.gettimeofday] can step backwards.

   A span's self time is its duration minus its children's. Root spans
   are the workload's operations; their summed duration is the
   denominator every per-layer share is taken against, so the shares
   plus the roots' own self time ("unattributed") add up to 100%. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  op : int;  (** the root's id *)
  t0 : int64;
  t1 : int64;
}

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0
let stack : (int * int) list ref = ref [] (* (span id, op id), innermost first *)

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let push s = spans := s :: !spans

(* Record a finished span with explicit times — for the serve loop,
   where requests of two connections interleave and no call stack
   mirrors the span tree. Returns the span's id. *)
let record ~name ?(parent = -1) ?op ~t0 ~t1 () =
  let id = fresh () in
  let op = match op with Some o -> o | None -> id in
  push { id; name; parent; op; t0; t1 };
  id

let within name ~root f =
  let id = fresh () in
  let parent, op = match !stack with (p, o) :: _ when not root -> (p, o) | _ -> (-1, id) in
  stack := (id, op) :: !stack;
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now_ns () in
      stack := List.tl !stack;
      push { id; name; parent; op; t0; t1 })
    f

(* [op name f]: one traced operation (a root span); [with_ name f]: a
   stage inside the current operation. Both are a plain call when
   tracing is off. *)
let op name f = if !enabled then within name ~root:true f else f ()
let with_ name f = if !enabled then within name ~root:false f else f ()

let reset () =
  spans := [];
  stack := []

(* Spans recorded by another process (a forked fabric worker), renumbered
   into this process's id space. *)
let import (foreign : t list) =
  let base = !next_id in
  let shift i = if i < 0 then i else base + i in
  let top = List.fold_left (fun m s -> max m s.id) (-1) foreign in
  next_id := base + top + 1;
  List.iter
    (fun s -> push { s with id = shift s.id; parent = shift s.parent; op = shift s.op })
    foreign

let dur s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

type breakdown = {
  roots : int;
  root_s : float;  (** summed root durations *)
  root_self_s : float;  (** time inside roots not covered by any stage *)
  self_s : (string * float) list;  (** per stage name, summed self time *)
}

let breakdown all =
  let child_s = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_s s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child_s s.parent)))
    all;
  let self s = dur s -. Option.value ~default:0. (Hashtbl.find_opt child_s s.id) in
  let by_name = Hashtbl.create 32 in
  let roots = ref 0 and root_s = ref 0. and root_self_s = ref 0. in
  List.iter
    (fun s ->
      if s.parent < 0 then begin
        incr roots;
        root_s := !root_s +. dur s;
        root_self_s := !root_self_s +. self s
      end
      else
        Hashtbl.replace by_name s.name
          (self s +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    all;
  {
    roots = !roots;
    root_s = !root_s;
    root_self_s = !root_self_s;
    self_s = Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [];
  }

let write_jsonl path all =
  let module J = Telemetry.Json in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (J.obj
           [
             ("id", J.int s.id);
             ("name", J.str s.name);
             ("parent", J.int s.parent);
             ("op", J.int s.op);
             ("start_ns", Int64.to_string s.t0);
             ("end_ns", Int64.to_string s.t1);
           ]);
      output_char oc '\n')
    (List.rev all);
  close_out oc
