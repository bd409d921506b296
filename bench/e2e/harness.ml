(* One benchmark run of one workload: set up a few times, measure for a
   fixed wall-clock window, check the outputs, and print the result as
   one JSON line.

   The machine this was written on is shared: in slow phases of 5 to
   20 seconds, often longer than a run, the same computation takes up
   to 1.6 times as long, CPU time included, so no per-run statistic of
   raw timings is steady. The window is therefore cut into segments of
   about a second, and between segments the harness times [reference],
   a fixed computation of its own that no library change can touch.
   Every operation's time is also reported as a multiple of the
   reference time beside it: a program change moves that ratio, and a
   machine phase mostly does not.

   A run with [--trace 1] splits its window in two: the first half runs
   untraced and the second half traced, so the per-layer shares come
   with the tracing overhead measured in the same process. *)

module J = Telemetry.Json

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** about 1/50 of every size, for the smoke alias *)
  work : string;  (** this run's scratch directory, removed at exit *)
  spans_file : string option;
}

(* Operations of one phase. A latency is recorded per completed
   operation; [failed] counts error replies, refusals, crashed workers
   and outputs that disagree with their oracle. *)
type phase = {
  mutable lat : float list;  (** seconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable wall : float;
      (** seconds the operations took — the workload adds it up, leaving
          out the time its oracles take between operations *)
  mutable lat_refs : float list;  (** [lat], in reference times *)
  mutable wall_refs : float;  (** [wall], in reference times *)
  mutable ref_s : float list;  (** the reference times taken *)
}

let phase () =
  { lat = []; attempted = 0; failed = 0; wall = 0.; lat_refs = []; wall_refs = 0.; ref_s = [] }

let count ph ~ok =
  ph.attempted <- ph.attempted + 1;
  if not ok then ph.failed <- ph.failed + 1

type finish = {
  correct : bool;  (** every end-of-run oracle held *)
  child_rss_kb : int;  (** max VmHWM over the processes the workload forked *)
  details : (string * float * string) list;
      (** workload-specific end-to-end numbers, printed before the result *)
  layers : (string * float) list;  (** workload-specific per-layer values *)
}

type 's workload = {
  setup : cfg -> 's;  (** one fresh set-up; the harness times it *)
  discard : 's -> unit;  (** release a set-up that will not be measured *)
  measure : 's -> phase -> deadline:float -> unit;
      (** run operations until [deadline] ([Span.now] seconds); always
          completes at least one, and may be called again *)
  finish : 's -> phase -> finish;
      (** end-of-run oracles and extra numbers; releases everything *)
}

type packed = W : 's workload -> packed

(* The reference computation: sorting, boxing, list building and integer
   hashing — allocation and branches like the packet engine and the
   store, about 6 ms. Of the kernels tried beside the workloads' own
   operations (this one, SHA-256, an RK4 loop, a memory sweep) it
   followed the packet and store operations most closely. *)
let reference () =
  let t0 = Span.now () in
  let a = Array.init 16_384 (fun i -> float_of_int (i * 7919 mod 10007) *. 1.0001) in
  Array.sort compare a;
  let h =
    List.fold_left (fun h x -> ((h * 31) + int_of_float x) land 0xffffff) 0
      (List.rev (Array.to_list a))
  in
  ignore (Sys.opaque_identity h);
  Span.now () -. t0

let segment_s = 1.

(* ---- the metric sets BENCHMARK.json declares ---- *)

let e2e_metrics =
  [
    ("setup_s", "s");
    ("ops_per_ref", "1/ref");
    ("op_p50_refs", "ref");
    ("op_p90_refs", "ref");
    ("peak_rss_mb", "MB");
  ]

(* Stage spans the workloads place around library calls; each becomes a
   [<stage>.self_pct] share of the traced operation time. *)
let stages =
  [
    "store.key"; "store.find"; "store.mem"; "store.put"; "store.marshal";
    "store.unmarshal"; "store.manifest"; "store.lease";
    "simnet.compile"; "faultnet.wire"; "simnet.run"; "simnet.pack";
    "core.figures"; "refine.engine"; "refine.verdict";
    "serve.encode"; "serve.roundtrip"; "serve.parse";
    "fabric.merge_read"; "fabric.merge_render";
  ]

let layer_metrics =
  List.map (fun s -> (s ^ ".self_pct", "%")) stages
  @ [
      ("trace.unattributed_pct", "%");
      ("trace.overhead_pct", "%");
      ("trace.op_ms", "ms");
      ("simnet.events_per_s", "1/s");
      ("store.payload_kb", "KB");
      ("store.put_mb_per_s", "MB/s");
      ("store.find_mb_per_s", "MB/s");
      ("store.sha_mb_per_s", "MB/s");
      ("store.hit_ratio", "ratio");
      ("fabric.useful_ratio", "ratio");
      ("serve.executed_per_cold", "ratio");
      ("gc.minor_kwords_per_op", "count");
      ("gc.major_per_op", "count");
    ]

(* ---- statistics ---- *)

(* The quantile at [p] by the "exclusive" rule (position p·(n+1)), the
   one Python's [statistics.quantiles] uses by default. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n = 1 then a.(0)
  else
    let pos = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float pos)) in
    let frac = Float.min 1. (Float.max 0. (pos -. float_of_int j)) in
    a.(j - 1) +. (frac *. (a.(j) -. a.(j - 1)))

let median xs = quantile xs 0.5

(* ---- process and filesystem helpers ---- *)

let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) go

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Processes the workload forked and has not reaped yet; a run that
   fails kills and reaps them before it exits. *)
let children : int list ref = ref []

let fork f =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (try f ()
       with e ->
         prerr_endline (Printexc.to_string e);
         Unix._exit 1);
      Unix._exit 0
  | pid ->
      children := pid :: !children;
      pid

(* Wait for a forked process; true when it exited 0. *)
let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  children := List.filter (( <> ) pid) !children;
  st = Unix.WEXITED 0

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    !children

(* A new directory name under the run's scratch directory. *)
let fresh_dir =
  let k = ref 0 in
  fun cfg name ->
    incr k;
    Filename.concat cfg.work (Printf.sprintf "%s%d" name !k)

(* ---- one run ---- *)

let setups cfg = if cfg.smoke then 1 else 3

let per_layer cfg ~untraced ~traced ~gc0 ~gc1 (fin : finish) =
  let b = Span.breakdown !Span.spans in
  let pct s = if b.Span.root_s > 0. then 100. *. s /. b.Span.root_s else 0. in
  let per_op ph = ph.wall_refs /. float_of_int (max 1 ph.attempted) in
  let ops = max 1 traced.attempted in
  let stage_shares =
    List.map
      (fun s ->
        ( s ^ ".self_pct",
          pct (Option.value ~default:0. (List.assoc_opt s b.Span.self_s)) ))
      stages
  in
  (match List.find_opt (fun (n, _) -> not (List.mem n stages)) b.Span.self_s with
  | Some (n, _) -> failwith ("span outside the declared stages: " ^ n)
  | None -> ());
  let computed =
    stage_shares
    @ [
        ("trace.unattributed_pct", pct b.Span.root_self_s);
        ( "trace.overhead_pct",
          if per_op untraced > 0. then 100. *. ((per_op traced /. per_op untraced) -. 1.)
          else 0. );
        ( "trace.op_ms",
          if b.Span.roots > 0 then 1e3 *. b.Span.root_s /. float_of_int b.Span.roots
          else 0. );
        ( "gc.minor_kwords_per_op",
          (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e3 /. float_of_int ops );
        ( "gc.major_per_op",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)
          /. float_of_int ops );
      ]
    @ fin.layers
  in
  (match cfg.spans_file with
  | Some f -> Span.write_jsonl f !Span.spans
  | None -> ());
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name computed), unit))
    layer_metrics

let end_to_end ~setup_s ~rss_kb ph =
  [
    ("setup_s", median setup_s, "s");
    ("ops_per_ref", float_of_int (List.length ph.lat) /. ph.wall_refs, "1/ref");
    ("op_p50_refs", quantile ph.lat_refs 0.5, "ref");
    ("op_p90_refs", quantile ph.lat_refs 0.9, "ref");
    ("peak_rss_mb", float_of_int rss_kb /. 1024., "MB");
  ]

(* The same operations in plain wall-clock terms, as a user sees them. *)
let wall_clock ph =
  let ms p = 1e3 *. quantile ph.lat p in
  [
    ("ops_per_s", float_of_int (List.length ph.lat) /. ph.wall, "1/s");
    ("op_p50_ms", ms 0.5, "ms");
    ("op_p90_ms", ms 0.9, "ms");
    ("ref_ms", 1e3 *. median ph.ref_s, "ms");
  ]

let metrics_json ms =
  J.obj (List.map (fun (n, v, u) -> (n, J.obj [ ("value", J.float_full v); ("unit", J.str u) ])) ms)

(* Run [w.measure] in segments until [seconds] have passed, timing the
   reference before the first and after every segment; a segment's
   operations are scaled by the mean of the two reference times around
   it. *)
let window w s ph seconds =
  let stop = Span.now () +. seconds in
  let before = ref (reference ()) in
  ph.ref_s <- [ !before ];
  let first = ref true in
  while !first || Span.now () < stop do
    first := false;
    let seg = phase () in
    w.measure s seg ~deadline:(Float.min stop (Span.now () +. segment_s));
    let after = reference () in
    let r = (!before +. after) /. 2. in
    before := after;
    ph.ref_s <- after :: ph.ref_s;
    ph.lat <- seg.lat @ ph.lat;
    ph.lat_refs <- List.map (fun l -> l /. r) seg.lat @ ph.lat_refs;
    ph.attempted <- ph.attempted + seg.attempted;
    ph.failed <- ph.failed + seg.failed;
    ph.wall <- ph.wall +. seg.wall;
    ph.wall_refs <- ph.wall_refs +. (seg.wall /. r)
  done

let run cfg (W w) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p cfg.work;
  Fun.protect
    ~finally:(fun () ->
      kill_children ();
      rm_rf cfg.work)
    (fun () ->
      let setup_s = ref [] and state = ref None in
      for _ = 1 to setups cfg do
        Option.iter w.discard !state;
        let t0 = Span.now () in
        let s = w.setup cfg in
        setup_s := (Span.now () -. t0) :: !setup_s;
        state := Some s
      done;
      let s = Option.get !state in
      let untraced = phase () and traced = phase () in
      let gc0, gc1 =
        if not cfg.trace then begin
          window w s untraced cfg.seconds;
          (Gc.quick_stat (), Gc.quick_stat ())
        end
        else begin
          window w s untraced (cfg.seconds /. 2.);
          Span.reset ();
          Span.enabled := true;
          let gc0 = Gc.quick_stat () in
          window w s traced (cfg.seconds /. 2.);
          let gc1 = Gc.quick_stat () in
          Span.enabled := false;
          (gc0, gc1)
        end
      in
      let fin = w.finish s untraced in
      let rss_kb = max fin.child_rss_kb (vm_hwm_kb "self") in
      let attempted = untraced.attempted + traced.attempted
      and failed = untraced.failed + traced.failed in
      let metrics =
        if cfg.trace then per_layer cfg ~untraced ~traced ~gc0 ~gc1 fin
        else end_to_end ~setup_s:!setup_s ~rss_kb untraced
      in
      let details =
        (("fail_ratio", float_of_int failed /. float_of_int (max 1 attempted), "ratio")
         :: wall_clock untraced)
        @ fin.details
      in
      print_endline (J.obj [ ("workload", J.str cfg.workload); ("details", metrics_json details) ]);
      print_endline
        (J.obj
           [
             ("correct", J.bool (fin.correct && failed = 0));
             ("attempted", J.int attempted);
             ("failed", J.int failed);
             ("metrics", metrics_json metrics);
           ]))
