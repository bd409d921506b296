(* fabric_tiny: distributed sweeps of small BCN Bernoulli points (10 ms
   of simulated time) worked by two forked [Fabric.Worker.run]
   processes, then [Fabric.Merge.csv]. The write path does much of the
   work: small puts, index-journal appends and lease files; the merge is
   the matching bulk read. One operation is one whole sweep, workers and
   merge, which is what a user of [bcn_fabric] waits for.

   Set-up opens the shared store before any worker starts: two processes
   opening one fresh, empty store at once can fail (see README.md). *)

module S = Simnet.Scenario
module L = Store.Lease

let workers = 2
let chunk = 32

let base = S.bcn ~t_end:1e-2 ~sample_dt:1e-3 ~sampling:S.Bernoulli Fluid.Params.default
let spec ~first_seed count = Fabric.Spec.Seeds { base; first_seed; count }

(* What a worker process hands back to the parent. *)
type report = {
  executed : int;
  rss_kb : int;
  spans : Span.t list;
  layers : (string * float) list;  (** traced only *)
}

type st = {
  dir : string;
  cache : Store.Cache.t;
  seed : int;
  count : int;  (** points per sweep *)
  mutable sweeps : int;
  mutable points : int;  (** swept untraced *)
  mutable work_s : float;  (** untraced, worker phase only *)
  mutable merge_s : float list;  (** untraced *)
  mutable executed : int;
  mutable rss_kb : int;
  mutable layers : (string * float) list;
}

(* [Fabric.Worker.run] step by step, each library call under a span:
   the reconcile pass, then claim → [Cache.mem] and the memoized run per
   point → completion check → done marker, one operation per claimed
   range (the first also carries the point keys and the manifest). A
   slot a peer holds is waited for, never stolen: no worker dies here,
   so [Worker.run]'s steal pass never fires either. *)
let traced_worker cache spec ~worker =
  let scenarios = Fabric.Spec.scenarios spec in
  let ranges = Fabric.Spec.ranges ~total:(Array.length scenarios) ~chunk in
  let c = Points.counters () in
  let lease f = Span.with_ "store.lease" f in
  let mem key = Span.with_ "store.mem" (fun () -> Store.Cache.mem cache key) in
  let points = ref [||] and sweep = ref None in
  let preamble () =
    points := Span.with_ "store.key" (fun () -> Array.map Store.Key.of_scenario scenarios);
    let m = Store.Manifest.create ~points:!points in
    Span.with_ "store.manifest" (fun () -> Store.Manifest.save cache m);
    let sweep = m.Store.Manifest.sweep_key in
    Array.iteri
      (fun range _ -> ignore (lease (fun () -> L.is_done cache ~sweep ~range)))
      ranges;
    sweep
  in
  let executed = ref 0 in
  let execute sweep range (lo, hi) =
    for i = lo to hi do
      if not (mem !points.(i)) then begin
        ignore (Points.memo_run_traced c cache scenarios.(i));
        incr executed
      end
    done;
    let complete = ref true in
    for i = lo to hi do
      if not (mem !points.(i)) then complete := false
    done;
    lease (fun () ->
        if !complete then L.mark_done cache ~sweep ~range ~worker;
        L.release cache ~sweep ~range)
  in
  let next = ref 0 and finished = ref false in
  while not !finished do
    Span.op "op" (fun () ->
        let sweep =
          match !sweep with
          | Some s -> s
          | None ->
              let s = preamble () in
              sweep := Some s;
              s
        in
        let rec claim () =
          if !next >= Array.length ranges then None
          else begin
            let range = !next in
            incr next;
            let lo, hi = ranges.(range) in
            if lease (fun () ->
                   (not (L.is_done cache ~sweep ~range)) && L.claim cache ~sweep ~range ~lo ~hi ~worker)
            then Some range
            else claim ()
          end
        in
        match claim () with
        | Some range -> execute sweep range ranges.(range)
        | None -> finished := true)
  done;
  let sweep = Option.get !sweep in
  let all_done () =
    Array.for_all Fun.id (Array.mapi (fun range _ -> L.is_done cache ~sweep ~range) ranges)
  in
  while not (all_done ()) do
    Unix.sleepf 0.05
  done;
  (!executed, Points.layers c)

(* One worker process; writes its report to [out]. *)
let worker_main ~dir ~out ~traced ~name spec =
  let cache = Store.Cache.open_ ~dir in
  Span.reset ();
  Span.enabled := traced;
  let executed, layers =
    if traced then traced_worker cache spec ~worker:name
    else ((Fabric.Worker.run ~jobs:1 ~chunk ~worker:name cache spec).Fabric.Worker.executed, [])
  in
  let oc = open_out_bin out in
  Marshal.to_channel oc
    { executed; rss_kb = Harness.vm_hwm_kb "self"; spans = !Span.spans; layers }
    [];
  close_out oc

(* [Fabric.Merge.csv], step by step under spans when tracing. *)
let merge cache spec =
  if not !Span.enabled then Fabric.Merge.csv cache spec
  else
    Span.op "op" (fun () ->
        let keys = Span.with_ "store.key" (fun () -> Fabric.Spec.points spec) in
        let outcomes =
          Span.with_ "fabric.merge_read" (fun () ->
              Array.map
                (fun k ->
                  match (Store.Cache.find_value cache k : Store.Sweep.outcome option) with
                  | Some o -> o
                  | None -> failwith "Fabric.Merge.csv: point missing from the store")
                keys)
        in
        Span.with_ "fabric.merge_render" (fun () -> Fabric.Merge.csv_of spec outcomes))

let lines s = List.length (String.split_on_char '\n' (String.trim s))

(* One sweep: fork the workers, wait for them, merge. A crashed worker
   or a point missing from the merge fails the sweep. *)
let sweep st (ph : Harness.phase) =
  let traced = !Span.enabled in
  let count = st.count in
  let spec = spec ~first_seed:((st.seed * 100_000_000) + (st.sweeps * count)) count in
  st.sweeps <- st.sweeps + 1;
  let t0 = Span.now () in
  let outs =
    List.init workers (fun w ->
        let out = Filename.concat st.dir (Printf.sprintf "worker%d.out" w) in
        let name = Printf.sprintf "w%d.%d" w st.sweeps in
        let dir = Store.Cache.root st.cache in
        (out, Harness.fork (fun () -> worker_main ~dir ~out ~traced ~name spec)))
  in
  let reports =
    List.map
      (fun (out, pid) ->
        if Harness.reap pid then begin
          let ic = open_in_bin out in
          let r : report = Marshal.from_channel ic in
          close_in ic;
          Sys.remove out;
          Some r
        end
        else None)
      outs
  in
  let t1 = Span.now () in
  let csv = try Some (merge st.cache spec) with Failure _ -> None in
  let t2 = Span.now () in
  ph.lat <- (t2 -. t0) :: ph.lat;
  ph.wall <- ph.wall +. (t2 -. t0);
  let reports = List.filter_map Fun.id reports in
  Harness.count ph
    ~ok:
      (List.length reports = workers
      && match csv with Some c -> lines c = count + 1 | None -> false);
  List.iter
    (fun r ->
      Span.import r.spans;
      if r.layers <> [] then st.layers <- r.layers;
      st.rss_kb <- max st.rss_kb r.rss_kb)
    reports;
  if not traced then begin
    st.points <- st.points + count;
    st.work_s <- st.work_s +. (t1 -. t0);
    st.merge_s <- (t2 -. t1) :: st.merge_s;
    st.executed <- st.executed + List.fold_left (fun a (r : report) -> a + r.executed) 0 reports
  end

let setup (cfg : Harness.cfg) =
  let dir = Harness.fresh_dir cfg "fabric" in
  let cache = Store.Cache.open_ ~dir:(Filename.concat dir "store") in
  (* a storeless in-process sweep first, so lazy state is filled before
     timing *)
  ignore
    (Store.Sweep.sweep ~jobs:1
       (Fabric.Spec.scenarios (spec ~first_seed:((cfg.seed * 100_000_000) + 99_000_000) 256)));
  {
    dir;
    cache;
    seed = cfg.seed;
    count = (if cfg.smoke then 64 else 256);
    sweeps = 0;
    points = 0;
    work_s = 0.;
    merge_s = [];
    executed = 0;
    rss_kb = 0;
    layers = [];
  }

let measure st ph ~deadline =
  let first = ref true in
  while !first || Span.now () < deadline do
    first := false;
    sweep st ph
  done

(* The merged bytes of a fixed sweep must equal the single-process
   [Store.Sweep] path rendered the same way. *)
let finish st (_ : Harness.phase) =
  let cache = Store.Cache.open_ ~dir:(Filename.concat st.dir "reference") in
  let reference = spec ~first_seed:0 256 in
  ignore (Fabric.Worker.run ~chunk ~worker:"reference" cache reference);
  let csv = Fabric.Merge.csv cache reference in
  let direct =
    Fabric.Merge.csv_of reference (Store.Sweep.sweep ~jobs:1 (Fabric.Spec.scenarios reference))
  in
  Harness.rm_rf st.dir;
  {
    Harness.correct = csv = direct && Golden.check "fabric_tiny" csv;
    child_rss_kb = st.rss_kb;
    details =
      [
        ("points_per_s", float_of_int st.points /. st.work_s, "points/s");
        ("merge_s", Harness.median st.merge_s, "s");
      ];
    layers =
      ("fabric.useful_ratio", float_of_int st.points /. float_of_int (max 1 st.executed))
      :: st.layers;
  }

let workload =
  Harness.W { setup; discard = (fun st -> Harness.rm_rf st.dir); measure; finish }
