(* store_rerun: warm re-sweeps of points a cold sweep stored in set-up.
   The engine does no work; the store's read path does all of it —
   [Key.of_scenario], [Cache.find] (read plus SHA-256 re-verification)
   and the unmarshal. At the CLI default [sample_dt = 1e-5] a BCN
   payload is about 1.7 MB, so this is the "why is a warm answer slow"
   question made measurable. *)

let sample_dt = 1e-5
let batches = 4

type st = {
  dir : string;
  cache : Store.Cache.t;
  points : Simnet.Scenario.t array array;  (** six points per batch *)
  digests : Digest.t array array;  (** of each cold outcome's Marshal bytes *)
  batch_bytes : int array;  (** payload bytes one re-sweep reads *)
  mutable next : int;
  mutable bytes : int;  (** payload bytes re-read untraced *)
  c : Points.counters;
}

let fill cache points =
  Array.map (fun o -> Marshal.to_string o []) (Store.Sweep.sweep ~cache ~jobs:1 points)

let setup (cfg : Harness.cfg) =
  let dir = Harness.fresh_dir cfg "store" in
  let cache = Store.Cache.open_ ~dir in
  let points =
    Array.init batches (fun b -> Points.batch ~sample_dt ~seed:cfg.seed ~first:(6 * b) 6)
  in
  let payloads = Array.map (fill cache) points in
  Store.Cache.reset_stats cache;
  {
    dir;
    cache;
    points;
    digests = Array.map (Array.map Digest.string) payloads;
    batch_bytes =
      Array.map (Array.fold_left (fun a p -> a + String.length p) 0) payloads;
    next = 0;
    bytes = 0;
    c = Points.counters ();
  }

(* One operation re-sweeps one stored batch. It must miss nothing, and
   every 16th warm outcome must be Marshal-identical to its cold fill. *)
let measure st (ph : Harness.phase) ~deadline =
  let first = ref true in
  while !first || Span.now () < deadline do
    first := false;
    let b = st.next mod batches in
    let misses = (Store.Cache.stats st.cache).misses in
    let out = Points.sweep_batch ph st.c st.cache st.points.(b) in
    let ok = ref ((Store.Cache.stats st.cache).misses = misses) in
    Array.iteri
      (fun k o ->
        if ((6 * st.next) + k) mod 16 = 0
           && Digest.string (Marshal.to_string o []) <> st.digests.(b).(k)
        then ok := false)
      out;
    Harness.count ph ~ok:!ok;
    st.next <- st.next + 1;
    if not !Span.enabled then st.bytes <- st.bytes + st.batch_bytes.(b)
  done

let finish st (ph : Harness.phase) =
  let cache = Store.Cache.open_ ~dir:(Filename.concat st.dir "reference") in
  let reference = Points.batch ~sample_dt ~seed:0 ~first:0 6 in
  let cold = fill cache reference in
  let warm = Store.Sweep.sweep ~cache ~jobs:1 reference in
  let same = Array.for_all2 (fun c w -> c = Marshal.to_string w []) cold warm in
  let points = float_of_int (6 * List.length ph.lat) in
  {
    Harness.correct = same && Golden.check "store_rerun" (Points.render reference warm);
    child_rss_kb = 0;
    details =
      [
        ("points_per_s", points /. ph.wall, "points/s");
        ("read_mb_per_s", float_of_int st.bytes /. 1e6 /. ph.wall, "MB/s");
      ];
    layers = ("store.hit_ratio", Points.hit_ratio st.cache) :: Points.layers st.c;
  }

let workload =
  Harness.W { setup; discard = (fun st -> Harness.rm_rf st.dir); measure; finish }
