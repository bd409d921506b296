(* packet_cold: packet scenarios swept cold into a fresh store. The
   packet engine, [Scenario.compile] and [Faultnet.Exec] do the work;
   with [sample_dt = 1e-4] a payload is about 146 KB, so store writes
   are a small share. Fluid, refine and serve are not touched. *)

let sample_dt = 1e-4

type st = {
  seed : int;
  dir : string;
  cache : Store.Cache.t;
  mutable next : int;
  mutable events : int;
  c : Points.counters;
}

let setup (cfg : Harness.cfg) =
  let dir = Harness.fresh_dir cfg "store" in
  let cache = Store.Cache.open_ ~dir in
  (* two points of each kind, so lazy state is filled before timing *)
  ignore (Store.Sweep.sweep ~cache ~jobs:1 (Points.batch ~sample_dt ~seed:cfg.seed ~first:0 12));
  Store.Cache.reset_stats cache;
  {
    seed = cfg.seed;
    dir;
    cache;
    next = 12;
    events = 0;
    c = Points.counters ();
  }

(* One operation sweeps the next six points, one of each kind. Every
   16th outcome must equal a direct, storeless [Faultnet.Exec.run]. *)
let measure st (ph : Harness.phase) ~deadline =
  let first = ref true in
  while !first || Span.now () < deadline do
    first := false;
    let batch = Points.batch ~sample_dt ~seed:st.seed ~first:st.next 6 in
    let out = Points.sweep_batch ph st.c st.cache batch in
    let ok = ref true in
    Array.iteri
      (fun k o ->
        if not !Span.enabled then st.events <- st.events + Points.events o;
        if (st.next + k) mod 16 = 0 && not (Points.same o (Faultnet.Exec.run ~jobs:1 batch.(k)))
        then ok := false)
      out;
    Harness.count ph ~ok:!ok;
    st.next <- st.next + 6
  done

let finish st (ph : Harness.phase) =
  let reference = Points.batch ~sample_dt ~seed:0 ~first:0 12 in
  let text = Points.render reference (Store.Sweep.sweep ~jobs:1 reference) in
  let points = float_of_int (6 * List.length ph.lat) in
  {
    Harness.correct = Golden.check "packet_cold" text;
    child_rss_kb = 0;
    details =
      [
        ("points_per_s", points /. ph.wall, "points/s");
        ("sim_events_per_s", float_of_int st.events /. ph.wall, "events/s");
      ];
    layers = ("store.hit_ratio", Points.hit_ratio st.cache) :: Points.layers st.c;
  }

let workload =
  Harness.W { setup; discard = (fun st -> Harness.rm_rf st.dir); measure; finish }
