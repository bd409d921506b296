module Scenario = Simnet.Scenario

type outcome = Simnet.Scenario.outcome =
  | Bcn_results of Simnet.Runner.result array
  | E2cm_result of Simnet.E2cm.result
  | Fera_result of Simnet.Fera.result
  | Multihop_result of Simnet.Multihop.result
  | Rcp_result of Simnet.Rcp.result

(* Scenario -> hooks -> results is entirely [Faultnet.Exec]'s job now
   (compile + per-replica salted injectors); the store layer only owns
   memoization. The Marshal layout of the first four constructors is
   unchanged, so pre-RCP cache entries stay readable. *)
let exec ?jobs s = Faultnet.Exec.run ?jobs s

let memo_run ?cache ?(refresh = false) ?jobs s =
  match cache with
  | None -> exec ?jobs s
  | Some c when refresh ->
      (* --no-cache semantics: do not read, do recompute, refresh the
         stored entry so later warm runs see current bits *)
      let v = exec ?jobs s in
      Cache.store_value c (Key.of_scenario s) v;
      v
  | Some c -> Cache.memo c (Key.of_scenario s) (fun () -> exec ?jobs s)

let sweep ?cache ?refresh ?jobs ?on_progress scenarios =
  let total = Array.length scenarios in
  if total = 0 then [||]
  else begin
    (match cache with
    | Some c ->
        let points = Array.map Key.of_scenario scenarios in
        Manifest.save c (Manifest.create ~points)
    | None -> ());
    let done_count = Atomic.make 0 in
    let task s =
      (* points are parallelized across the pool; each point runs its
         replicas sequentially so one sweep never oversubscribes *)
      let r = memo_run ?cache ?refresh ~jobs:1 s in
      (match on_progress with
      | Some f ->
          let d = Atomic.fetch_and_add done_count 1 + 1 in
          let cached =
            match cache with Some c -> (Cache.stats c).Cache.hits | None -> 0
          in
          f ~done_:d ~total ~cached
      | None -> ());
      r
    in
    Parallel.Pool.fan_out ?jobs ~what:"Store.Sweep.sweep" task scenarios
  end

let resilience_memo cache =
  {
    Faultnet.Resilience.lookup =
      (fun material -> Cache.find_value cache (Key.of_material material));
    save =
      (fun material summary ->
        Cache.store_value cache (Key.of_material material) summary);
  }

let verdict_memo cache =
  ( (fun material -> Cache.find_value cache (Key.of_material material)),
    fun material (verdict : bool) ->
      Cache.store_value cache (Key.of_material material) verdict )
