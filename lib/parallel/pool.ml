type task = unit -> unit

type t = {
  size : int;
  mutable workers : unit Domain.t list;
  queue : task Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  (* per-lane wall-clock accounting: lane 0 is the caller, lanes
     1..size-1 the workers. Each lane only ever writes its own slot
     (word-sized stores, no tearing), so no lock is needed; readers get
     a racy-but-consistent-per-slot snapshot. *)
  lane_busy : float array;
  lane_tasks : int array;
}

type lane_stats = { lane : int; busy_s : float; tasks_run : int }

let default_size () =
  match Sys.getenv_opt "DCECC_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let try_pop pool =
  Mutex.lock pool.lock;
  let job =
    if Queue.is_empty pool.queue then None else Some (Queue.pop pool.queue)
  in
  Mutex.unlock pool.lock;
  job

let run_on_lane pool lane job =
  let t0 = Unix.gettimeofday () in
  (* tasks are wrapped and never raise; be defensive anyway *)
  (try job () with _ -> ());
  pool.lane_busy.(lane) <- pool.lane_busy.(lane) +. (Unix.gettimeofday () -. t0);
  pool.lane_tasks.(lane) <- pool.lane_tasks.(lane) + 1

(* Workers block on [nonempty]; the caller never blocks here — it drains
   with [try_pop] and then waits on its batch's completion latch. *)
let worker_loop pool lane () =
  let rec next () =
    Mutex.lock pool.lock;
    let rec await () =
      if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
      else if pool.closed then None
      else begin
        Condition.wait pool.nonempty pool.lock;
        await ()
      end
    in
    let job = await () in
    Mutex.unlock pool.lock;
    match job with
    | Some job ->
        run_on_lane pool lane job;
        next ()
    | None -> ()
  in
  next ()

let create ?size () =
  let size = match size with Some s -> s | None -> default_size () in
  if size < 1 then invalid_arg "Parallel.Pool.create: size < 1";
  let pool =
    {
      size;
      workers = [];
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      lane_busy = Array.make size 0.;
      lane_tasks = Array.make size 0;
    }
  in
  pool.workers <-
    List.init (size - 1) (fun i -> Domain.spawn (worker_loop pool (i + 1)));
  pool

let size pool = pool.size

let lane_stats pool =
  Array.init pool.size (fun i ->
      { lane = i; busy_s = pool.lane_busy.(i); tasks_run = pool.lane_tasks.(i) })

let shutdown pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let with_pool ?size f =
  let pool = create ?size () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Fire-and-forget submission for long-lived pools (the serve daemon's
   scheduler). The caller does not help drain here — completion is the
   task's own business (it signals through whatever channel it was built
   with) — so the pool needs at least one worker domain to make
   progress. *)
let submit pool job =
  if pool.size < 2 then
    invalid_arg "Parallel.Pool.submit: pool has no worker domains";
  Mutex.lock pool.lock;
  if pool.closed then begin
    Mutex.unlock pool.lock;
    invalid_arg "Parallel.Pool.submit: pool is shut down"
  end;
  Queue.push job pool.queue;
  Condition.signal pool.nonempty;
  Mutex.unlock pool.lock

let pending pool =
  Mutex.lock pool.lock;
  let n = Queue.length pool.queue in
  Mutex.unlock pool.lock;
  n

(* Run every task to completion. The caller submits, then helps drain the
   queue, then waits on a completion latch for tasks still in flight on
   worker domains. Tasks must not raise (callers wrap them). *)
let run_tasks pool (tasks : task array) =
  let n = Array.length tasks in
  if pool.size = 1 || n <= 1 then
    Array.iter (fun job -> run_on_lane pool 0 job) tasks
  else begin
    let remaining = Atomic.make n in
    let latch = Mutex.create () in
    let all_done = Condition.create () in
    let wrap job () =
      Fun.protect
        ~finally:(fun () ->
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            Mutex.lock latch;
            Condition.broadcast all_done;
            Mutex.unlock latch
          end)
        job
    in
    Mutex.lock pool.lock;
    Array.iter (fun job -> Queue.push (wrap job) pool.queue) tasks;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.lock;
    let rec help () =
      match try_pop pool with
      | Some job ->
          run_on_lane pool 0 job;
          help ()
      | None -> ()
    in
    help ();
    Mutex.lock latch;
    while Atomic.get remaining > 0 do
      Condition.wait all_done latch
    done;
    Mutex.unlock latch
  end

(* Apply [f] to [n] inputs, storing per-slot results; re-raise the
   earliest failure (by input position) with its backtrace. *)
let run_indexed pool n (f : int -> 'b) : 'b array =
  let results :
      ('b, exn * Printexc.raw_backtrace) result option array =
    Array.make n None
  in
  let tasks =
    Array.init n (fun i () ->
        results.(i) <-
          Some
            (try Ok (f i)
             with e -> Error (e, Printexc.get_raw_backtrace ())))
  in
  run_tasks pool tasks;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results

let map_array pool f arr =
  run_indexed pool (Array.length arr) (fun i -> f arr.(i))

let map pool f xs = Array.to_list (map_array pool f (Array.of_list xs))

let fan_out ?jobs ~what f arr =
  if Array.length arr = 0 then [||]
  else begin
    let size = match jobs with Some j -> j | None -> default_size () in
    if size < 1 then invalid_arg (what ^ ": jobs < 1");
    if size = 1 || Array.length arr = 1 then Array.map f arr
    else with_pool ~size (fun pool -> map_array pool f arr)
  end

let parmap_array ?chunk pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Parallel.Pool.parmap_array: chunk < 1"
      | None -> Stdlib.max 1 (n / (pool.size * 4))
    in
    let nchunks = (n + chunk - 1) / chunk in
    let pieces =
      run_indexed pool nchunks (fun c ->
          let lo = c * chunk in
          let hi = Stdlib.min n (lo + chunk) in
          Array.init (hi - lo) (fun j -> f arr.(lo + j)))
    in
    Array.concat (Array.to_list pieces)
  end

let map_reduce pool ~map:f ~combine ~init xs =
  List.fold_left combine init (map pool f xs)
