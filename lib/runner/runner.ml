(* This module is the library's entry point (it shares the library's
   name), so the building blocks are re-exported here. *)
module Task = Task
module Pool = Pool
module Cache = Cache

type config = { workers : int; cache_dir : string option; seed : int }

let default_config = { workers = 1; cache_dir = None; seed = 0 }

let ambient = ref default_config

(* A ["runner.task"] span carries (task index, tasks in the sweep); a
   ["runner.sweep"] span (tasks to compute, cache hits). *)
let recorder = Telemetry.Recorder.default
let nid_task = Telemetry.Recorder.intern recorder "runner.task"
let nid_sweep = Telemetry.Recorder.intern recorder "runner.sweep"

let configure cfg = ambient := cfg

let map ?(registry = Telemetry.Registry.default) ?config ~name tasks =
  let cfg = match config with Some c -> c | None -> !ambient in
  let n = Array.length tasks in
  let cache = Option.map Cache.open_dir cfg.cache_dir in
  (* Serve what the cache already holds: results any earlier sweep wrote
     for the same content keys, including the finished tasks of an
     interrupted run of this one. *)
  let results =
    Array.map
      (fun task ->
        Option.bind cache (fun c ->
            Option.bind (Cache.find c ~key:task.Task.key) task.Task.decode))
      tasks
  in
  let pending =
    Array.of_list
      (List.filter (fun i -> Option.is_none results.(i)) (List.init n Fun.id))
  in
  let to_compute = Array.length pending in
  let hits = n - to_compute in
  Telemetry.Metric.add
    (Telemetry.Registry.counter registry "runner.cache.hits")
    hits;
  Telemetry.Metric.add
    (Telemetry.Registry.counter registry "runner.cache.misses")
    to_compute;
  (* Live sweep progress: tasks are completed across pool domains, so a
     shared atomic drives the progress/ETA gauges any attached reporter
     (or a concurrent reader of the default registry) can poll. *)
  let completed = Atomic.make 0 in
  let sweep_t0 = Unix.gettimeofday () in
  let progress_gauge = Telemetry.Registry.gauge registry "runner.sweep.progress" in
  let eta_gauge = Telemetry.Registry.gauge registry "runner.sweep.eta_seconds" in
  Telemetry.Metric.set progress_gauge (if to_compute = 0 then 1. else 0.);
  Telemetry.Metric.set eta_gauge 0.;
  let note_done () =
    let d = Atomic.fetch_and_add completed 1 + 1 in
    Telemetry.Metric.set progress_gauge
      (float_of_int d /. float_of_int to_compute);
    let elapsed = Unix.gettimeofday () -. sweep_t0 in
    Telemetry.Metric.set eta_gauge
      (elapsed /. float_of_int d *. float_of_int (to_compute - d))
  in
  let job i () =
    let task = tasks.(i) in
    Telemetry.Recorder.with_span recorder nid_task i n (fun () ->
        let v = task.Task.compute (Task.rng ~seed:cfg.seed task) in
        results.(i) <- Some v;
        Option.iter
          (fun c -> Cache.store c ~key:task.Task.key (task.Task.encode v))
          cache;
        Telemetry.Metric.incr
          (Telemetry.Registry.counter registry "runner.tasks.completed");
        note_done ())
  in
  let pool = Pool.create ~registry ~workers:cfg.workers () in
  let stats =
    Telemetry.Recorder.with_span recorder nid_sweep to_compute hits (fun () ->
        Pool.run pool (Array.map job pending))
  in
  (* The pool is done — emit the sweep's audit record. *)
  Telemetry.Registry.emit registry "run_manifest" (fun () ->
      [
        ("sweep", Telemetry.Jsonx.String name);
        ("workers", Telemetry.Jsonx.Int (Pool.workers pool));
        ("tasks", Telemetry.Jsonx.Int n);
        ("computed", Telemetry.Jsonx.Int stats.Pool.jobs);
        ("cache_hits", Telemetry.Jsonx.Int hits);
        ( "cache_hit_rate",
          Telemetry.Jsonx.Float
            (if n = 0 then 0. else float_of_int hits /. float_of_int n) );
        ("elapsed_seconds", Telemetry.Jsonx.Float stats.Pool.elapsed);
      ]);
  Array.map
    (function
      | Some v -> v
      | None -> invalid_arg "Runner.map: task completed without a result")
    results
