(* This module is the library's entry point (it shares the library's
   name), so the building blocks are re-exported here. *)
module Task = Task
module Deque = Deque
module Pool = Pool
module Cache = Cache
module Checkpoint = Checkpoint

type config = {
  workers : int;
  cache_dir : string option;
  checkpoints : bool;
  seed : int;
}

let default_config = { workers = 1; cache_dir = None; checkpoints = true; seed = 0 }

let ambient = ref default_config

let configure cfg = ambient := cfg

(* Journal names must be path-safe; sweeps are named by experiment, e.g.
   "table2.basic.n20". *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
      | _ -> '_')
    name

let map ?(registry = Telemetry.Registry.default) ?config ~name tasks =
  let cfg = match config with Some c -> c | None -> !ambient in
  let n = Array.length tasks in
  let cache = Option.map Cache.open_dir cfg.cache_dir in
  let journal =
    match (cache, cfg.checkpoints) with
    | Some c, true ->
        Some
          (Checkpoint.load ~telemetry:registry
             (Filename.concat (Cache.dir c) (sanitize name ^ ".journal.jsonl")))
    | _ -> None
  in
  let fingerprints = Array.map Task.fingerprint tasks in
  let results = Array.make n None in
  let hits = ref 0 and resumed = ref 0 in
  (* Serve what disk already knows: journal first (this sweep's own
     progress), then the cross-sweep cache. *)
  Array.iteri
    (fun i task ->
      let decoded =
        match
          Option.bind journal (fun j -> Checkpoint.find j ~fingerprint:fingerprints.(i))
        with
        | Some v -> (
            match task.Task.decode v with
            | Some r ->
                incr resumed;
                Some r
            | None -> None)
        | None -> (
            match Option.bind cache (fun c -> Cache.find c ~key:task.Task.key) with
            | Some v -> (
                match task.Task.decode v with
                | Some r ->
                    incr hits;
                    (* Promote into the journal so a later resume of this
                       sweep is self-contained. *)
                    Option.iter
                      (fun j ->
                        Checkpoint.record j ~fingerprint:fingerprints.(i) v)
                      journal;
                    Some r
                | None -> None)
            | None -> None)
      in
      results.(i) <- decoded)
    tasks;
  let served = !hits + !resumed in
  Telemetry.Metric.add (Telemetry.Registry.counter registry "runner.cache.hits") served;
  Telemetry.Metric.add
    (Telemetry.Registry.counter registry "runner.cache.misses")
    (n - served);
  let pending =
    Array.of_list
      (List.filter (fun i -> results.(i) = None) (List.init n Fun.id))
  in
  (* Live sweep progress: tasks are completed across pool domains, so a
     shared atomic drives the progress/ETA gauges any attached reporter
     (or a concurrent reader of the default registry) can poll. *)
  let completed = Atomic.make 0 in
  let sweep_t0 = Unix.gettimeofday () in
  let progress_gauge = Telemetry.Registry.gauge registry "runner.sweep.progress" in
  let eta_gauge = Telemetry.Registry.gauge registry "runner.sweep.eta_seconds" in
  let to_compute = Array.length pending in
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
    Telemetry.Span.with_span ~registry
      ~fields:(fun () ->
        [
          ("sweep", Telemetry.Jsonx.String name);
          ("task", Telemetry.Jsonx.String fingerprints.(i));
        ])
      "runner.task"
      (fun () ->
        let v = task.Task.compute (Task.rng ~seed:cfg.seed task) in
        results.(i) <- Some v;
        let encoded = task.Task.encode v in
        Option.iter (fun c -> Cache.store c ~key:task.Task.key encoded) cache;
        Option.iter
          (fun j -> Checkpoint.record j ~fingerprint:fingerprints.(i) encoded)
          journal;
        Telemetry.Metric.incr
          (Telemetry.Registry.counter registry "runner.tasks.completed");
        note_done ())
  in
  let pool = Pool.create ~registry ~workers:cfg.workers () in
  let finish () = Option.iter Checkpoint.close journal in
  let stats =
    Fun.protect ~finally:finish (fun () ->
        Telemetry.Span.with_span ~registry
          ~fields:(fun () -> [ ("sweep", Telemetry.Jsonx.String name) ])
          "runner.sweep"
          (fun () -> Pool.run pool (Array.map job pending)))
  in
  (* The pool is done — emit the sweep's audit record. *)
  Telemetry.Registry.emit registry "run_manifest" (fun () ->
      [
        ("sweep", Telemetry.Jsonx.String name);
        ("workers", Telemetry.Jsonx.Int (Pool.workers pool));
        ("tasks", Telemetry.Jsonx.Int n);
        ("computed", Telemetry.Jsonx.Int stats.Pool.jobs);
        ("cache_hits", Telemetry.Jsonx.Int !hits);
        ("resumed", Telemetry.Jsonx.Int !resumed);
        ( "cache_hit_rate",
          Telemetry.Jsonx.Float
            (if n = 0 then 0. else float_of_int served /. float_of_int n) );
        ("steals", Telemetry.Jsonx.Int stats.Pool.steals);
        ("elapsed_seconds", Telemetry.Jsonx.Float stats.Pool.elapsed);
      ]);
  Array.map
    (function
      | Some v -> v
      | None -> invalid_arg "Runner.map: task completed without a result")
    results
