(** The experiment engine: deterministic domain-parallel sweeps over a
    content-addressed result cache.

    [map cfg ~name tasks] evaluates every task and returns their results
    in submission order.  For each task it consults, in order:

    + the content-addressed cache ([<cache>/<fingerprint>.json]) — results
      any previous sweep produced for the same content key, including the
      tasks an interrupted run of this sweep finished;
    + the domain pool, which computes the misses, storing each result in
      the cache the moment it completes.

    An interrupted sweep therefore resumes from the cache alone: the rerun
    computes only the tasks whose entries are missing.

    {b Determinism contract.}  Task results are a function of the task key
    and the sweep seed only: each task's RNG comes from
    {!Prelude.Rng.of_key} on [(cfg.seed, task.key)], and results land in a
    per-task slot.  Consequently [-j k] output is bit-identical to serial
    for every [k], and a cache hit is byte-identical to recomputation
    (given codec fidelity — see {!module:Task}).  No ordering, worker
    count, scheduling, or interruption history can change a sweep's value.

    {b Telemetry.}  The sweep maintains [runner.cache.hits] /
    [runner.cache.misses] / [runner.tasks.completed] counters (plus the
    pool's job counter and per-worker busy-time histogram) and emits one
    ["run_manifest"] event at pool shutdown carrying the sweep name,
    worker count, task count, computed count, cache hits, cache hit rate
    and elapsed wall-clock.  Where the time went is in the flight
    recorder: the pool runs inside a ["runner.sweep"] span (payload: tasks
    to compute, cache hits) and each computed task inside a
    ["runner.task"] span (task index, tasks in the sweep), so a per-task
    timing audit needs [--trace]. *)

module Task = Task
module Pool = Pool
module Cache = Cache

type config = {
  workers : int;            (** degree of parallelism; 1 = serial *)
  cache_dir : string option;(** [None] disables the cache *)
  seed : int;               (** sweep seed for per-task RNG derivation *)
}

val configure : config -> unit
(** Set the ambient configuration used when {!map} is called without an
    explicit one — the CLI's [-j] / [--cache] / [--no-cache] flags land
    here, so experiment code needs no plumbing. *)

val map :
  ?registry:Telemetry.Registry.t ->
  ?config:config ->
  name:string ->
  'a Task.t array ->
  'a array
(** Evaluate the sweep.  [name] labels its manifest.  Re-raises
    the first task exception after the pool stops; the results finished
    before it stay in the cache. *)
