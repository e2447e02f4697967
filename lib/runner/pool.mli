(** Fixed-size [Domain] worker pool over one shared job cursor.

    Workers claim job indices in submission order from a single atomic
    counter.  Since jobs never enqueue further jobs, a worker whose claim
    runs past the last index is done.  [run] spawns [workers − 1] domains,
    works as the zeroth worker on the calling domain, and joins them all
    before returning — so at most [workers] domains exist at any moment,
    and a pool value can be reused across many sweeps.

    With [workers ≤ 1] (or a single job) no domain is spawned and jobs run
    serially on the caller — the [-j 1] baseline parallel runs must match.

    Job exceptions: the first raised exception is re-raised on the caller
    after every worker has stopped (workers claim no new job once one has
    failed). *)

type t

val create : ?registry:Telemetry.Registry.t -> workers:int -> unit -> t
(** [workers] is clamped below at 1.  [registry] (default
    {!Telemetry.Registry.default}) receives the pool's
    [runner.pool.jobs] counter, the per-worker
    [runner.pool.worker_busy_seconds] histogram and the
    [runner.pool.worker<k>.utilization] gauges. *)

val workers : t -> int

type run_stats = {
  jobs : int;           (** jobs submitted to this [run] *)
  elapsed : float;      (** wall-clock seconds of this [run] *)
}

val run : t -> (unit -> unit) array -> run_stats
