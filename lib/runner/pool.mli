(** Fixed-size [Domain] worker pool with per-worker work-stealing deques.

    Jobs are distributed round-robin across the workers' deques; each
    worker drains its own deque LIFO and, when empty, steals FIFO from the
    others.  Since jobs never enqueue further jobs, a worker that finds
    every deque empty is done.  [run] spawns [workers − 1] domains, works
    as the zeroth worker on the calling domain, and joins them all before
    returning — so at most [workers] domains exist at any moment, and a
    pool value can be reused across many sweeps.

    With [workers ≤ 1] (or a single job) no domain is spawned and jobs run
    serially on the caller — the [-j 1] baseline parallel runs must match.

    Job exceptions: the first raised exception is re-raised on the caller
    after every worker has drained (workers stop picking up new jobs once
    one has failed). *)

type t

val create : ?registry:Telemetry.Registry.t -> workers:int -> unit -> t
(** [workers] is clamped below at 1.  [registry] (default
    {!Telemetry.Registry.default}) receives the pool's counters —
    [runner.pool.jobs], [runner.pool.steals] — and the per-worker
    [runner.pool.worker_busy_seconds] histogram. *)

val workers : t -> int

type run_stats = {
  jobs : int;
  workers_used : int;   (** min(workers, jobs) *)
  steals : int;
  busy : float array;   (** per-worker seconds spent inside jobs *)
  elapsed : float;      (** wall-clock seconds of this [run] *)
}

val run : t -> (unit -> unit) array -> run_stats
