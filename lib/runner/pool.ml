type t = {
  workers : int;
  registry : Telemetry.Registry.t;
}

let create ?(registry = Telemetry.Registry.default) ~workers () =
  { workers = Stdlib.max 1 workers; registry }

let workers t = t.workers

type run_stats = { jobs : int; elapsed : float }

(* Flight-recorder names, interned once (intern takes a lock).  Worker
   spans carry (worker, job count); idle instants mark a worker finding
   no job left to claim. *)
let recorder = Telemetry.Recorder.default
let nid_worker = Telemetry.Recorder.intern recorder "runner.pool.worker"
let nid_idle = Telemetry.Recorder.intern recorder "runner.pool.idle"

let run t jobs =
  let n = Array.length jobs in
  let nw = Stdlib.max 1 (Stdlib.min t.workers n) in
  let started = Unix.gettimeofday () in
  let busy = Array.make nw 0. in
  let failure = Atomic.make None in
  (* One shared cursor is the whole queue: each worker claims the next
     unclaimed index until the cursor runs past the last job. *)
  let cursor = Atomic.make 0 in
  let worker w () =
    let rec loop () =
      if Atomic.get failure = None then begin
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          let t0 = Unix.gettimeofday () in
          (try jobs.(i) ()
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          busy.(w) <- busy.(w) +. (Unix.gettimeofday () -. t0);
          loop ()
        end
        else Telemetry.Recorder.instant recorder nid_idle w 0
      end
    in
    Telemetry.Recorder.with_span recorder nid_worker w n loop
  in
  let domains = Array.init (nw - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  Array.iter Domain.join domains;
  Telemetry.Metric.add (Telemetry.Registry.counter t.registry "runner.pool.jobs") n;
  let busy_hist =
    Telemetry.Registry.histogram t.registry "runner.pool.worker_busy_seconds"
  in
  Array.iter (fun s -> Telemetry.Metric.observe busy_hist s) busy;
  let elapsed = Unix.gettimeofday () -. started in
  (* Per-worker utilization gauges: busy seconds over wall seconds, one
     gauge per worker slot so stragglers are visible in the report. *)
  Array.iteri
    (fun w s ->
      Telemetry.Metric.set
        (Telemetry.Registry.gauge t.registry
           (Printf.sprintf "runner.pool.worker%d.utilization" w))
        (if elapsed > 0. then s /. elapsed else 0.))
    busy;
  (match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  { jobs = n; elapsed }
