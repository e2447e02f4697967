type t = {
  workers : int;
  registry : Telemetry.Registry.t;
}

let create ?(registry = Telemetry.Registry.default) ~workers () =
  { workers = Stdlib.max 1 workers; registry }

let workers t = t.workers

type run_stats = {
  jobs : int;
  workers_used : int;
  steals : int;
  busy : float array;
  elapsed : float;
}

(* Flight-recorder names, interned once (intern takes a lock).  Worker
   spans carry (worker, job count); steal instants (thief, victim); queue
   instants (worker, local depth at job pickup); idle instants mark a
   worker running out of work to steal. *)
let recorder = Telemetry.Recorder.default
let nid_worker = Telemetry.Recorder.intern recorder "runner.pool.worker"
let nid_steal = Telemetry.Recorder.intern recorder "runner.pool.steal"
let nid_queue = Telemetry.Recorder.intern recorder "runner.pool.queue_depth"
let nid_idle = Telemetry.Recorder.intern recorder "runner.pool.idle"

let run t jobs =
  let n = Array.length jobs in
  let nw = Stdlib.max 1 (Stdlib.min t.workers n) in
  let started = Unix.gettimeofday () in
  let busy = Array.make nw 0. in
  let steals = Array.make nw 0 in
  let failure = Atomic.make None in
  let rec_on = Telemetry.Recorder.enabled recorder in
  let execute w job =
    let t0 = Unix.gettimeofday () in
    (try job ()
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       ignore (Atomic.compare_and_set failure None (Some (e, bt))));
    busy.(w) <- busy.(w) +. (Unix.gettimeofday () -. t0)
  in
  if nw = 1 then begin
    let rid = Telemetry.Recorder.begin_span recorder nid_worker 0 n in
    Array.iter
      (fun job -> if Atomic.get failure = None then execute 0 job)
      jobs;
    Telemetry.Recorder.end_span recorder nid_worker rid
  end
  else begin
    let deques = Array.init nw (fun _ -> Deque.create ()) in
    Array.iteri (fun i job -> Deque.push_back deques.(i mod nw) job) jobs;
    let worker w () =
      let rid = Telemetry.Recorder.begin_span recorder nid_worker w n in
      let next () =
        match Deque.pop_back deques.(w) with
        | Some _ as job ->
            if rec_on then
              Telemetry.Recorder.instant recorder nid_queue w
                (Deque.length deques.(w));
            job
        | None ->
            (* Scan the other deques for a victim, starting just past us so
               thieves spread out instead of mobbing worker 0. *)
            let rec scan k =
              if k >= nw then None
              else
                match Deque.steal deques.((w + k) mod nw) with
                | Some _ as job ->
                    steals.(w) <- steals.(w) + 1;
                    if rec_on then
                      Telemetry.Recorder.instant recorder nid_steal w
                        ((w + k) mod nw);
                    job
                | None -> scan (k + 1)
            in
            scan 1
      in
      let rec loop () =
        if Atomic.get failure = None then
          match next () with
          | Some job ->
              execute w job;
              loop ()
          | None -> if rec_on then Telemetry.Recorder.instant recorder nid_idle w 0
      in
      loop ();
      Telemetry.Recorder.end_span recorder nid_worker rid
    in
    let domains =
      Array.init (nw - 1) (fun i -> Domain.spawn (worker (i + 1)))
    in
    worker 0 ();
    Array.iter Domain.join domains
  end;
  let stolen = Array.fold_left ( + ) 0 steals in
  Telemetry.Metric.add (Telemetry.Registry.counter t.registry "runner.pool.jobs") n;
  Telemetry.Metric.add
    (Telemetry.Registry.counter t.registry "runner.pool.steals")
    stolen;
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
  { jobs = n; workers_used = nw; steals = stolen; busy; elapsed }
