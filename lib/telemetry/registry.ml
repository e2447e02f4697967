type t = {
  label : string;
  clock : unit -> float;
  mutex : Mutex.t;
      (* Guards the metric tables, the sink list and sink emission, so
         instrumented code may run on any domain (the experiment runner
         executes tasks on a Domain pool).  Metric *updates* (incr/observe)
         are deliberately left outside the lock: they are single-field
         stores, racy-but-memory-safe, and locking them would tax every
         hot loop. *)
  mutable sinks : Sink.t list;
  counters : (string, Metric.counter) Hashtbl.t;
  gauges : (string, Metric.gauge) Hashtbl.t;
  histograms : (string, Metric.histogram) Hashtbl.t;
}

let create ?(label = "registry") ?(clock = Unix.gettimeofday) () =
  {
    label;
    clock;
    mutex = Mutex.create ();
    sinks = [];
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let default = create ~label:"default" ()

let label t = t.label

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* On every solve's counter lookups: a plain lock/unlock pair, since the
   lookup cannot raise. *)
let get_or_create t table make name =
  Mutex.lock t.mutex;
  let m =
    match Hashtbl.find_opt table name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add table name m;
        m
  in
  Mutex.unlock t.mutex;
  m

let counter t name = get_or_create t t.counters Metric.counter name

let gauge t name = get_or_create t t.gauges Metric.gauge name

let histogram t name = get_or_create t t.histograms Metric.histogram name

let add_sink t sink = locked t (fun () -> t.sinks <- sink :: t.sinks)

let remove_sink t sink =
  locked t (fun () -> t.sinks <- List.filter (fun s -> s != sink) t.sinks)

let active t = t.sinks <> []

let emit t name fields =
  match t.sinks with
  | [] -> ()
  | _ ->
      (* Build and deliver under the lock: sinks see whole events and the
         JSONL lines of concurrent domains never interleave. *)
      locked t (fun () ->
          match t.sinks with
          | [] -> ()
          | sinks ->
              let event = Event.make ~at:(t.clock ()) ~name (fields ()) in
              List.iter (fun sink -> Sink.emit sink event) sinks)

let sorted t table =
  locked t (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t = sorted t t.counters

let gauges t = sorted t t.gauges

let histograms t = sorted t t.histograms

let reset t =
  locked t (fun () ->
      Hashtbl.reset t.counters;
      Hashtbl.reset t.gauges;
      Hashtbl.reset t.histograms)
