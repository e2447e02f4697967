(** A namespace of metrics plus a list of event sinks.

    Instrumented code takes an optional registry argument defaulting to
    {!default}, so production call sites need no plumbing (the CLI attaches
    a JSONL sink to the default registry and every layer streams into it),
    while tests create private registries for isolation.

    With no sink attached — the common case — {!emit} returns without
    reading the clock or building the event, so instrumentation in hot
    loops costs a list-emptiness check.  Metric updates always happen:
    counters and Welford histograms are cheap enough to leave on.

    Registries are safe to share across domains: metric lookup, sink
    management and event emission are mutex-protected (the experiment
    runner executes instrumented tasks on a Domain pool, all falling back
    to {!default}).  Metric {e updates} are intentionally unlocked —
    single-field stores that stay memory-safe under races, at worst
    dropping a count.

    A registry holds no spans: timed regions are flight-recorder spans
    ({!Recorder.with_span}), read from a [--trace] file. *)

type t

val create : ?label:string -> ?clock:(unit -> float) -> unit -> t
(** [clock] stamps emitted events; it defaults to [Unix.gettimeofday],
    and tests inject a deterministic clock. *)

val default : t
(** The process-wide registry every instrumented layer falls back to. *)

val label : t -> string

val counter : t -> string -> Metric.counter
(** Get-or-create by name; the same name always returns the same cell. *)

val gauge : t -> string -> Metric.gauge

val histogram : t -> string -> Metric.histogram

val add_sink : t -> Sink.t -> unit

val remove_sink : t -> Sink.t -> unit
(** Physical-equality removal of a sink added with {!add_sink}. *)

val active : t -> bool
(** Whether any sink is attached — guard for expensive event payloads
    (e.g. per-iteration residual trajectories). *)

val emit : t -> string -> (unit -> (string * Jsonx.t) list) -> unit
(** [emit t name fields] builds and delivers an event to every sink; the
    [fields] thunk is not called when no sink is attached. *)

val counters : t -> (string * Metric.counter) list
(** Sorted by name; likewise {!gauges} and {!histograms}. *)

val gauges : t -> (string * Metric.gauge) list

val histograms : t -> (string * Metric.histogram) list

val reset : t -> unit
(** Drop all metrics; sinks stay attached. *)
