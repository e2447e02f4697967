(** ASCII rendering of a registry's metrics, via {!Prelude.Table}.

    Three sections — counters, gauges, histograms — each omitted when
    empty.  Span timings are not here: they live in the flight recorder
    and print with [trace summary].  When [recorder] is given and has
    recorded anything, a fourth section reports the flight recorder's
    ring/record/drop counts so a truncated trace is visible in the run
    summary. *)

val render : ?registry:Registry.t -> ?recorder:Recorder.t -> unit -> string
(** Newline-terminated multi-line report; [""] when the registry holds no
    metrics. *)
