(** Timed regions.

    A span measures one dynamic extent on the registry clock.  Every
    completed span feeds the histogram ["<name>.seconds"] and the counter
    ["<name>.calls"], and — when a sink is attached — emits a ["span"]
    event with the span's nesting depth (0 = outermost), so a JSONL trace
    reconstructs the call tree of instrumented regions.

    Spans also carry {e identity}: when the flight recorder is enabled,
    entering a span records a begin/end pair with a process-unique span id
    and the id of the enclosing span as parent (see {!module:Recorder}),
    and the JSONL ["span"] event gains [span]/[parent] fields.  With the
    recorder disabled the extra cost is one atomic load. *)

val with_span :
  ?registry:Registry.t ->
  ?recorder:Recorder.t ->
  ?fields:(unit -> (string * Jsonx.t) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] times [f ()]; the span completes (metrics, event,
    recorder end-record, depth and open-span stack restored) even when
    [f] raises.  [fields] adds extra payload to the event and is only
    evaluated when a sink is attached. *)
