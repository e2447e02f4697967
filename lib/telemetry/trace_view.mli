(** Offline views over a drained trace: per-span summaries, Chrome
    trace-event export, and trace-to-trace regression diffs.

    Everything here works on a {!Recorder.dump} (in memory or read back
    via {!Trace_file}); nothing touches the hot path. *)

type span_stat = {
  name : string;
  count : int;  (** closed spans with this name *)
  total_s : float;  (** wall seconds inside the span, children included *)
  self_s : float;  (** total minus time attributed to child spans *)
  min_s : float;  (** the shortest closed instance, children included *)
}

type summary = {
  spans : span_stat list;  (** sorted by self time, descending *)
  instants : (string * int) list;  (** instant name → count, descending *)
  records : int;
  dropped : int;
  orphan_ends : int;  (** ends whose begin was overwritten by a wrap *)
  unclosed : int;  (** begins with no end in the trace *)
  wall_s : float;  (** last timestamp minus first *)
  domains : int;  (** distinct writing domains *)
}

val summarize : Recorder.dump -> summary

val render_summary : ?top:int -> Format.formatter -> summary -> unit
(** Top-[top] (default 15) span names by self time, instant counts, and
    the loss/coverage footer (records, dropped, orphans, unclosed). *)

val to_chrome : Recorder.dump -> Jsonx.t
(** Chrome trace-event JSON (the [traceEvents] array form) loadable in
    Perfetto or [chrome://tracing]: spans become ["B"]/["E"] pairs,
    instants thread-scoped ["i"] events; timestamps are microseconds
    relative to the first record; [tid] is the writing domain. *)

type delta = {
  span : string;
  a_count : int;  (** closed instances in the first trace *)
  b_count : int;  (** closed instances in the second trace *)
  a_s : float;  (** total seconds in the first trace (0 if absent) *)
  b_s : float;  (** total seconds in the second trace (0 if absent) *)
  ratio : float;  (** (b - a) / a of the totals; +inf when the span is new *)
  min_ratio : float;  (** the same for the shortest instance *)
  flagged : bool;
}

val diff :
  ?threshold:float -> ?min_seconds:float -> Recorder.dump -> Recorder.dump -> delta list
(** Per-span-name comparison, flagged deltas first, then by |ratio|
    descending.  A delta is flagged when the instance counts differ, or
    when both |ratio| and |min_ratio| exceed [threshold] (default 0.25)
    and the larger side's total time is at least [min_seconds] (default
    1e-4) — the floor keeps nanosecond-scale spans from tripping the gate
    on noise.  The shortest instance over a recording's [--repeat] runs
    ignores the few instances that share the machine with a burst of
    other work, which move the total alone; a real slowdown moves every
    instance, and so both. *)

val render_diff : Format.formatter -> delta list -> unit

val flagged : delta list -> int
(** How many deltas are flagged (the CLI's exit code hinges on this). *)
