(** The flight recorder: per-domain, fixed-capacity binary trace rings.

    The JSONL event stream ({!Sink.jsonl}) allocates and serialises on
    every event — fine for run summaries, fatal for per-event tracing of
    the allocation-free simulator core.  The recorder is the hot-path
    alternative: a packed trace record is eight integer stores into a
    ring buffer owned by the writing domain, with no allocation, no
    locking and no formatting in steady state.  Rendering (summaries,
    Chrome/Perfetto export, diffs) happens offline, after {!drain}.

    It is also the program's only span mechanism: every timed region of
    the library and the CLI opens with {!with_span}, so where a run's
    time went is read from its trace ([--trace FILE], then [trace
    summary]), not from registry metrics or JSONL events.

    {2 Record format}

    Every record carries a monotonic nanosecond timestamp, the writing
    domain's id, a kind ({!kind_begin}, {!kind_end}, {!kind_instant}), an
    interned name id, a span id and parent-span id (0 = none), and two
    free integer payload words.  Timestamps are strictly increasing per
    ring (the wall clock is clamped forward by at least 1 ns per record),
    so a drained trace sorts into a single causal order: within a domain,
    a parent span's begin always precedes its children.

    {2 Capacity and loss}

    Each domain writes into its own fixed ring, sized by {!create} or
    {!set_capacity} before its first record (rounded up to a power of
    two).  When a ring wraps, the oldest
    records are overwritten and counted: {!drain} reports the loss and
    bumps the ["telemetry.trace.dropped_records"] counter, so a
    truncated trace is never silently read as complete.  Rings of
    finished domains are parked and reused by later domains (the
    experiment pool spawns fresh domains per sweep), bounding memory at
    one ring per {e concurrently} live domain.

    {2 Zero-cost when disabled}

    Every recording entry point first reads one atomic flag; when the
    recorder is disabled nothing else happens — no clock read, no ring
    allocation, no stores — so instrumented hot loops are bit-identical
    to uninstrumented ones.  {!detail} gates a second, denser tier
    (per-calendar-event and RTS/CTS/NAV instants in the spatial core)
    that is off even when recording, for workloads where the default
    tier's overhead budget is tight. *)

type t

type record = {
  ts : int;  (** monotonic nanoseconds (strictly increasing per ring) *)
  domain : int;  (** id of the domain that wrote the record *)
  kind : int;  (** {!kind_begin}, {!kind_end} or {!kind_instant} *)
  name : int;  (** interned name id, an index into {!dump} names *)
  span : int;  (** begin/end: the span's id; instant: enclosing span *)
  parent : int;  (** begin/end: parent span id; 0 = root *)
  a : int;  (** payload word *)
  b : int;  (** payload word *)
}

type dump = { records : record array; names : string array; dropped : int }
(** A drained trace: records in causal order (timestamp, then domain),
    the interned-name table, and how many records the rings overwrote. *)

val kind_begin : int
val kind_end : int
val kind_instant : int

val create : ?capacity:int -> ?clock:(unit -> int) -> unit -> t
(** [capacity] is records per domain ring, rounded up to a power of two
    (default 32768 ≈ 2 MiB per ring); [clock] returns nanoseconds and
    defaults to the wall clock — tests inject a deterministic one.
    @raise Invalid_argument when [capacity < 16]. *)

val default : t
(** The process-wide recorder every instrumented layer writes to. *)

val set_enabled : t -> bool -> unit

val enabled : t -> bool

val set_detail : t -> bool -> unit
(** Opt into the dense instrumentation tier (see module doc). *)

val detail : t -> bool
(** [true] only when both {!enabled} and detail are on. *)

val set_capacity : t -> int -> unit
(** Ring capacity for domains that have not recorded yet; existing rings
    keep theirs.  @raise Invalid_argument when below 16. *)

val intern : t -> string -> int
(** Stable id for [name] (same string, same id, across domains).  Takes
    a lock: intern once at module initialisation or setup, not per
    record. *)

val instant : t -> int -> int -> int -> unit
(** [instant t name a b] records a point event attributed to the
    current open span of the calling domain.  No-op when disabled. *)

val begin_span : t -> int -> int -> int -> int
(** [begin_span t name a b] opens a span: allocates a fresh span id,
    records a begin with the current span as parent, and pushes the id
    on the domain's open-span stack.  Returns the id, or 0 when the
    recorder is disabled (every 0 is ignored by {!end_span}). *)

val end_span : t -> int -> int -> unit
(** [end_span t name id] closes span [id]: pops it (and anything an
    exception unwound past) off the open-span stack and records an end.
    No-op when [id = 0].  Safe to call with recording since disabled —
    the stack is still repaired. *)

val current_span : t -> int
(** Innermost open span id of the calling domain; 0 at top level. *)

val with_span : t -> int -> int -> int -> (unit -> 'a) -> 'a
(** [with_span t name a b f] runs [f ()] inside a span ({!begin_span}
    with payload [a], [b]) and closes it with {!end_span} whether [f]
    returns or raises; an exception is re-raised with its backtrace.
    [name] is an id from {!intern}, taken once at module initialisation.
    When the recorder is disabled it calls [f] and nothing else: no
    record, no allocation beyond the caller's closure. *)

type stats = { rings : int; live : int; written : int; dropped : int }

val stats : t -> stats
(** Counts since the last resetting {!drain}: rings ever used, records
    currently held, records ever written, records overwritten. *)

val drain : ?registry:Registry.t -> ?reset:bool -> t -> dump
(** Merge every ring (including parked rings of finished domains) into
    one causally-ordered trace.  [reset] (default [true]) empties the
    rings.  The drain's dropped count is added to [registry]'s
    ["telemetry.trace.dropped_records"] counter (default registry:
    {!Registry.default}).  Call when the recorded workload is quiescent
    — concurrent writers race the snapshot harmlessly but may tear their
    newest record into or out of it. *)
