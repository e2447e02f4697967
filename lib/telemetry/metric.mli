(** The three metric primitives.

    All three are plain mutable cells designed for hot loops: a counter
    increment is one integer store, a histogram observation one Welford
    update ({!Prelude.Stats}) — no allocation, no formatting, no clock
    reads.  Rendering happens only when a report or event is requested. *)

type counter

val counter : unit -> counter

val incr : counter -> unit

val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment. *)

val count : counter -> int

type gauge

val gauge : unit -> gauge

val set : gauge -> float -> unit

val value : gauge -> float

type histogram
(** Welford-backed summary (count/mean/stddev/min/max/sum), not a bucketed
    histogram: constant memory regardless of sample count, which is what a
    million-slot simulation needs. *)

val histogram : unit -> histogram

val observe : histogram -> float -> unit

val observations : histogram -> int

val mean : histogram -> float

val stddev : histogram -> float

val hmin : histogram -> float
(** [infinity] when empty. *)

val hmax : histogram -> float
(** [neg_infinity] when empty. *)

val total : histogram -> float
