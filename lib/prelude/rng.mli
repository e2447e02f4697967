(** Deterministic, splittable pseudo-random number generator.

    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny,
    fast, statistically solid 64-bit generator whose state advances by a
    fixed odd increment, which makes it trivially splittable.  Every
    stochastic component of the library (simulators, mobility, noisy
    observers) threads an explicit [t] so that experiments are reproducible
    from a single integer seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy sharing the current state (diverges on first use of
    either copy only if both are advanced). *)

val split : t -> t
(** [split t] advances [t] and returns a generator whose stream is
    statistically independent of the remainder of [t]'s stream.  Used to give
    each simulated station its own stream. *)

val of_key : seed:int -> string -> t
(** [of_key ~seed key] is a generator determined solely by the
    [(seed, key)] pair — no ambient state is read or advanced.  The
    experiment runner derives each task's stream this way (from the sweep
    seed and the task's content key), so results are independent of task
    ordering, worker count, and scheduling. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); [bound] must be positive.
    Rejection sampling removes modulo bias. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t x] is uniform on [0, x). *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform on [lo, hi). *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate); [rate > 0]. *)

val bits53_nonzero : t -> int
(** The draw behind {!exponential}: 53 uniform bits, redrawn while all
    zero, so that
    [exponential t rate = -. log (float_of_int (bits53_nonzero t) *. 0x1p-53) /. rate]
    bit for bit for the same state.  An [int] comes back unboxed, so a
    caller in another module can sample without the boxed return of
    [exponential] (dev builds pass [-opaque], so nothing inlines across
    modules). *)

val normal : t -> mean:float -> stddev:float -> float
(** Gaussian sample via Box–Muller. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
