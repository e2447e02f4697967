(** Streaming and batch descriptive statistics.

    The streaming accumulator uses Welford's algorithm, which is numerically
    stable for long simulation runs (millions of slot samples). *)

type t
(** Mutable streaming accumulator. *)

val create : unit -> t

val add : t -> float -> unit

val add_many : t -> float array -> unit

val count : t -> int

val mean : t -> float
(** Mean of the observations; 0 if empty. *)

val variance : t -> float
(** Unbiased sample variance (n−1 denominator); 0 if fewer than two
    observations. *)

val population_variance : t -> float
(** Variance with n denominator; 0 if empty. *)

val stddev : t -> float

val min : t -> float
(** Smallest observation; [infinity] if empty. *)

val max : t -> float
(** Largest observation; [neg_infinity] if empty. *)

val sum : t -> float

val merge : t -> t -> t
(** Accumulator equivalent to having seen both streams (Chan et al.). *)

val confidence_interval_95 : t -> float
(** Half-width of the normal-approximation 95 % confidence interval of the
    mean: 1.96·s/√n.  0 if fewer than two observations. *)

(** {1 Batch helpers} *)

val mean_of : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100], linear interpolation between order
    statistics.  Raises [Invalid_argument] on an empty array. *)

val median : float array -> float

val jain_fairness : float array -> float
(** Jain's fairness index (Σx)²/(n·Σx²) of a non-negative allocation vector;
    1 when perfectly fair, 1/n when one player takes everything.  Returns 1
    for an empty or all-zero vector. *)
